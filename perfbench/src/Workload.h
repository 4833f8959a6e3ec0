//===- perfbench/src/Workload.h - Workload entry points ----------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload takes and returns. A workload generates all of its
/// inputs from the seed before any timing starts, sets itself up several
/// times (setup_s is the median), measures for the requested seconds, and
/// checks the program's outputs. An untraced run reports the end-to-end
/// metrics, whose timings are thread CPU time (cpuNs) scaled to the
/// reference speed (ReferenceSpeed.h);
/// a traced run splits its time between untraced work (the reference for
/// bench.trace_overhead_frac) and traced work that yields the per-layer
/// metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "ReferenceSpeed.h"
#include "Spans.h"
#include "Stats.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir;     ///< where a traced run writes its spans
  std::string ProgramDir; ///< the TMIR programs (perfbench/programs)
  /// Self-tests only: damage the final state before the checks run, so the
  /// tests can see every check fire.
  bool CorruptFinalState = false;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Outcome of one workload run.
struct Result {
  uint64_t Attempted = 0; ///< operations the workload tried
  uint64_t Failed = 0;    ///< operations a correctness check rejected
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes; ///< human-readable lines (sample counts, ...)

  void add(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records one correctness check: \p Bad operations out of its scope.
  void check(const std::string &What, uint64_t Bad) {
    if (Bad) {
      Failed += Bad;
      note("CHECK FAILED: " + What + " (" + std::to_string(Bad) + ")");
    }
  }
};

Result runContainers(const RunOptions &O);
Result runTmirPipeline(const RunOptions &O);

/// Number of times each workload builds its state; setup_s is the median.
constexpr unsigned SetupReps = 25;

/// Builds state with \p Make(Speed) SetupReps times (destroying the
/// previous one first) and keeps the last. Each build records the time of
/// its sequential part in Speed, a ReferenceSpeed at \p NominalNs per unit;
/// \p MedianSeconds gets the median build time (thread CPU time) at the
/// reference speed.
template <typename MakeFn>
auto repeatedSetup(MakeFn &&Make, double NominalNs, double &MedianSeconds) {
  ReferenceSpeed Speed(NominalNs);
  decltype(Make(Speed)) State;
  std::vector<double> Times;
  for (unsigned I = 0; I < SetupReps; ++I) {
    State.reset();
    int64_t T0 = cpuNs();
    State = Make(Speed);
    Times.push_back((cpuNs() - T0) / 1e9 * Speed.factor());
  }
  MedianSeconds = medianOf(Times, "setup");
  return State;
}

/// The share of the wall time since construction that the calling thread
/// ran: below 1 by the time the host gave its CPU to others.
class CpuShare {
public:
  double get() const {
    return ratio(double(cpuNs() - Cpu), double(nowNs() - Wall));
  }

private:
  int64_t Wall = nowNs(), Cpu = cpuNs();
};

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// compile_p50_us for containers-1t, which does not compile as part of its
/// traffic: compiles the six TMIR programs from source text to a runnable
/// interpreter, each once per round(), through the same steps as a
/// tmir-pipeline op. \p Factor scales the times to the reference speed.
class CompileSampler {
public:
  explicit CompileSampler(const RunOptions &O);
  void round(double Factor);
  /// Mean over the programs of each one's median compile time (us).
  double p50Us() { return meanOfMedians(Us, "compile time"); }
  std::size_t rounds() const { return Us.empty() ? 0 : Us[0].size(); }

private:
  std::vector<std::string> Sources;
  std::vector<std::vector<double>> Us;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
