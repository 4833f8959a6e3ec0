//===- perfbench/src/ReferenceSpeed.h - Timings at the reference speed -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end timings in units that do not move with the host. On a
/// virtual machine shared with other tenants the same code runs up to 40%
/// faster or slower from one second, or one hour, to the next; every raw
/// timing moves with it, by more than any bound a comparison could use. A
/// fixed loop of the benchmark's own, on its own data, does not follow
/// these swings: they depend on the program's memory traffic. What follows
/// them is the workload's sequential reference, the identical work without
/// transactions (SeqPolicy in containers-1t, IgnoreAtomic in tmir-pipeline),
/// which the workloads interleave with the transactional work anyway.
///
/// So each workload feeds the reference timings it measures into a
/// ReferenceSpeed, and scales every transactional timing by the nominal
/// reference time over the median of the most recent reference samples. A
/// timing reported in "us" is then microseconds at the reference speed:
/// what the transactional path takes on a host that runs the sequential
/// reference in its nominal time. A change that speeds up only the
/// transactional path moves these timings as it moves the raw ones; a
/// change that speeds up the code both paths share by the same share moves
/// them less (overhead_x not at all), and shows in the raw timings the
/// runs print as notes and in the per-layer metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCESPEED_H
#define PERFBENCH_REFERENCESPEED_H

#include <algorithm>
#include <array>
#include <cstddef>

namespace perfbench {

class ReferenceSpeed {
public:
  /// Reference samples the factor is the median of.
  static constexpr std::size_t Recent = 15;

  /// \p NominalNs: the reference time of one unit of reference work that
  /// the scaled timings are expressed at.
  explicit ReferenceSpeed(double NominalNs) : NominalNs(NominalNs) {}

  /// One reference sample: \p Units of reference work took \p Ns.
  void record(double Ns, double Units) {
    if (Units <= 0 || Ns <= 0)
      return;
    Ring[Next++ % Recent] = Ns / Units;
    std::size_t N = std::min(Next, Recent);
    std::array<double, Recent> Sorted = Ring;
    std::nth_element(Sorted.begin(), Sorted.begin() + N / 2, Sorted.begin() + N);
    Factor = NominalNs / Sorted[N / 2];
  }

  /// Nominal over recent median reference time per unit: multiply a raw
  /// timing by this to get it at the reference speed (1 before any sample).
  double factor() const { return Factor; }
  /// Raw time per unit of reference work, recent median.
  double unitNs() const { return NominalNs / Factor; }

private:
  double NominalNs;
  std::array<double, Recent> Ring{};
  std::size_t Next = 0;
  double Factor = 1.0;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCESPEED_H
