//===- perfbench/src/TmirPipeline.cpp - tmir-pipeline workload -------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The six TMIR benchmark programs of the E4/E5 experiments, closed loop on
// one thread. Each op takes one program from source text through parse ->
// verify -> passes::lowerAndOptimize(OptConfig::all()) -> an ObjStm
// interpreter run; the same lowered module then runs once more with atomic
// regions ignored, the sequential reference for overhead_x. This is the only
// traffic where src/tmir, src/passes and src/interp work, and where barrier
// elimination changes how many STM calls are made at all.
//
// The programs live in perfbench/programs (copies, so that the benchmark's
// traffic does not change when the experiment sources do). Their arguments
// are enlarged so the interpreted run dominates each op; the default
// arguments and checksums are those of the experiments and are checked once
// per setup. list-sum, the read-only program, runs several times per suite
// at seeded sizes (see ScanRuns). Every step is timed in thread CPU time
// (cpuNs): a list-sum op takes about half a millisecond, short enough that
// the host's preemptions would otherwise set its p99.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Workload.h"

#include "interp/Interp.h"
#include "passes/Pipeline.h"
#include "support/Random.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <array>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace otm;

namespace perfbench {
namespace {

struct ProgramSpec {
  const char *Name;
  long long DefaultArg;
  long long Expected; ///< checksum at DefaultArg
  long long Arg;      ///< the argument the timed loop runs
};

constexpr std::size_t NumPrograms = 6;
const ProgramSpec Specs[NumPrograms] = {
    {"list-sum", 2000, 2000LL * 1999 / 2, 0}, // Arg: seeded, see ScanArgs
    {"bst-insert", 1500, 1500, 1500},
    {"bank", 4000, 4000, 4000},
    {"sieve", 5000, 669, 6000},
    {"churn", 3000, 18015000, 4500},
    {"dotprod", 300, 17910100, 9000},
};
constexpr std::size_t ListSum = 0;
/// Nominal time of one interpreted instruction in IgnoreAtomic mode, which
/// the end-to-end timings are scaled to. About what an unloaded 4-vCPU
/// Intel Xeon virtual machine takes.
constexpr double NominalRefInstrNs = 3;
/// list-sum is the suite's read-only request: each suite submits it this
/// many times, at sizes drawn from the seed, so that its latency tail has
/// enough samples and the op-latency median falls inside one program's
/// distribution rather than on the boundary between two. Its checksum
/// n(n-1)/2 is known for every size.
constexpr unsigned ScanRuns = 8;
constexpr long long ScanArgMin = 1500, ScanArgMax = 2500;
constexpr std::size_t ScanArgCount = 1 << 12;

struct Inputs {
  std::vector<std::string> Sources;
  std::vector<long long> ScanArgs; ///< cycled by the timed loop
};

std::vector<std::string> loadSources(const RunOptions &O) {
  std::vector<std::string> Sources;
  for (const ProgramSpec &Spec : Specs) {
    std::string Path = O.ProgramDir + "/" + Spec.Name + ".tmir";
    std::ifstream F(Path);
    if (!F)
      throw std::runtime_error("cannot read " + Path);
    std::stringstream SS;
    SS << F.rdbuf();
    Sources.push_back(SS.str());
  }
  return Sources;
}

Inputs makeInputs(const RunOptions &O) {
  Inputs In;
  In.Sources = loadSources(O);
  Xoshiro256 Rng(O.Seed * 0xd1b54a32d192ed03ULL);
  for (std::size_t I = 0; I < ScanArgCount; ++I)
    In.ScanArgs.push_back(
        ScanArgMin + static_cast<long long>(Rng.nextBelow(ScanArgMax - ScanArgMin + 1)));
  return In;
}

/// A program taken from source text to a runnable ObjStm interpreter, with
/// the step boundaries (cpuNs). Built in place: the interpreter
/// refers to the module.
struct Compiled {
  tmir::Module M;
  std::vector<passes::PassReport> Reports;
  std::optional<interp::Interpreter> Interp;
  int64_t Start = 0, Parsed = 0, Verified = 0, Optimized = 0, Built = 0;

  explicit Compiled(const std::string &Src) {
    std::string Err;
    Start = cpuNs();
    if (!tmir::parseModule(Src, M, Err))
      throw std::runtime_error("parse: " + Err);
    Parsed = cpuNs();
    if (!tmir::verifyModule(M, Err))
      throw std::runtime_error("verify: " + Err);
    Verified = cpuNs();
    Reports = passes::lowerAndOptimize(M, passes::OptConfig::all());
    Optimized = cpuNs();
    interp::Interpreter::Options Opts;
    Opts.Mode = interp::Interpreter::TxMode::ObjStm;
    Interp.emplace(M, Opts);
    Built = cpuNs();
  }
};

/// One op: a program compiled and run in ObjStm mode, then run again with
/// atomic regions ignored (the sequential reference).
struct OpResult {
  /// Step boundaries (cpuNs); the op ends at Ran.
  int64_t Start = 0, Parsed = 0, Verified = 0, Optimized = 0, Built = 0,
          Ran = 0;
  int64_t RefNs = 0;
  uint64_t RefInstrs = 0;
  int64_t Value = 0, RefValue = 0;
  unsigned BarriersRemoved = 0;
  uint64_t Instrs = 0, Opens = 0, TxCommitted = 0;
};

OpResult runOp(const std::string &Src, long long Arg) {
  OpResult R;
  Compiled C(Src);
  R.Start = C.Start;
  R.Parsed = C.Parsed;
  R.Verified = C.Verified;
  R.Optimized = C.Optimized;
  R.Built = C.Built;
  interp::Interpreter::RunResult Run = C.Interp->run("main", {Arg});
  R.Ran = cpuNs();
  if (Run.Trapped)
    throw std::runtime_error("trapped: " + Run.Error);
  R.Value = Run.Value;
  interp::DynCounts &Counts = C.Interp->counts();
  R.Instrs = Counts.Instrs.load();
  R.Opens = Counts.OpenRead.load() + Counts.OpenUpdate.load();
  R.TxCommitted = Counts.TxCommitted.load();
  // Barriers present right after lowering minus those left at the end.
  for (const passes::PassReport &Rep : C.Reports)
    if (Rep.PassName == "lower-atomic")
      R.BarriersRemoved = Rep.After.total() - C.Reports.back().After.total();

  interp::Interpreter::Options RefOpts;
  RefOpts.Mode = interp::Interpreter::TxMode::IgnoreAtomic;
  interp::Interpreter J(C.M, RefOpts);
  int64_t T0 = cpuNs();
  interp::Interpreter::RunResult Ref = J.run("main", {Arg});
  R.RefNs = cpuNs() - T0;
  if (Ref.Trapped)
    throw std::runtime_error("reference trapped: " + Ref.Error);
  R.RefValue = Ref.Value;
  R.RefInstrs = J.counts().Instrs.load();
  return R;
}

struct PhaseResult {
  uint64_t Suites = 0, Ops = 0, Mismatches = 0;
  int64_t OpNs = 0, StmRunNs = 0, RefRunNs = 0;
  double ScaledOpNs = 0; ///< OpNs at the reference speed
  /// At the reference speed: op latency, that of list-sum, compile time.
  std::vector<float> OpUs, ScanUs;
  std::vector<float> ParseUs, VerifyUs, OptimizeUs;
  std::array<std::vector<float>, NumPrograms> CompileUs;
  std::array<std::vector<float>, NumPrograms> RunMs; ///< raw
  uint64_t Instrs = 0, Opens = 0, TxCommitted = 0, BarriersRemoved = 0;
};

/// Runs whole suites until \p Seconds have passed. Each suite's
/// ignore-atomic runs are recorded in \p Speed, whose factor then scales
/// the suite's timings. Without \p Traced every suite goes to \p Plain;
/// with it, suites alternate between \p Plain and \p Traced, whose ops also
/// leave an `op` span with parse/verify/optimize/run children in \p Log.
/// Alternating keeps warm-up and host drift out of
/// bench.trace_overhead_frac.
void runPhase(const Inputs &In, double Seconds, ReferenceSpeed &Speed,
              PhaseResult &Plain, PhaseResult *Traced, SpanLog *Log) {
  // One suite: list-sum ScanRuns times, then every other program once.
  std::vector<std::size_t> Suite(ScanRuns, ListSum);
  for (std::size_t P = 0; P < NumPrograms; ++P)
    if (P != ListSum)
      Suite.push_back(P);
  std::vector<OpResult> Done(Suite.size());
  std::vector<long long> Args(Suite.size());
  std::size_t NextScan = 0;
  const int64_t End = nowNs() + static_cast<int64_t>(Seconds * 1e9);
  while (nowNs() < End) {
    const bool Tracing = Traced && (Plain.Suites + Traced->Suites) % 2 == 1;
    PhaseResult &R = Tracing ? *Traced : Plain;
    int64_t RefNs = 0;
    uint64_t RefInstrs = 0;
    for (std::size_t I = 0; I < Suite.size(); ++I) {
      const std::size_t P = Suite[I];
      Args[I] = P == ListSum ? In.ScanArgs[NextScan++ % ScanArgCount]
                             : Specs[P].Arg;
      Done[I] = runOp(In.Sources[P], Args[I]);
      RefNs += Done[I].RefNs;
      RefInstrs += Done[I].RefInstrs;
    }
    Speed.record(double(RefNs), double(RefInstrs));
    const double F = Speed.factor();
    for (std::size_t I = 0; I < Suite.size(); ++I) {
      const std::size_t P = Suite[I];
      const OpResult &O = Done[I];
      R.Mismatches += O.Value != O.RefValue ||
                      (P == ListSum && O.Value != Args[I] * (Args[I] - 1) / 2);
      float OpUs = static_cast<float>((O.Ran - O.Start) / 1e3 * F);
      R.StmRunNs += O.Ran - O.Built;
      R.RefRunNs += O.RefNs;
      R.OpNs += O.Ran - O.Start;
      R.ScaledOpNs += (O.Ran - O.Start) * F;
      R.RunMs[P].push_back(static_cast<float>((O.Ran - O.Built) / 1e6));
      R.OpUs.push_back(OpUs);
      if (P == ListSum)
        R.ScanUs.push_back(OpUs);
      R.CompileUs[P].push_back(static_cast<float>((O.Built - O.Start) / 1e3 * F));
      R.ParseUs.push_back(static_cast<float>((O.Parsed - O.Start) / 1e3));
      R.VerifyUs.push_back(static_cast<float>((O.Verified - O.Parsed) / 1e3));
      R.OptimizeUs.push_back(static_cast<float>((O.Optimized - O.Verified) / 1e3));
      R.Instrs += O.Instrs;
      R.Opens += O.Opens;
      R.TxCommitted += O.TxCommitted;
      R.BarriersRemoved += O.BarriersRemoved;
      if (Tracing) {
        uint32_t Root = Log->add(SpanName::Op, Span::NoParent, R.Ops, O.Start, O.Ran);
        Log->add(SpanName::Parse, Root, R.Ops, O.Start, O.Parsed);
        Log->add(SpanName::Verify, Root, R.Ops, O.Parsed, O.Verified);
        Log->add(SpanName::Optimize, Root, R.Ops, O.Verified, O.Optimized);
        Log->add(SpanName::Run, Root, R.Ops, O.Built, O.Ran);
      }
      ++R.Ops;
    }
    ++R.Suites;
  }
}

/// Loads the inputs and runs every program once at its default argument,
/// checking the experiments' checksums; \p Bad counts the wrong results.
/// The ignore-atomic runs are recorded in \p Speed.
std::unique_ptr<Inputs> setupOnce(const RunOptions &O, uint64_t &Bad,
                                  ReferenceSpeed &Speed) {
  auto In = std::make_unique<Inputs>(makeInputs(O));
  int64_t RefNs = 0;
  uint64_t RefInstrs = 0;
  for (std::size_t P = 0; P < NumPrograms; ++P) {
    OpResult R = runOp(In->Sources[P], Specs[P].DefaultArg);
    RefNs += R.RefNs;
    RefInstrs += R.RefInstrs;
    if (O.CorruptFinalState && P == ListSum)
      ++R.Value;
    Bad += R.Value != Specs[P].Expected || R.RefValue != Specs[P].Expected;
  }
  Speed.record(double(RefNs), double(RefInstrs));
  return In;
}

} // namespace

CompileSampler::CompileSampler(const RunOptions &O)
    : Sources(loadSources(O)), Us(Sources.size()) {}

void CompileSampler::round(double Factor) {
  for (std::size_t P = 0; P < Sources.size(); ++P) {
    Compiled C(Sources[P]);
    Us[P].push_back((C.Built - C.Start) / 1e3 * Factor);
  }
}

Result runTmirPipeline(const RunOptions &O) {
  Result R;
  double SetupS = 0;
  uint64_t SetupBad = 0;
  std::unique_ptr<Inputs> In = repeatedSetup(
      [&](ReferenceSpeed &Speed) { return setupOnce(O, SetupBad, Speed); },
      NominalRefInstrNs, SetupS);
  R.Attempted += SetupReps * NumPrograms;
  R.check("programs whose default-argument result differs from the expected "
          "checksum",
          SetupBad);

  PhaseResult P, T;
  SpanLog Log;
  ReferenceSpeed Speed(NominalRefInstrNs);
  CounterWindow W;
  CpuShare Share;
  runPhase(*In, O.Seconds, Speed, P, O.Trace ? &T : nullptr, &Log);
  const double CpuOfWall = Share.get();
  W.finish();
  R.Attempted += P.Ops + T.Ops;
  R.check("program runs whose ObjStm result differs from the ignore-atomic "
          "result or the known checksum",
          P.Mismatches + T.Mismatches);

  if (!O.Trace) {
    R.add("setup_s", SetupS, "s");
    R.add("throughput_ops_s", ratio(double(P.Suites), P.ScaledOpNs / 1e9), "1/s");
    R.add("latency_p50_us", median(P.OpUs, "op latency"), "us");
    R.add("latency_p99_us", percentile(P.OpUs, 99.0, "op latency"), "us");
    R.add("scan_p99_us", percentile(P.ScanUs, 99.0, "list-sum run"), "us");
    R.add("overhead_x", ratio(double(P.StmRunNs), double(P.RefRunNs)), "x");
    R.add("compile_p50_us", meanOfMedians(P.CompileUs, "compile time"), "us");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    R.note("suites " + std::to_string(P.Suites) + ", op samples " +
           std::to_string(P.OpUs.size()) + ", list-sum samples " +
           std::to_string(P.ScanUs.size()));
    R.note("raw: throughput " +
           std::to_string(ratio(double(P.Suites), P.OpNs / 1e9)) +
           " 1/s, ignore-atomic instruction " + std::to_string(Speed.unitNs()) +
           " ns (nominal " + std::to_string(NominalRefInstrNs) + ")");
    R.note("cpu share of wall time " + std::to_string(CpuOfWall));
    return R;
  }

  R.check("op spans whose self time and children do not add up to their "
          "duration",
          reconcileFailures(Log.spans(), SpanName::Op));

  // The counter window spans the traced and the untraced suites.
  addCounterMetrics(R, W, P.TxCommitted + T.TxCommitted, P.Ops + T.Ops);
  R.add("tmir.parse_us", median(T.ParseUs, "parse"), "us");
  R.add("tmir.verify_us", median(T.VerifyUs, "verify"), "us");
  R.add("passes.optimize_us", median(T.OptimizeUs, "optimize"), "us");
  R.add("passes.static_barriers_removed",
        ratio(double(T.BarriersRemoved), double(T.Suites)), "count");
  R.add("interp.ns_per_instr", ratio(double(T.StmRunNs), double(T.Instrs)), "ns");
  R.add("interp.opens_per_tx", ratio(double(T.Opens), double(T.TxCommitted)),
        "count");
  for (std::size_t Prog = 0; Prog < NumPrograms; ++Prog)
    R.add(std::string("interp.run_ms.") + Specs[Prog].Name,
          median(T.RunMs[Prog], Specs[Prog].Name), "ms");
  R.add("bench.trace_overhead_frac",
        ratio(ratio(T.ScaledOpNs, double(T.Ops)),
              ratio(P.ScaledOpNs, double(P.Ops))) -
            1.0,
        "fraction");
  if (!O.OutDir.empty() &&
      !writeChromeTrace(O.OutDir + "/tmir-pipeline.trace.json", {&Log}, 20000))
    R.note("could not write the span file under " + O.OutDir);
  return R;
}

} // namespace perfbench
