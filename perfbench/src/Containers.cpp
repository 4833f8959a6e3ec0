//===- perfbench/src/Containers.cpp - containers-1t workload ---------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// E1's kernels as one closed loop on one thread: back-to-back contains /
// insert / erase calls (80/10/10, uniform keys) on a HashMap (4096 keys,
// tiny read sets), an RBTree and a SkipList (about 8K keys, mid-size read
// sets) and a SortedList (200 keys, read sets of about 100 objects), all
// through ObjStmOptPolicy, with the identical op stream replayed on SeqPolicy
// copies. No conflicts, no admission, one attempt per op: this isolates the
// paper's headline cost (barrier fast path, log filters, TxPool, epoch
// retirement, the containers themselves).
//
// The loop visits the structures round-robin, one block of ops at a time.
// Most blocks run unclocked and give throughput and overhead_x (STM time
// over SeqPolicy time for the same block); every eighth block times each op
// and gives the latency percentiles, so per-op clock reads stay out of the
// throughput figures. Each round's SeqPolicy replay also sets the factor
// that scales the end-to-end timings to the reference speed
// (ReferenceSpeed.h), and every 100 ms one round compiles the six TMIR
// programs for compile_p50_us.
//
// Blocks are timed in thread CPU time (cpuNs), so time the host gives to
// others stays out of throughput and overhead_x. The clocked blocks read
// the steady clock between ops instead: an op takes under a microsecond,
// a CPU-time read 0.3 us, and a preemption lands in far fewer ops than
// the one in a hundred that would move their p99.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Tracer.h"
#include "Workload.h"

#include "containers/HashMap.h"
#include "containers/RBTree.h"
#include "containers/SkipList.h"
#include "containers/SortedList.h"
#include "support/Random.h"

#include <array>
#include <memory>
#include <optional>

using namespace otm;
using namespace otm::containers;

namespace perfbench {
namespace {

constexpr unsigned NumKinds = 4;
const char *const KindNames[NumKinds] = {"hashmap", "rbtree", "skiplist",
                                         "sortedlist"};
constexpr int64_t MapKeys = 4096;
constexpr int64_t TreeKeySpace = 1 << 20;
constexpr int TreePreload = 8192;
constexpr int64_t ListKeys = 200;
constexpr std::size_t StreamLen = 1 << 16; ///< ops per structure, cycled
/// Ops per block. A block's CPU-time reads (0.3 us each) stay within 2% of
/// its shortest side, the SeqPolicy replay of 512 hash-map ops.
constexpr std::size_t Block = 512;
constexpr unsigned ClockEvery = 8;
/// Latency samples kept (evenly thinned beyond that).
constexpr std::size_t LatencyCap = 1 << 20;
/// Nominal SeqPolicy times the end-to-end timings are scaled to: per op of
/// the replay, and per preloaded key of building the SeqPolicy set. About
/// what an unloaded 4-vCPU Intel Xeon virtual machine takes.
constexpr double NominalSeqOpNs = 250;
constexpr double NominalPreloadNs = 150;
/// containers-1t compiles one round of the six TMIR programs this often
/// (about 2% of its time), for compile_p50_us.
constexpr int64_t CompileEveryNs = 100'000'000;

enum class OpKind : uint8_t { Contains, Insert, Erase };

struct Op {
  int64_t Key;
  int64_t Value;
  OpKind Kind;
};

struct Inputs {
  std::array<std::vector<Op>, NumKinds> Streams;
  std::array<std::vector<int64_t>, NumKinds> Preload;
};

/// The tracer TracedPolicy reports to: set only while the traced half runs,
/// so preloading the traced set records nothing.
thread_local Tracer *ActiveTracer = nullptr;

/// ObjStmOptPolicy with the benchmark's attempt and barrier spans around the
/// runtime calls. Only the traced run instantiates it.
struct TracedPolicy : ObjStmOptPolicy {
  template <typename FnType> static void run(FnType &&Fn) {
    stm::Stm::atomic([&](Ctx &C) {
      std::optional<Tracer::AttemptScope> Attempt;
      if (ActiveTracer)
        Attempt.emplace(*ActiveTracer);
      Fn(C);
    });
  }
  static void openRead(Ctx &Tx, ObjBase *Obj) {
    timed(SpanName::OpenRead, [&] { Tx.openForRead(Obj); });
  }
  static void openWrite(Ctx &Tx, ObjBase *Obj) {
    timed(SpanName::OpenUpdate, [&] { Tx.openForUpdate(Obj); });
  }
  template <typename ObjType, typename T>
  static void store(Ctx &Tx, ObjType *, Cell<T> &C, T Value) {
    timed(SpanName::LogUndo, [&] { Tx.logUndo(&C); });
    C.store(Value);
  }

private:
  template <typename BarrierFn> static void timed(SpanName N, BarrierFn &&B) {
    if (!ActiveTracer)
      return B();
    int64_t T0 = nowNs();
    B();
    ActiveTracer->barrier(N, T0, nowNs());
  }
};

template <typename P> struct Set {
  HashMap<P> Map{static_cast<std::size_t>(MapKeys)};
  RBTree<P> Tree;
  SkipList<P> Skip;
  SortedList<P> List;

  /// Applies \p O to structure \p K; returns the operation's result.
  bool apply(unsigned K, const Op &O) {
    switch (K) {
    case 0:
      return dispatch(Map, O);
    case 1:
      return dispatch(Tree, O);
    case 2:
      return dispatch(Skip, O);
    default:
      return dispatch(List, O);
    }
  }

  std::size_t size(unsigned K) const {
    switch (K) {
    case 0:
      return Map.sizeSlow();
    case 1:
      return Tree.sizeSlow();
    case 2:
      return Skip.sizeSlow();
    default:
      return List.sizeSlow();
    }
  }

  bool lookup(unsigned K, int64_t Key, int64_t &V) {
    switch (K) {
    case 0:
      return Map.lookup(Key, V);
    case 1:
      return Tree.lookup(Key, V);
    case 2:
      return Skip.lookup(Key, V);
    default:
      return List.lookup(Key, V);
    }
  }

private:
  template <typename C> static bool dispatch(C &Cont, const Op &O) {
    switch (O.Kind) {
    case OpKind::Contains:
      return Cont.contains(O.Key);
    case OpKind::Insert:
      return Cont.insert(O.Key, O.Value);
    case OpKind::Erase:
      return Cont.erase(O.Key);
    }
    return false;
  }
};

template <typename P> std::unique_ptr<Set<P>> makeSet(const Inputs &In) {
  auto S = std::make_unique<Set<P>>();
  for (unsigned K = 0; K < NumKinds; ++K)
    for (int64_t Key : In.Preload[K])
      S->apply(K, Op{Key, Key, OpKind::Insert});
  return S;
}

Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  const int64_t Space[NumKinds] = {MapKeys, TreeKeySpace, TreeKeySpace,
                                   ListKeys};
  for (unsigned K = 0; K < NumKinds; ++K) {
    Xoshiro256 Rng(Seed * 0x9e3779b97f4a7c15ULL + K);
    if (K == 0 || K == 3)
      for (int64_t Key = 0; Key < Space[K]; Key += 2)
        In.Preload[K].push_back(Key);
    else
      for (int I = 0; I < TreePreload; ++I)
        In.Preload[K].push_back(static_cast<int64_t>(Rng.nextBelow(TreeKeySpace)));
    In.Streams[K].resize(StreamLen);
    for (std::size_t I = 0; I < StreamLen; ++I) {
      Op &O = In.Streams[K][I];
      O.Key = static_cast<int64_t>(Rng.nextBelow(static_cast<uint64_t>(Space[K])));
      O.Value = static_cast<int64_t>(I);
      uint64_t Dice = Rng.nextBelow(100);
      O.Kind = Dice < 80 ? OpKind::Contains
               : Dice < 90 ? OpKind::Insert
                           : OpKind::Erase;
    }
  }
  return In;
}

std::size_t preloadSize(const Inputs &In) {
  std::size_t N = 0;
  for (const auto &Keys : In.Preload)
    N += Keys.size();
  return N;
}

struct State {
  Inputs In;
  std::unique_ptr<Set<ObjStmOptPolicy>> Stm;
  std::unique_ptr<Set<SeqPolicy>> Seq;
  std::unique_ptr<Set<TracedPolicy>> Traced;
  std::unique_ptr<Set<SeqPolicy>> TracedSeq;
};

struct PhaseResult {
  uint64_t Ops = 0;        ///< STM ops executed (all blocks)
  uint64_t Mismatches = 0; ///< ops whose result differed from SeqPolicy's
  std::array<int64_t, NumKinds> StmNs{}, SeqNs{}; ///< unclocked blocks only
  std::array<uint64_t, NumKinds> UnclockedOps{};
  double ScaledStmNs = 0; ///< unclocked STM time at the reference speed
  /// Clocked op latencies (raw ns per structure; us at the reference speed
  /// over all structures, and of the `contains` ops alone).
  std::array<std::optional<SampleSeries>, NumKinds> OpNs;
  std::optional<SampleSeries> LatencyUs, ContainsUs;
  double Seconds = 0;
};

/// Runs blocks round-robin until \p Seconds have passed, recording each
/// round's SeqPolicy replay in \p Speed. \p Tracer is set iff the STM side
/// is the traced set; \p Compile, if set, gets one round every
/// CompileEveryNs.
template <typename P>
PhaseResult runPhase(Set<P> &Stm, Set<SeqPolicy> &Seq, const Inputs &In,
                     double Seconds, ReferenceSpeed &Speed, Tracer *Tr,
                     CompileSampler *Compile) {
  PhaseResult R;
  for (auto &S : R.OpNs)
    S.emplace(LatencyCap / NumKinds);
  R.LatencyUs.emplace(LatencyCap);
  R.ContainsUs.emplace(LatencyCap);
  ActiveTracer = Tr;
  bool Results[Block];
  float ClockedNs[NumKinds][Block];
  const int64_t Start = nowNs();
  const auto Duration = static_cast<int64_t>(Seconds * 1e9);
  int64_t NextCompile = Start + CompileEveryNs / 2;
  uint64_t Round = 0;
  for (int64_t Now = Start; Now - Start < Duration; Now = nowNs(), ++Round) {
    if (Compile && Now >= NextCompile) {
      Compile->round(Speed.factor());
      NextCompile += CompileEveryNs;
    }
    const std::size_t Base = (Round * Block) % StreamLen;
    const bool Clocked = Tr == nullptr && Round % ClockEvery == 1;
    int64_t RoundStmNs = 0, RoundSeqNs = 0;
    for (unsigned K = 0; K < NumKinds; ++K) {
      const Op *Ops = &In.Streams[K][Base];
      int64_t T0 = cpuNs();
      if (Clocked) {
        int64_t Prev = nowNs();
        for (std::size_t I = 0; I < Block; ++I) {
          Results[I] = Stm.apply(K, Ops[I]);
          int64_t Now = nowNs();
          ClockedNs[K][I] = static_cast<float>(Now - Prev);
          Prev = Now;
        }
      } else if (Tr) {
        for (std::size_t I = 0; I < Block; ++I) {
          Tr->beginRequest(SpanName::Op, Round * Block * NumKinds + K * Block + I);
          Results[I] = Stm.apply(K, Ops[I]);
          Tr->endRequest();
        }
      } else {
        for (std::size_t I = 0; I < Block; ++I)
          Results[I] = Stm.apply(K, Ops[I]);
      }
      int64_t T1 = cpuNs();
      for (std::size_t I = 0; I < Block; ++I)
        R.Mismatches += Seq.apply(K, Ops[I]) != Results[I];
      int64_t T2 = cpuNs();
      RoundSeqNs += T2 - T1;
      if (!Clocked) {
        R.StmNs[K] += T1 - T0;
        R.SeqNs[K] += T2 - T1;
        R.UnclockedOps[K] += Block;
        RoundStmNs += T1 - T0;
      }
    }
    Speed.record(double(RoundSeqNs), double(NumKinds * Block));
    const double F = Speed.factor();
    R.ScaledStmNs += RoundStmNs * F;
    if (Clocked) {
      for (unsigned K = 0; K < NumKinds; ++K) {
        const Op *Ops = &In.Streams[K][Base];
        for (std::size_t I = 0; I < Block; ++I) {
          auto Us = static_cast<float>(ClockedNs[K][I] * F / 1e3);
          R.OpNs[K]->push(ClockedNs[K][I]);
          R.LatencyUs->push(Us);
          if (Ops[I].Kind == OpKind::Contains)
            R.ContainsUs->push(Us);
        }
      }
    }
  }
  ActiveTracer = nullptr;
  R.Ops = Round * Block * NumKinds;
  R.Seconds = (nowNs() - Start) / 1e9;
  return R;
}

/// Number of structures whose final size or key/value checksum differs
/// from the SeqPolicy replay's.
template <typename P>
uint64_t finalStateMismatches(Set<P> &Stm, Set<SeqPolicy> &Seq,
                              const Inputs &In) {
  uint64_t Bad = 0;
  for (unsigned K = 0; K < NumKinds; ++K) {
    uint64_t SumStm = 0, SumSeq = 0;
    auto fold = [](uint64_t Acc, int64_t Key, int64_t V) {
      uint64_t H = static_cast<uint64_t>(Key) * 0x9e3779b97f4a7c15ULL ^
                   static_cast<uint64_t>(V) * 0xc2b2ae3d27d4eb4fULL;
      return Acc + (H ^ (H >> 29));
    };
    auto visit = [&](int64_t Key) {
      int64_t V = 0;
      if (Stm.lookup(K, Key, V))
        SumStm = fold(SumStm, Key, V);
      if (Seq.lookup(K, Key, V))
        SumSeq = fold(SumSeq, Key, V);
    };
    // Every key either set ever held; visiting a key twice adds it twice to
    // both sums alike.
    for (int64_t Key : In.Preload[K])
      visit(Key);
    for (const Op &O : In.Streams[K])
      if (O.Kind == OpKind::Insert)
        visit(O.Key);
    Bad += Stm.size(K) != Seq.size(K) || SumStm != SumSeq;
  }
  return Bad;
}

double stmOverNs(const PhaseResult &P) {
  int64_t Stm = 0, Seq = 0;
  for (unsigned K = 0; K < NumKinds; ++K) {
    Stm += P.StmNs[K];
    Seq += P.SeqNs[K];
  }
  return ratio(double(Stm), double(Seq));
}

int64_t unclockedStmNs(const PhaseResult &P) {
  int64_t Ns = 0;
  for (int64_t T : P.StmNs)
    Ns += T;
  return Ns;
}

uint64_t unclockedOps(const PhaseResult &P) {
  uint64_t N = 0;
  for (uint64_t Ops : P.UnclockedOps)
    N += Ops;
  return N;
}

} // namespace

Result runContainers(const RunOptions &O) {
  Result R;
  double SetupS = 0;
  std::unique_ptr<State> S = repeatedSetup(
      [&](ReferenceSpeed &SetupSpeed) {
        auto St = std::make_unique<State>();
        St->In = makeInputs(O.Seed);
        St->Stm = makeSet<ObjStmOptPolicy>(St->In);
        int64_t T0 = cpuNs();
        St->Seq = makeSet<SeqPolicy>(St->In);
        SetupSpeed.record(double(cpuNs() - T0), double(preloadSize(St->In)));
        if (O.Trace) {
          St->Traced = makeSet<TracedPolicy>(St->In);
          St->TracedSeq = makeSet<SeqPolicy>(St->In);
        }
        return St;
      },
      NominalPreloadNs, SetupS);

  ReferenceSpeed Speed(NominalSeqOpNs);

  std::optional<CompileSampler> Compile;
  if (!O.Trace)
    Compile.emplace(O);
  double PlainSeconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  CpuShare Share;
  PhaseResult P = runPhase(*S->Stm, *S->Seq, S->In, PlainSeconds, Speed,
                           nullptr, Compile ? &*Compile : nullptr);
  const double CpuOfWall = Share.get();
  R.Attempted += P.Ops;
  R.check("container ops whose result differs from the SeqPolicy replay",
          P.Mismatches);
  if (O.CorruptFinalState)
    S->Stm->apply(0, Op{MapKeys + 1, 0, OpKind::Insert});
  R.check("structures whose final state differs from the SeqPolicy replay",
          finalStateMismatches(*S->Stm, *S->Seq, S->In));

  if (!O.Trace) {
    std::vector<float> Lat = P.LatencyUs->samples();
    std::vector<float> Contains = P.ContainsUs->samples();
    std::vector<float> RawLat;
    for (auto &OpNs : P.OpNs)
      for (float Ns : OpNs->samples())
        RawLat.push_back(Ns / 1e3f);
    R.add("setup_s", SetupS, "s");
    R.add("throughput_ops_s",
          ratio(double(unclockedOps(P)), P.ScaledStmNs / 1e9), "1/s");
    R.add("latency_p50_us", median(Lat, "op latency"), "us");
    R.add("latency_p99_us", percentile(Lat, 99.0, "op latency"), "us");
    R.add("scan_p99_us", percentile(Contains, 99.0, "contains latency"), "us");
    R.add("overhead_x", stmOverNs(P), "x");
    R.add("compile_p50_us", Compile->p50Us(), "us");
    R.add("peak_rss_mb", peakRssMb(), "MiB");
    R.note("ops " + std::to_string(P.Ops) + ", latency samples " +
           std::to_string(Lat.size()) + ", contains samples " +
           std::to_string(Contains.size()) + ", compile rounds " +
           std::to_string(Compile->rounds()));
    R.note("raw: throughput " +
           std::to_string(ratio(double(unclockedOps(P)),
                                unclockedStmNs(P) / 1e9)) +
           " 1/s, latency p50 " + std::to_string(median(RawLat, "op latency")) +
           " us, SeqPolicy op " + std::to_string(Speed.unitNs()) +
           " ns (nominal " + std::to_string(NominalSeqOpNs) + ")");
    R.note("cpu share of wall time " + std::to_string(CpuOfWall));
    return R;
  }

  // Traced half: the same op stream on the TracedPolicy set.
  Tracer Tr;
  CounterWindow W;
  PhaseResult T = runPhase(*S->Traced, *S->TracedSeq, S->In, O.Seconds / 2,
                           Speed, &Tr, nullptr);
  W.finish();
  R.Attempted += T.Ops;
  R.check("traced container ops whose result differs from the SeqPolicy replay",
          T.Mismatches);
  R.check("traced structures whose final state differs from the SeqPolicy "
          "replay",
          finalStateMismatches(*S->Traced, *S->TracedSeq, S->In));
  R.check("op spans whose self time and children do not add up to their "
          "duration",
          reconcileFailures(Tr.Log.spans(), SpanName::Op));

  addCounterMetrics(R, W, T.Ops, T.Ops);
  addTracerMetrics(R, {&Tr});
  for (unsigned K = 0; K < NumKinds; ++K) {
    std::vector<float> Ns = P.OpNs[K]->samples();
    std::string Prefix = std::string("containers.") + KindNames[K];
    R.add(Prefix + ".op_ns_p50", median(Ns, KindNames[K]), "ns");
    R.add(Prefix + ".overhead_x",
          ratio(double(P.StmNs[K]), double(P.SeqNs[K])), "x");
  }
  const stm::TxStats &St = W.Tx;
  R.add("containers.opens_per_op",
        ratio(double(St.OpensForRead + St.OpensForUpdate), double(T.Ops)),
        "count");
  double PlainNsPerOp = ratio(P.ScaledStmNs, double(unclockedOps(P)));
  double TracedNsPerOp = ratio(T.ScaledStmNs, double(unclockedOps(T)));
  R.add("bench.trace_overhead_frac", ratio(TracedNsPerOp, PlainNsPerOp) - 1.0,
        "fraction");
  if (!O.OutDir.empty() &&
      !writeChromeTrace(O.OutDir + "/containers-1t.trace.json", {&Tr.Log},
                        20000))
    R.note("could not write the span file under " + O.OutDir);
  return R;
}

} // namespace perfbench
