//===- perfbench/src/Layers.h - Per-layer metrics from public stats -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer metrics the benchmark derives without instrumenting src/: it
/// diffs the modules' public statistics snapshots around a measured window
/// (stm::TxStats, txn::CmStats, the epoch reclaimer) and folds in what its
/// own Tracer saw.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Stats.h"
#include "Tracer.h"
#include "Workload.h"

#include "gc/EpochManager.h"
#include "stm/Stm.h"
#include "txn/CmStats.h"

#include <vector>

namespace perfbench {

/// Public-stats deltas over one measured window. Worker threads must call
/// TxManager::current().flushStats() before they finish.
class CounterWindow {
public:
  CounterWindow() {
    otm::stm::TxManager::current().flushStats();
    otm::stm::Stm::resetGlobalStats();
    Cm0 = otm::txn::CmStats::instance().snapshot();
    Freed0 = otm::gc::EpochManager::global().freedCount();
  }

  void finish() {
    otm::stm::TxManager::current().flushStats();
    Tx = otm::stm::Stm::globalStats();
    otm::txn::CmStatsSnapshot Cm1 = otm::txn::CmStats::instance().snapshot();
    ConflictWaits = Cm1.ConflictWaits - Cm0.ConflictWaits;
    FallbackEntries = Cm1.FallbackEntries - Cm0.FallbackEntries;
    Freed = otm::gc::EpochManager::global().freedCount() - Freed0;
  }

  otm::stm::TxStats Tx;
  uint64_t ConflictWaits = 0, FallbackEntries = 0;
  uint64_t Freed = 0;

private:
  otm::txn::CmStatsSnapshot Cm0;
  uint64_t Freed0 = 0;
};

/// stm.*, gc.* and the txn.* counter metrics; \p Requests and \p Ops are
/// the window's top-level requests and container-level operations.
inline void addCounterMetrics(Result &R, const CounterWindow &W,
                              uint64_t Requests, uint64_t Ops) {
  const otm::stm::TxStats &S = W.Tx;
  double Commits = double(S.Commits);
  double Reads = double(S.ReadLogAppends + S.ReadsFiltered);
  double Req = double(Requests);
  R.add("stm.opens_per_commit",
        ratio(double(S.OpensForRead + S.OpensForUpdate), Commits), "count");
  R.add("stm.undo_per_commit", ratio(double(S.UndoLogAppends), Commits),
        "count");
  R.add("stm.read_filter_hit_frac", ratio(double(S.ReadsFiltered), Reads),
        "fraction");
  R.add("stm.aborts_per_commit", ratio(double(S.Aborts), Commits), "count");
  R.add("stm.validation_abort_frac",
        ratio(double(S.AbortsOnValidation), double(S.Aborts)), "fraction");
  R.add("stm.snapshot_commit_frac", ratio(double(S.SnapshotCommits), Commits),
        "fraction");
  R.add("stm.snapshot_restarts_per_commit",
        ratio(double(S.SnapshotUpgrades + S.SnapshotRefreshes), Commits),
        "count");
  R.add("txn.cm_conflict_waits_per_request",
        ratio(double(W.ConflictWaits), Req), "count");
  R.add("txn.serial_fallbacks", double(W.FallbackEntries), "count");
  R.add("txn.htm_commit_frac", ratio(double(S.HtmCommits), Commits),
        "fraction");
  R.add("gc.retires_per_op", ratio(double(S.Retires), double(Ops)), "count");
  R.add("gc.freed_per_op", ratio(double(W.Freed), double(Ops)), "count");
}

/// stm.*_ns_p50 and the txn.* metrics the tracer counted itself.
inline void addTracerMetrics(Result &R, const std::vector<Tracer *> &Ts) {
  std::vector<float> Barrier[3], Outside;
  uint64_t Requests = 0, Attempts = 0;
  int64_t Body = 0, Wasted = 0;
  for (Tracer *T : Ts) {
    for (unsigned I = 0; I < 3; ++I)
      Barrier[I].insert(Barrier[I].end(), T->BarrierNs[I].begin(),
                        T->BarrierNs[I].end());
    Outside.insert(Outside.end(), T->OutsideBodyUs.begin(),
                   T->OutsideBodyUs.end());
    Requests += T->Requests;
    Attempts += T->Attempts;
    Body += T->BodyNs;
    Wasted += T->WastedBodyNs;
  }
  const char *Names[3] = {"stm.open_read_ns_p50", "stm.open_update_ns_p50",
                          "stm.log_undo_ns_p50"};
  for (unsigned I = 0; I < 3; ++I)
    R.add(Names[I], Barrier[I].empty() ? 0.0 : median(Barrier[I], Names[I]),
          "ns");
  R.add("txn.attempts_per_request", ratio(double(Attempts), double(Requests)),
        "count");
  R.add("txn.wasted_body_frac", ratio(double(Wasted), double(Body)),
        "fraction");
  R.add("txn.outside_body_p50_us", median(Outside, "outside-body time"), "us");
  R.add("txn.outside_body_p99_us",
        percentile(Outside, 99.0, "outside-body time"), "us");
}

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
