//===- bench/e7_contention.cpp - E7: abort behaviour under contention -----===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// E7 (paper analogue: behaviour of the optimistic/eager STM as conflicts
// rise). Four threads run read-modify-write transactions over a pool of
// objects while two knobs sweep:
//
//   - write ratio: fraction of transactions that open for update;
//   - hot-set size: objects drawn from 4 (pathological) to 4096 (disjoint).
//
// On a single-core host transactions almost never overlap naturally (a
// microsecond transaction inside a millisecond quantum), so one in ten
// transactions yields mid-flight while holding its opens — emulating the
// overlap a multiprocessor exhibits continuously. Reported: commits,
// aborts split by cause (ownership conflict at open vs validation failure
// at commit), and abort rate.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "stm/Stm.h"
#include "support/Random.h"
#include "txn/AbstractLockTable.h"

#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::bench;
using namespace otm::stm;

namespace {

constexpr unsigned NumThreads = 4;
const int TxPerThread = static_cast<int>(scaled(1500, 150));

struct Item : TxObject {
  Field<int64_t> Value;
};

/// One grid cell. When \p LabelPolicy the row label carries the active
/// contention manager (the CM-sweep rows); the main grid keeps the
/// pre-refactor label shape so runs stay comparable across revisions.
void runCell(unsigned WritePercent, unsigned HotSet, BenchReport &Report,
             bool LabelPolicy = false) {
  std::vector<std::unique_ptr<Item>> Pool;
  for (unsigned I = 0; I < HotSet; ++I)
    Pool.push_back(std::make_unique<Item>());

  StatsCapture Capture;
  double Seconds = runThreads(NumThreads, [&](unsigned T) {
    // Separate role and key streams (the E9/E10 pattern, via the shared
    // KeyDist): writer/yield decisions stay deterministic regardless of
    // how the key draws evolve.
    Xoshiro256 Role(8100 + T);
    KeyDist Keys = KeyDist::uniform(HotSet, 8150 + T);
    for (int I = 0; I < TxPerThread; ++I) {
      Item *A = Pool[Keys.next()].get();
      Item *B = Pool[Keys.next()].get();
      bool Writer = Role.nextPercent(WritePercent);
      Stm::atomic([&](TxManager &Tx) {
        if (Writer) {
          Tx.openForUpdate(A);
        } else {
          Tx.openForRead(A);
        }
        Tx.openForRead(B);
        // Emulate transaction overlap: occasionally yield while holding
        // the opens (every transaction yielding would serialize the whole
        // run on a single-core host).
        if (Role.nextPercent(10))
          std::this_thread::yield();
        // The values grow without bound over a long run: add modulo 2^64.
        uint64_t V = static_cast<uint64_t>(A->Value.load()) +
                     static_cast<uint64_t>(B->Value.load());
        if (Writer) {
          Tx.logUndo(&A->Value);
          A->Value.store(static_cast<int64_t>(V + 1));
        }
      });
    }
  });
  stm::TxStats S = Capture.finish();
  txn::CmStatsSnapshot Cm = txn::CmStats::instance().snapshot();
  const char *Policy = txn::policyName(Stm::config().ContentionPolicy);
  double Ktps = NumThreads * static_cast<double>(TxPerThread) / Seconds / 1e3;
  double AbortPct = S.Starts ? 100.0 * static_cast<double>(S.Aborts) /
                                   static_cast<double>(S.Starts)
                             : 0.0;
  std::printf("%-8s %7u%% %8u %10.1f %10llu %9llu %10llu %11llu %8.2f%%\n",
              Policy, WritePercent, HotSet, Ktps,
              static_cast<unsigned long long>(S.Commits),
              static_cast<unsigned long long>(S.Aborts),
              static_cast<unsigned long long>(S.AbortsOnConflict),
              static_cast<unsigned long long>(S.AbortsOnValidation),
              AbortPct);
  obs::JsonValue Run = obs::JsonValue::object();
  std::string Label = "writes=" + std::to_string(WritePercent) +
                      "%/objs=" + std::to_string(HotSet);
  if (LabelPolicy)
    Label = "cm=" + std::string(Policy) + "/" + Label;
  Run.set("label", Label);
  Run.set("cm", Policy);
  Run.set("ktx_per_sec", Ktps);
  Run.set("commits", S.Commits);
  Run.set("aborts", S.Aborts);
  Run.set("aborts_on_conflict", S.AbortsOnConflict);
  Run.set("aborts_on_validation", S.AbortsOnValidation);
  Run.set("abort_percent", AbortPct);
  // Commit-latency quantiles for THIS cell (TSC cycles, begin -> publish).
  Run.set("commit_p50_cycles", S.CommitTscCycles.percentile(50.0));
  Run.set("commit_p99_cycles", S.CommitTscCycles.percentile(99.0));
  Run.set("commit_p999_cycles", S.CommitTscCycles.percentile(99.9));
  // CM decisions for THIS cell (StatsCapture resets the aggregate per cell).
  Run.set("cm_conflict_waits", Cm.ConflictWaits);
  Run.set("cm_priority_aborts", Cm.PriorityAborts);
  Run.set("cm_fallback_entries", Cm.FallbackEntries);
  // Attribution for THIS cell: the next cell's StatsCapture resets it.
  Run.set("abort_sites", stm::abortSitesToJson(8));
  Report.addRun(std::move(Run));
}

#if OTM_BOOST
/// Boosted-mode cell: the same read-modify-write workload expressed with
/// abstract (pool, index) locks instead of structural opens (DESIGN.md
/// section 3.10). Both indices are locked semantically — exclusive to
/// commit — and the mutation happens on plain memory under a short base
/// mutex, with the inverse registered as an abort handler. Transactions
/// now conflict only when their index pairs overlap, so the abort columns
/// isolate true data conflicts from the structural machinery above.
void runBoostedCell(unsigned WritePercent, unsigned HotSet,
                    BenchReport &Report) {
  std::vector<int64_t> Pool(HotSet, 0);
  const uint64_t BoostId = txn::AbstractLockTable::nextContainerId();
  std::mutex BaseLock;

  StatsCapture Capture;
  double Seconds = runThreads(NumThreads, [&](unsigned T) {
    Xoshiro256 Role(8100 + T);
    KeyDist Keys = KeyDist::uniform(HotSet, 8150 + T);
    for (int I = 0; I < TxPerThread; ++I) {
      uint64_t A = Keys.next();
      uint64_t B = Keys.next();
      bool Writer = Role.nextPercent(WritePercent);
      Stm::atomic([&](TxManager &Tx) {
        Tx.boostAcquireKey(BoostId, A);
        if (B != A)
          Tx.boostAcquireKey(BoostId, B);
        // Same overlap emulation as the structural cells, while the
        // abstract locks (rather than opens) are held.
        if (Role.nextPercent(10))
          std::this_thread::yield();
        std::lock_guard<std::mutex> Guard(BaseLock);
        int64_t V = Pool[A] + Pool[B];
        if (Writer) {
          int64_t Old = Pool[A];
          Pool[A] = V + 1;
          Tx.onAbort([&Pool, &BaseLock, A, Old] {
            std::lock_guard<std::mutex> G(BaseLock);
            Pool[A] = Old;
          });
        }
      });
    }
  });
  stm::TxStats S = Capture.finish();
  double Ktps = NumThreads * static_cast<double>(TxPerThread) / Seconds / 1e3;
  double AbortPct = S.Starts ? 100.0 * static_cast<double>(S.Aborts) /
                                   static_cast<double>(S.Starts)
                             : 0.0;
  std::printf("%-8s %7u%% %8u %10.1f %10llu %9llu %10llu %11llu %8.2f%%\n",
              "boosted", WritePercent, HotSet, Ktps,
              static_cast<unsigned long long>(S.Commits),
              static_cast<unsigned long long>(S.Aborts),
              static_cast<unsigned long long>(S.AbortsOnConflict),
              static_cast<unsigned long long>(S.AbortsOnValidation),
              AbortPct);
  obs::JsonValue Run = obs::JsonValue::object();
  Run.set("label", "boosted/writes=" + std::to_string(WritePercent) +
                       "%/objs=" + std::to_string(HotSet));
  Run.set("mode", "boosted");
  Run.set("ktx_per_sec", Ktps);
  Run.set("commits", S.Commits);
  // Interleaving-dependent: semantic conflicts depend on which index pairs
  // actually overlap in time, so these stay off the count gate.
  Run.set("nd_aborts", S.Aborts);
  Run.set("nd_aborts_on_conflict", S.AbortsOnConflict);
  Run.set("nd_boost_lock_acquires", S.BoostLockAcquires);
  Run.set("nd_boost_lock_waits", S.BoostLockWaits);
  Run.set("nd_boost_undo_ops", S.BoostUndoOps);
  Run.set("abort_percent", AbortPct);
  Report.addRun(std::move(Run));
}
#endif // OTM_BOOST

} // namespace

int main() {
  // E12 owns the hardware A/B; pinning the HTM budget to zero keeps this
  // binary's gated counts identical across RTM and no-RTM machines.
  otm::stm::TxManager::config().HtmAttempts = 0;
  BenchReport Report("e7_contention", "E7");
  std::printf("E7: aborts vs write ratio and hot-set size (%u threads, "
              "read-modify-write transactions)\n", NumThreads);
  printHeaderRule();
  std::printf("%-8s %8s %8s %10s %10s %9s %10s %11s %9s\n", "cm", "writes",
              "objs", "Ktx/s", "commits", "aborts", "conflict", "validation",
              "abort%");
  printHeaderRule();
  // Main grid under the configured default policy (backoff unless OTM_CM
  // overrides) — labels unchanged from pre-txn-layer runs for comparability.
  for (unsigned WritePercent : {0u, 10u, 50u, 100u})
    for (unsigned HotSet : {4u, 64u, 4096u})
      runCell(WritePercent, HotSet, Report);
  // Contention-manager sweep on the two most contended cells: every policy,
  // so the JSON carries per-policy rows (cm=<policy>/writes=…/objs=…).
  printHeaderRule();
  std::printf("contention-manager sweep (contended cells)\n");
  printHeaderRule();
  txn::CmPolicy Saved = Stm::config().ContentionPolicy;
  for (txn::CmPolicy P :
       {txn::CmPolicy::Passive, txn::CmPolicy::Backoff, txn::CmPolicy::Karma,
        txn::CmPolicy::TimestampGreedy}) {
    Stm::config().ContentionPolicy = P;
    runCell(100, 4, Report, /*LabelPolicy=*/true);
    runCell(50, 64, Report, /*LabelPolicy=*/true);
  }
  Stm::config().ContentionPolicy = Saved;
  // Boosted-mode sweep: the same grid under semantic (abstract-lock)
  // conflict detection — rows labelled boosted/writes=…/objs=….
  printHeaderRule();
#if OTM_BOOST
  std::printf("boosted-mode sweep (semantic conflicts, abstract key locks)\n");
  printHeaderRule();
  for (unsigned WritePercent : {0u, 10u, 50u, 100u})
    for (unsigned HotSet : {4u, 64u, 4096u})
      runBoostedCell(WritePercent, HotSet, Report);
#else
  std::printf("boosted-mode sweep skipped: built with OTM_BOOST=0\n");
#endif
  printHeaderRule();
  std::printf("expected shape: abort rate rises with write ratio and falls "
              "with pool size; eager ownership makes open-time conflicts "
              "the dominant cause, with commit-time validation failures "
              "from racing readers. In the CM sweep, karma/greedy convert "
              "some timeout aborts into priority aborts; passive aborts "
              "earliest. Boosted rows abort only on overlapping index "
              "pairs, so their rate tracks the birthday bound of the pool "
              "size instead of the structural footprint.\n");
  Report.write();
  return 0;
}
