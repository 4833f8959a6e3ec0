//===- stm/TxManager.cpp - Decomposed direct-access STM ------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "stm/TxManager.h"

#include "gc/EpochManager.h"
#include "obs/AbortSites.h"
#include "obs/Telemetry.h"
#include "stm/HashFilter.h"
#include "stm/StatsJson.h"
#include "txn/CmStats.h"

#include <thread>

using namespace otm;
using namespace otm::stm;

namespace {

/// Thread-local holder. TxManager instances are intentionally leaked: a
/// zombie transaction on another thread may still dereference an
/// UpdateEntry inside this manager's update log an instant after the owner
/// released it, so the log storage must outlive the thread.
struct TlsHolder {
  TxManager *Manager = nullptr;
  ~TlsHolder();
};

} // namespace

constinit thread_local TxManager *otm::stm::detail::CurrentTxPtr = nullptr;

TxManager &TxManager::currentSlow() {
  static thread_local TlsHolder Holder;
  Holder.Manager = new TxManager();
  Holder.Manager->Obs.attachThread();
  detail::CurrentTxPtr = Holder.Manager;
  return *Holder.Manager;
}

TlsHolder::~TlsHolder() {
  if (Manager)
    Manager->flushStats();
}

bool TxManager::validateEntry(const ReadEntry &Entry) const {
  WordValue Cur = Entry.Obj->Word.load(std::memory_order_acquire);
  if (Cur == Entry.Seen)
    return !isOwned(Cur); // seen words are always unowned versions
  if (isOwned(Cur)) {
    // We may have upgraded the object to update ownership after reading it;
    // that is consistent iff nobody committed in between.
    const UpdateEntry *Owner = ownerEntry(Cur);
    return Owner->owner() == this && Owner->PrevWord == Entry.Seen;
  }
  return false;
}

bool TxManager::validate() {
  assert(inTx() && "validate outside a transaction");
#if OTM_HTM
  if (OTM_UNLIKELY(HtmMode))
    return true; // the speculation hardware keeps the read set coherent
#endif
  // Walk the raw chunk arrays (no per-index arithmetic) and prefetch the
  // next entry's STM word one step ahead: the words live in the objects,
  // not the log, so a large read set takes a dependent cache miss per
  // entry that the prefetch overlaps with the current compare.
  bool Ok = true;
  obs::PhaseScope Ph(Obs.Sampling, &Stats.PhaseValidateCycles);
  ReadLog.forEachChunkArray([&](ReadEntry *Data, std::size_t N) {
    if (!Ok)
      return;
    for (std::size_t I = 0; I != N; ++I) {
      if (OTM_LIKELY(I + 1 != N))
        OTM_PREFETCH(&Data[I + 1].Obj->Word);
      if (OTM_UNLIKELY(!validateEntry(Data[I]))) {
        Ok = false;
        return;
      }
    }
  });
  return Ok;
}

void TxManager::releaseOwnershipForCommit(uint64_t CommitStamp) {
#if OTM_MVCC
  // Every object this commit wrote gets the same global stamp: snapshot
  // readers compare it against their begin-time clock value, and stamps
  // are unique and monotone so validation's word compare stays exact.
  const WordValue NewWord = makeVersion(CommitStamp);
  UpdateLog.forEach([NewWord](UpdateEntry &Entry) {
    Entry.Obj->Word.store(NewWord, std::memory_order_release);
  });
#else
  (void)CommitStamp;
  UpdateLog.forEach([](UpdateEntry &Entry) {
    WordValue NewWord = makeVersion(versionOf(Entry.PrevWord) + 1);
    Entry.Obj->Word.store(NewWord, std::memory_order_release);
  });
#endif
}

void TxManager::releaseOwnershipForAbort() {
  // Releasing with the pre-ownership word restored would be an ABA trap: a
  // transaction that read a field between our in-place store and this
  // rollback has a dirty value, but its read-log entry would still match
  // the word and validate — it could commit state that never existed
  // (observed as an extra increment under preemption-heavy scheduling).
  // Instead an abort releases like an *identity commit* of the restored
  // values: the word moves to a fresh version, so every concurrent read
  // enlisted against the old word — and every upgrade whose PrevWord is
  // the old word — fails validation and retries.
  if (UpdateLog.empty())
    return;
  if (UndoLog.empty()) {
    // Ownership was acquired but nothing was stored in place, so no dirty
    // value can have escaped: restoring the old word is exact.
    UpdateLog.forEach([](UpdateEntry &Entry) {
      Entry.Obj->Word.store(Entry.PrevWord, std::memory_order_release);
    });
    return;
  }
#if OTM_MVCC
  // The pseudo-commit draws from the same clock as real commits (stamps
  // stay unique and monotone) and installs the same version-chain node:
  // the undo log's pre-images are exactly the values this rollback just
  // restored, so snapshot readers resolve through it instead of being
  // pushed to a refresh by a stamp they cannot find on the chain.
  const uint64_t AbortStamp =
      1 + mv::commitClock().fetch_add(1, std::memory_order_acq_rel);
  if (OTM_LIKELY(ActiveConfig.MvVersions > 0))
    installVersions(AbortStamp);
  const WordValue NewWord = makeVersion(AbortStamp);
  UpdateLog.forEach([NewWord](UpdateEntry &Entry) {
    Entry.Obj->Word.store(NewWord, std::memory_order_release);
  });
#else
  UpdateLog.forEach([](UpdateEntry &Entry) {
    WordValue NewWord = makeVersion(versionOf(Entry.PrevWord) + 1);
    Entry.Obj->Word.store(NewWord, std::memory_order_release);
  });
#endif
}

bool TxManager::tryCommit() {
  assert(inTx() && "tryCommit outside a transaction");
  if (Depth > 1) {
    --Depth; // nested commit: the outermost decides
    return true;
  }

#if OTM_MVCC
  if (OTM_UNLIKELY(SnapshotMode))
    return snapshotCommit();
#endif

  if (OTM_UNLIKELY(!validate())) {
    ++Stats.AbortsOnValidation;
    recordValidationFailureSite();
    rollbackAttempt(AbortTx::Cause::Validation);
    return false;
  }

  // Serialization point. Publish new versions; owned objects were
  // exclusively ours, so each release makes one update atomically visible.
  // Read-only transactions skip the (out-of-line) release walk entirely.
  if (!UpdateLog.empty()) {
    obs::PhaseScope Ph(Obs.Sampling, &Stats.PhaseWriteBackCycles);
#if OTM_MVCC
    // Take the commit stamp only now: validation has succeeded and nothing
    // can abort this transaction anymore, so every stamp the clock hands
    // out is eventually published and snapshot stamps never wait on holes.
    const uint64_t CommitStamp =
        1 + mv::commitClock().fetch_add(1, std::memory_order_acq_rel);
    if (OTM_LIKELY(ActiveConfig.MvVersions > 0))
      installVersions(CommitStamp);
    releaseOwnershipForCommit(CommitStamp);
#else
    releaseOwnershipForCommit(0);
#endif
  }
  ++Stats.Commits;
#if OTM_MVCC
  ForceWriter = false; // the transaction is done; drop the upgrade latch
  ReadOnlyHint = false;
#endif
  Obs.onCommit(0, Stats.CommitTscCycles, Stats.RetriesPerCommit);

  // Deferred frees take effect only now that the deletion is committed;
  // epoch-based retirement protects concurrent zombies still holding refs.
  if (OTM_UNLIKELY(!AllocLog.empty()))
    AllocLog.forEach([](AllocEntry &Entry) {
      if (Entry.FreeOnCommit)
        gc::EpochManager::global().retire(Entry.Raw, Entry.Destroy);
    });
#if OTM_BOOST
  if (OTM_UNLIKELY(!boostStateEmpty()))
    commitBoostState();
#endif
  finishAttempt();
  return true;
}

static uint16_t auxCauseFor(AbortTx::Cause Why) {
  switch (Why) {
  case AbortTx::Cause::Conflict:
    return obs::AuxCauseConflict;
  case AbortTx::Cause::Validation:
    return obs::AuxCauseValidation;
  case AbortTx::Cause::User:
    return obs::AuxCauseUser;
  case AbortTx::Cause::SnapshotUpgrade:
    return obs::AuxCauseSnapshotUpgrade;
  case AbortTx::Cause::SnapshotRefresh:
    return obs::AuxCauseSnapshotRefresh;
  }
  return obs::AuxCauseConflict;
}

void TxManager::rollbackAttempt(AbortTx::Cause Why) {
  assert(inTx() && "rollbackAttempt outside a transaction");
  // Undo in reverse so multiply-written locations get their oldest value
  // back (only relevant when undo filtering is off and duplicates exist).
  // Snapshot attempts have nothing enlisted, so these walks are no-ops.
  UndoLog.forEachReverse(
      [](UndoEntry &Entry) { Entry.Restore(Entry.Addr, Entry.Bits); });
  // Only after every old value is back in place may others see the object.
  releaseOwnershipForAbort();
  // Objects allocated by this attempt are garbage; retire via the epoch
  // reclaimer because a concurrent zombie may still hold a reference that
  // escaped through one of our (now undone) in-place stores.
  AllocLog.forEach([](AllocEntry &Entry) {
    if (!Entry.FreeOnCommit)
      gc::EpochManager::global().retire(Entry.Raw, Entry.Destroy);
  });
#if OTM_BOOST
  // Semantic undo: run the abort handlers (newest first) while the abstract
  // locks are still held, then drop the locks. The structural gate's drain
  // counts a held key lock until this releases it, so a whole-container
  // operation can never observe a half-undone container.
  if (OTM_UNLIKELY(!boostStateEmpty()))
    abortBoostState();
#endif
  // Snapshot upgrades/refreshes are restarts of a transaction that cannot
  // lose to anyone — keeping them out of Aborts preserves the never-abort
  // accounting the read-only path advertises.
  const bool SnapshotRestart = Why == AbortTx::Cause::SnapshotUpgrade ||
                               Why == AbortTx::Cause::SnapshotRefresh;
  if (!SnapshotRestart)
    ++Stats.Aborts;
#if OTM_MVCC
  if (Why == AbortTx::Cause::User) {
    ForceWriter = false; // final outcome: drop the per-transaction latches
    ReadOnlyHint = false;
  }
#endif
  Obs.onAbort(auxCauseFor(Why), 0);
  finishAttempt();
}

WordValue TxManager::waitForUnowned(TxObject *Obj) {
  // Arbitration is delegated to the configured contention manager: one
  // decision per wait round (a round is ~32 pause iterations plus a yield,
  // so the backoff policy's budget matches the old ConflictSpins loop).
  const txn::ContentionManager &CM =
      txn::managerFor(ActiveConfig.ContentionPolicy);
  constexpr unsigned RoundSpins = 32;
  const unsigned BudgetRounds =
      (ActiveConfig.ConflictSpins + RoundSpins - 1) / RoundSpins;
  WordValue W = Obj->Word.load(std::memory_order_acquire);
  // CmWait nests inside the Open scope of the barrier that called us, so
  // PhaseOpenCycles already contains this time; the separate histogram
  // isolates how much of the open barrier was arbitration.
  obs::PhaseScope Ph(Obs.Sampling, &Stats.PhaseCmWaitCycles);
  for (unsigned Round = 0;; ++Round) {
    if (!isOwned(W))
      return W;
    txn::ConflictChoice Choice = CM.onConflict(
        CmState, ownerEntry(W)->owner()->CmState, Round, BudgetRounds);
    if (Choice == txn::ConflictChoice::Wait) {
      if (Round == 0)
        txn::CmStats::instance().bumpConflictWaits();
      for (unsigned Spin = 0; Spin < RoundSpins - 1; ++Spin)
        cpuRelax();
      std::this_thread::yield(); // crucial on oversubscribed machines
      W = Obj->Word.load(std::memory_order_acquire);
      continue;
    }
    if (Choice == txn::ConflictChoice::AbortSelfPriority)
      txn::CmStats::instance().bumpPriorityAborts();
    break;
  }
  ++Stats.AbortsOnConflict;
  // Attribute the conflict to whoever owns the object right now (the owner
  // may have released it since the last spin; then the site is unknown).
  W = Obj->Word.load(std::memory_order_acquire);
  obs::AbortSites::instance().record(
      Obj, obs::AbortCause::Conflict,
      isOwned(W) ? ownerEntry(W)->owner()->siteId() : 0, siteId());
  abortAndThrow(AbortTx::Cause::Conflict);
}

#if OTM_BOOST

void TxManager::boostAcquireKey(uint64_t ContainerId, uint64_t Key) {
  assert(inTx() && "boostAcquireKey outside a transaction");
#if OTM_HTM
  // Abstract locks outlive the attempt (released at commit/abort time by
  // the deferred-action machinery) — that protocol cannot run inside a
  // hardware region. Boosted operations always take the software tier.
  if (OTM_UNLIKELY(HtmMode))
    txn::htm::abortWith<txn::htm::CodeUnsupported>();
#endif
#if OTM_MVCC
  if (OTM_UNLIKELY(SnapshotMode))
    upgradeToWriter(); // boosted ops mutate in place: not read-only
#endif
  txn::AbstractLockTable &Table = txn::AbstractLockTable::instance();
  txn::AbstractLockTable::Slot &S = Table.slotFor(ContainerId, Key);
  txn::AbstractLockTable::Gate &G = Table.gateFor(ContainerId);
  // Holding the whole container (structural fallback earlier in this
  // transaction) subsumes every key lock under its gate: the drain that
  // admitted us proved no foreign key lock exists, and newcomers back off
  // on the gate before reaching any slot.
  if (G.Structural.load(std::memory_order_acquire) == &CmState)
    return;
  const txn::ContentionManager &CM =
      txn::managerFor(ActiveConfig.ContentionPolicy);
  constexpr unsigned RoundSpins = 32;
  const unsigned BudgetRounds =
      (ActiveConfig.ConflictSpins + RoundSpins - 1) / RoundSpins;
  obs::PhaseScope Ph(Obs.Sampling, &Stats.PhaseCmWaitCycles);
  bool CountedWait = false;
  for (unsigned Round = 0;;) {
    txn::CmTxState *Blocker = nullptr;
    // Dekker handshake with the structural side: claim ActiveSemantic
    // first, then recheck the gate (the structural claimant stores its
    // owner first, then reads ActiveSemantic; both sides seq_cst).
    txn::CmTxState *Structural = G.Structural.load(std::memory_order_seq_cst);
    if (Structural && Structural != &CmState) {
      Blocker = Structural;
    } else {
      G.ActiveSemantic.fetch_add(1, std::memory_order_seq_cst);
      Structural = G.Structural.load(std::memory_order_seq_cst);
      if (Structural && Structural != &CmState) {
        G.ActiveSemantic.fetch_sub(1, std::memory_order_seq_cst);
        Blocker = Structural;
      } else {
        txn::CmTxState *Owner = nullptr;
        switch (Table.tryAcquire(S, &CmState, Owner)) {
        case txn::AbstractLockTable::Acquire::Acquired:
          // The ActiveSemantic claim transfers to the held lock; it drops
          // when release() runs at commit/abort.
          BoostLocks.emplaceBack(
              txn::AbstractLockTable::LockRef{&S, &G, false});
          ++Stats.BoostLockAcquires;
          return;
        case txn::AbstractLockTable::Acquire::AlreadyHeld:
          G.ActiveSemantic.fetch_sub(1, std::memory_order_seq_cst);
          return; // idempotent re-acquire (same key, or a slot collision)
        case txn::AbstractLockTable::Acquire::Busy:
          G.ActiveSemantic.fetch_sub(1, std::memory_order_seq_cst);
          Blocker = Owner;
          break;
        }
      }
    }
    // A semantic conflict is arbitrated exactly like a structural ownership
    // conflict: same managers, same round budget, same wait shape.
    if (!CountedWait) {
      txn::CmStats::instance().bumpSemanticWaits();
      ++Stats.BoostLockWaits;
      CountedWait = true;
    }
    txn::ConflictChoice Choice =
        CM.onConflict(CmState, *Blocker, Round, BudgetRounds);
    if (Choice == txn::ConflictChoice::Wait) {
      for (unsigned Spin = 0; Spin < RoundSpins - 1; ++Spin)
        cpuRelax();
      std::this_thread::yield();
      ++Round;
      continue;
    }
    if (Choice == txn::ConflictChoice::AbortSelfPriority)
      txn::CmStats::instance().bumpSemanticPriorityAborts();
    ++Stats.AbortsOnConflict;
    // Attribute to the slot address: abstract locks have no TxObject, but
    // the site table only needs a stable key for the contended resource.
    obs::AbortSites::instance().record(&S, obs::AbortCause::Conflict, 0,
                                       siteId());
    abortAndThrow(AbortTx::Cause::Conflict);
  }
}

void TxManager::boostAcquireStructural(uint64_t ContainerId) {
  assert(inTx() && "boostAcquireStructural outside a transaction");
#if OTM_HTM
  if (OTM_UNLIKELY(HtmMode)) // same rule as boostAcquireKey
    txn::htm::abortWith<txn::htm::CodeUnsupported>();
#endif
#if OTM_MVCC
  if (OTM_UNLIKELY(SnapshotMode))
    upgradeToWriter();
#endif
  txn::AbstractLockTable &Table = txn::AbstractLockTable::instance();
  txn::AbstractLockTable::Gate &G = Table.gateFor(ContainerId);
  if (G.Structural.load(std::memory_order_acquire) == &CmState)
    return; // reentrant within the transaction
  ++Stats.BoostStructuralFallbacks;
  const txn::ContentionManager &CM =
      txn::managerFor(ActiveConfig.ContentionPolicy);
  constexpr unsigned RoundSpins = 32;
  const unsigned BudgetRounds =
      (ActiveConfig.ConflictSpins + RoundSpins - 1) / RoundSpins;
  obs::PhaseScope Ph(Obs.Sampling, &Stats.PhaseCmWaitCycles);
  // Phase 1: claim the gate, arbitrating against a rival structural owner.
  bool CountedWait = false;
  for (unsigned Round = 0;;) {
    txn::CmTxState *Owner = nullptr;
    if (Table.tryClaimStructural(G, &CmState, Owner))
      break;
    if (!CountedWait) {
      txn::CmStats::instance().bumpSemanticWaits();
      ++Stats.BoostLockWaits;
      CountedWait = true;
    }
    txn::ConflictChoice Choice =
        CM.onConflict(CmState, *Owner, Round, BudgetRounds);
    if (Choice == txn::ConflictChoice::Wait) {
      for (unsigned Spin = 0; Spin < RoundSpins - 1; ++Spin)
        cpuRelax();
      std::this_thread::yield();
      ++Round;
      continue;
    }
    if (Choice == txn::ConflictChoice::AbortSelfPriority)
      txn::CmStats::instance().bumpSemanticPriorityAborts();
    ++Stats.AbortsOnConflict;
    obs::AbortSites::instance().record(&G, obs::AbortCause::Conflict, 0,
                                       siteId());
    abortAndThrow(AbortTx::Cause::Conflict);
  }
  // Record the gate *before* draining: if the drain aborts us, rollback
  // releases the claim through the ordinary lock-release walk.
  BoostLocks.emplaceBack(txn::AbstractLockTable::LockRef{nullptr, &G, true});
  // Phase 2: wait out foreign key locks under this gate. Our own are part
  // of ActiveSemantic too, so drain down to that self-contribution. The
  // wait is bounded: key holders release at commit/abort, but an older
  // holder may itself be waiting on a resource we hold elsewhere — there is
  // no single owner to arbitrate with, so past the budget we abort
  // unconditionally rather than risk a cycle.
  uint32_t SelfHeld = 0;
  BoostLocks.forEach([&](txn::AbstractLockTable::LockRef &R) {
    if (!R.Structural && R.G == &G)
      ++SelfHeld;
  });
  for (unsigned Round = 0;;) {
    if (G.ActiveSemantic.load(std::memory_order_seq_cst) <= SelfHeld)
      return;
    if (Round >= BudgetRounds) {
      ++Stats.AbortsOnConflict;
      obs::AbortSites::instance().record(&G, obs::AbortCause::Conflict, 0,
                                         siteId());
      abortAndThrow(AbortTx::Cause::Conflict);
    }
    for (unsigned Spin = 0; Spin < RoundSpins - 1; ++Spin)
      cpuRelax();
    std::this_thread::yield();
    ++Round;
  }
}

void TxManager::releaseBoostLocks() {
  if (BoostLocks.empty())
    return;
  txn::AbstractLockTable &Table = txn::AbstractLockTable::instance();
  BoostLocks.forEachReverse([&](txn::AbstractLockTable::LockRef &R) {
    Table.release(R, &CmState);
  });
  BoostLocks.clear();
}

void TxManager::commitBoostState() {
  if (!CommitActions.empty()) {
    RunningDeferred = true;
    CommitActions.forEach([&](DeferredAction &A) {
      A.Invoke(A.Payload);
      A.Dispose(A.Payload);
      ++Stats.BoostCommitOps;
    });
    RunningDeferred = false;
    CommitActions.clear();
  }
  if (!AbortActions.empty()) {
    AbortActions.forEach([](DeferredAction &A) { A.Dispose(A.Payload); });
    AbortActions.clear();
  }
  releaseBoostLocks();
}

void TxManager::abortBoostState() {
  if (!AbortActions.empty()) {
    RunningDeferred = true;
    AbortActions.forEachReverse([&](DeferredAction &A) {
      A.Invoke(A.Payload);
      A.Dispose(A.Payload);
      ++Stats.BoostUndoOps;
    });
    RunningDeferred = false;
    AbortActions.clear();
  }
  if (!CommitActions.empty()) {
    CommitActions.forEach([](DeferredAction &A) { A.Dispose(A.Payload); });
    CommitActions.clear();
  }
  releaseBoostLocks();
}

#endif // OTM_BOOST

void TxManager::recordValidationFailureSite() {
  for (std::size_t I = 0, E = ReadLog.size(); I != E; ++I) {
    const ReadEntry &Entry = ReadLog[I];
    if (OTM_LIKELY(validateEntry(Entry)))
      continue;
    WordValue Cur = Entry.Obj->Word.load(std::memory_order_acquire);
    obs::AbortSites::instance().record(
        Entry.Obj, obs::AbortCause::Validation,
        isOwned(Cur) ? ownerEntry(Cur)->owner()->siteId() : 0, siteId());
    return; // first invalid entry is the one that doomed the attempt
  }
}

void TxManager::abortAndThrow(AbortTx::Cause Why) {
  // Unwind first (user destructors run), then Stm::atomic's catch block
  // calls rollbackAttempt.
  throw AbortTx{Why};
}

void TxManager::userAbort() {
#if OTM_HTM
  // Inside a hardware region there is nothing to unwind in software: the
  // explicit abort rolls everything back and hands the executor the User
  // code, which accounts the abort (htmNoteUserAbort) and does not retry.
  if (OTM_UNLIKELY(HtmMode))
    txn::htm::abortWith<txn::htm::CodeUser>();
#endif
  ++Stats.AbortsByUser;
  abortAndThrow(AbortTx::Cause::User);
}

#if OTM_MVCC

namespace {
/// MvRecord/MvNode blocks come from the transaction pool; retirement frees
/// them raw (both types are trivially destructible).
void freePoolBlock(void *P) { support::TxPool::deallocate(P); }
} // namespace

void TxManager::installVersions(uint64_t CommitStamp) {
  assert(!UpdateLog.empty() && "nothing to version");
  const std::size_t NumFields = UndoLog.size();
  // One shared record per commit carries the whole undo log (the
  // pre-images); one node per written object links it into that object's
  // chain. Within the record, fields keep undo-log order, so the first
  // match for an address is the oldest pre-image even when undo filtering
  // is off and duplicates exist.
  auto *Rec = static_cast<mv::MvRecord *>(support::TxPool::allocate(
      sizeof(mv::MvRecord) + NumFields * sizeof(mv::MvField)));
  Rec->NewStamp = CommitStamp;
  Rec->ChainRefs.store(static_cast<uint32_t>(UpdateLog.size()),
                       std::memory_order_relaxed);
  Rec->NumFields = static_cast<uint32_t>(NumFields);
  std::size_t I = 0;
  UndoLog.forEach([&](UndoEntry &Entry) {
    Rec->fields()[I++] = {Entry.Addr, Entry.Bits};
  });

  const unsigned K = ActiveConfig.MvVersions;
  UpdateLog.forEach([&](UpdateEntry &Entry) {
    TxObject *Obj = Entry.Obj;
    auto *Node =
        static_cast<mv::MvNode *>(support::TxPool::allocate(sizeof(mv::MvNode)));
    Node->Rec = Rec;
    // We hold update ownership of Obj, so its chain head is ours alone to
    // write; readers get the node (and the record behind it) through the
    // release store below.
    Node->Older.store(Obj->Hist.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    Node->PrevStamp = versionOf(Entry.PrevWord);
    Obj->Hist.store(Node, std::memory_order_release);
    ++Stats.MvVersionsInstalled;

    // Truncate the chain to K nodes. Readers paused inside the cut tail
    // stay safe: the nodes (and the records they reference) are retired
    // through the epoch reclaimer, which waits out every active pin.
    unsigned Depth = 1;
    mv::MvNode *Last = Node;
    while (Depth < K) {
      mv::MvNode *Older = Last->Older.load(std::memory_order_relaxed);
      if (!Older)
        break;
      Last = Older;
      ++Depth;
    }
    if (Depth == K) {
      mv::MvNode *Cut = Last->Older.load(std::memory_order_relaxed);
      if (Cut) {
        Last->Older.store(nullptr, std::memory_order_relaxed);
        do {
          mv::MvNode *Next = Cut->Older.load(std::memory_order_relaxed);
          if (Cut->Rec->ChainRefs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            gc::EpochManager::global().retire(Cut->Rec, freePoolBlock);
          gc::EpochManager::global().retire(Cut, freePoolBlock);
          ++Stats.MvVersionsRetired;
          Cut = Next;
        } while (Cut);
      }
    }
    if (OTM_UNLIKELY(Obs.Sampling))
      Stats.MvChainDepth.record(Depth);
  });
}

bool TxManager::snapshotCommit() {
  // The snapshot was consistent by construction, so there is nothing to
  // validate, publish, or release — this is the entire commit.
  assert(ReadLog.empty() && UpdateLog.empty() && UndoLog.empty() &&
         AllocLog.empty() && "snapshot attempt enlisted state");
  ++Stats.Commits;
  ++Stats.SnapshotCommits;
  ForceWriter = false;
  ReadOnlyHint = false;
  Obs.onCommit(0, Stats.CommitTscCycles, Stats.RetriesPerCommit);
  finishAttempt();
  return true;
}

TxManager::SnapshotResolve
TxManager::snapshotResolve(TxObject *Obj, const void *Addr, WordValue W,
                           uint64_t &Bits) const {
  const uint64_t T = SnapshotStamp;
  mv::MvNode *Node = Obj->Hist.load(std::memory_order_acquire);
  if (!isOwned(W)) {
    // The committed value is newer than our stamp. The chain must account
    // for that commit; a mismatched head means it committed without
    // maintaining the chain (MvVersions was toggled off mid-run) and the
    // pre-image never existed — only a fresh stamp can make progress.
    if (!Node || Node->Rec->NewStamp != versionOf(W))
      return SnapshotResolve::Refresh;
  } else if (!Node) {
    // First-ever writer of this object is in flight; its rollback-or-commit
    // resolves the word and the fast path takes over.
    return SnapshotResolve::Wait;
  }
  bool Found = false;
  bool Covered = false;
  while (Node) {
    const mv::MvRecord *Rec = Node->Rec;
    if (Rec->NewStamp <= T) {
      Covered = true; // the rest of the chain is at or below the snapshot
      break;
    }
    // This commit is above the snapshot: whatever it overwrote is closer
    // to the snapshot state than the in-place value. Keep overwriting as
    // the walk ages so the *oldest* qualifying pre-image wins.
    for (uint32_t F = 0; F < Rec->NumFields; ++F) {
      if (Rec->fields()[F].Addr == Addr) {
        Bits = Rec->fields()[F].Bits;
        Found = true;
        break; // first match within a record = that commit's oldest value
      }
    }
    if (Node->PrevStamp <= T) {
      Covered = true; // the object's pre-commit state was already visible
      break;
    }
    mv::MvNode *Older = Node->Older.load(std::memory_order_acquire);
    // Contiguity check: a gap (older node missing or stamped differently
    // than this node's predecessor) means an unmaintained commit hides in
    // between; its pre-images are lost, so refresh rather than guess.
    if (Older && Older->Rec->NewStamp != Node->PrevStamp)
      return SnapshotResolve::Refresh;
    Node = Older;
  }
  // Without coverage the walk never reached a state at or below the
  // snapshot: the chain was truncated above it, and any pre-image found on
  // the way down still reflects a commit newer than the snapshot. Only a
  // fresh stamp can make progress.
  if (!Covered)
    return SnapshotResolve::Refresh;
  if (Found)
    return SnapshotResolve::Hit;
  // Every commit above the snapshot left this field alone; the in-place
  // value is the snapshot value — once no writer is mid-flight on it.
  return isOwned(W) ? SnapshotResolve::Wait : SnapshotResolve::InPlace;
}

void TxManager::snapshotWait(TxObject *Obj) {
  ++Stats.SnapshotWaits;
  unsigned Spin = 0;
  while (isOwned(Obj->Word.load(std::memory_order_acquire))) {
    if (++Spin % 64 == 0)
      std::this_thread::yield();
    else
      cpuRelax();
  }
}

void TxManager::upgradeToWriter() {
  ++Stats.SnapshotUpgrades;
  ForceWriter = true; // every further attempt of this transaction is a writer
  abortAndThrow(AbortTx::Cause::SnapshotUpgrade);
}

void TxManager::refreshSnapshot() {
  ++Stats.SnapshotRefreshes;
  abortAndThrow(AbortTx::Cause::SnapshotRefresh);
}

void TxObject::releaseHistory() noexcept {
  // Runs from the destructor: any reader that could have reached this chain
  // head was waited out by the epoch grace period that preceded the delete
  // (shared objects die via retireOnCommit), so the nodes are unreachable
  // and freed directly. Records may still be referenced by *other* objects'
  // chains and readers thereof — drop our reference and epoch-retire on
  // zero.
  mv::MvNode *Node = Hist.load(std::memory_order_relaxed);
  Hist.store(nullptr, std::memory_order_relaxed);
  while (Node) {
    mv::MvNode *Older = Node->Older.load(std::memory_order_relaxed);
    if (Node->Rec->ChainRefs.fetch_sub(1, std::memory_order_acq_rel) == 1)
      gc::EpochManager::global().retire(Node->Rec, freePoolBlock);
    support::TxPool::deallocate(Node);
    Node = Older;
  }
}

#endif // OTM_MVCC

void TxManager::flushStats() {
  GlobalTxStats::instance().add(Stats);
  Stats.reset();
}

std::pair<std::size_t, std::size_t> TxManager::compactLogsForGc() {
  assert(inTx() && "compactLogsForGc outside a transaction");
  // Deduplicate the read log by object, keeping the first enlistment (if a
  // later duplicate saw a different word the transaction is doomed anyway
  // and validation will catch it).
  HashFilter Seen;
  std::size_t ReadsRemoved = ReadLog.removeIf([&](const ReadEntry &Entry) {
    return !Seen.insert(reinterpret_cast<uintptr_t>(Entry.Obj));
  });
  // Deduplicate the undo log by address, keeping the first (oldest) value:
  // replaying it restores the pre-transaction state.
  Seen.clear();
  std::size_t UndosRemoved = UndoLog.removeIf([&](const UndoEntry &Entry) {
    return !Seen.insert(reinterpret_cast<uintptr_t>(Entry.Addr));
  });
  return {ReadsRemoved, UndosRemoved};
}

#if OTM_OBS_ENABLE
namespace {

/// Registers the stm-side telemetry sources during static initialization.
/// obs cannot depend on stm, so the conversion from GlobalTxStats/CmStats
/// into JsonValue trees lives here; the sampler only sees named callbacks.
/// All sources read process-lifetime aggregates with relaxed snapshots, so
/// they are safe from the sampler thread at any point in the run.
struct StmTelemetrySources {
  StmTelemetrySources() {
    using obs::JsonValue;
    obs::Telemetry &T = obs::Telemetry::instance();
    T.registerSource("stm", [] {
      TxStats S = GlobalTxStats::instance().snapshot();
      JsonValue V = JsonValue::object();
      S.forEachCounter(
          [&](const char *Name, uint64_t Value) { V.set(Name, Value); });
      // Doubles are reported in totals only; the delta pass skips them
      // (quantiles of a cumulative histogram are not a rate).
      JsonValue Commit = JsonValue::object();
      Commit.set("count", S.CommitTscCycles.count());
      Commit.set("p50_cycles", S.CommitTscCycles.percentile(50.0));
      Commit.set("p99_cycles", S.CommitTscCycles.percentile(99.0));
      Commit.set("p999_cycles", S.CommitTscCycles.percentile(99.9));
      V.set("commit_latency", std::move(Commit));
      return V;
    });
    T.registerSource("txn_cm", [] {
      return txn::cmStatsToJson(txn::CmStats::instance().snapshot());
    });
    T.registerSource("abort_sites", [] {
      const obs::AbortSites &A = obs::AbortSites::instance();
      JsonValue V = JsonValue::object();
      V.set("dropped", A.dropped());
      V.set("edges_dropped", A.edgesDropped());
      V.set("sites_used", static_cast<uint64_t>(A.siteOccupancy()));
      V.set("edges_used", static_cast<uint64_t>(A.edgeOccupancy()));
      return V;
    });
    T.registerSource("phases", [] {
      return phaseBreakdownToJson(GlobalTxStats::instance().snapshot());
    });
    T.registerSource("mvcc", [] {
      return mvccStatsToJson(GlobalTxStats::instance().snapshot());
    });
    T.registerSource("boost", [] {
      return boostStatsToJson(GlobalTxStats::instance().snapshot());
    });
    T.registerSource("htm", [] {
      return htmStatsToJson(GlobalTxStats::instance().snapshot(),
                            txn::CmStats::instance().snapshot());
    });
  }
} RegisterStmSources;

} // namespace
#endif // OTM_OBS_ENABLE
