//===- tests/StmConcurrencyTest.cpp - Multi-threaded STM tests -----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrency properties of the direct-update STM: lost-update freedom,
/// invariant preservation across committed transactions (serializability
/// witnesses), conflict-abort-retry progress, and mixed reader/writer
/// stress. The host may be single-core; the OS scheduler still interleaves
/// transactions preemptively, which is exactly the hostile case for a
/// direct-update STM (ownership held across preemption).
///
//===----------------------------------------------------------------------===//

#include "stm/Stm.h"

#include "stm/TxGlobal.h"
#include "support/Random.h"
#include "support/ThreadBarrier.h"
#include "txn/CmStats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace otm;
using namespace otm::stm;

namespace {

struct Counter : TxObject {
  Field<int64_t> Value;
};

struct Account : TxObject {
  Field<int64_t> Balance;
};

struct ConfigGuard {
  ConfigGuard() : Saved(TxManager::config()) {}
  ~ConfigGuard() { TxManager::config() = Saved; }
  TxConfig Saved;
};

} // namespace

TEST(StmConcurrency, NoLostUpdates) {
  constexpr int NumThreads = 4;
  constexpr int IncrementsPerThread = 2000;
  Counter C;
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      Barrier.arriveAndWait();
      for (int I = 0; I < IncrementsPerThread; ++I)
        Stm::atomic([&](TxManager &Tx) {
          int64_t V = Tx.read(&C, &Counter::Value);
          Tx.write(&C, &Counter::Value, V + 1);
        });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.Value.load(), NumThreads * IncrementsPerThread);
}

TEST(StmConcurrency, TransfersPreserveTotalBalance) {
  constexpr int NumAccounts = 32;
  constexpr int NumThreads = 4;
  constexpr int TransfersPerThread = 3000;
  std::vector<Account> Accounts(NumAccounts);
  for (Account &A : Accounts)
    A.Balance.store(1000);

  ThreadBarrier Barrier(NumThreads);
  std::atomic<int64_t> ObservedBroken{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Xoshiro256 Rng(1000 + T);
      Barrier.arriveAndWait();
      for (int I = 0; I < TransfersPerThread; ++I) {
        std::size_t From = Rng.nextBelow(NumAccounts);
        std::size_t To = Rng.nextBelow(NumAccounts);
        if (From == To)
          continue;
        int64_t Amount = static_cast<int64_t>(Rng.nextBelow(10));
        if (Rng.nextPercent(20)) {
          // Auditor: committed snapshots must always total the same.
          int64_t Total = 0;
          Stm::atomic([&](TxManager &Tx) {
            Total = 0;
            for (Account &A : Accounts)
              Total += Tx.read(&A, &Account::Balance);
          });
          if (Total != NumAccounts * 1000)
            ++ObservedBroken;
          continue;
        }
        Stm::atomic([&](TxManager &Tx) {
          int64_t F = Tx.read(&Accounts[From], &Account::Balance);
          int64_t G = Tx.read(&Accounts[To], &Account::Balance);
          Tx.write(&Accounts[From], &Account::Balance, F - Amount);
          Tx.write(&Accounts[To], &Account::Balance, G + Amount);
        });
      }
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(ObservedBroken.load(), 0)
      << "a committed read-only transaction saw a broken invariant";
  int64_t Total = 0;
  for (Account &A : Accounts)
    Total += A.Balance.load();
  EXPECT_EQ(Total, NumAccounts * 1000);
}

TEST(StmConcurrency, WriterWriterConflictsAllCommitEventually) {
  // All threads hammer the same two objects in opposite orders — the
  // classic deadlock-shaped workload; conflict aborts + randomized backoff
  // must guarantee global progress.
  Counter A, B;
  constexpr int NumThreads = 4;
  constexpr int OpsPerThread = 1000;
  ThreadBarrier Barrier(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      Barrier.arriveAndWait();
      for (int I = 0; I < OpsPerThread; ++I)
        Stm::atomic([&](TxManager &Tx) {
          Counter *First = (T % 2 == 0) ? &A : &B;
          Counter *Second = (T % 2 == 0) ? &B : &A;
          Tx.write(First, &Counter::Value, Tx.read(First, &Counter::Value) + 1);
          Tx.write(Second, &Counter::Value,
                   Tx.read(Second, &Counter::Value) + 1);
        });
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(A.Value.load(), NumThreads * OpsPerThread);
  EXPECT_EQ(B.Value.load(), NumThreads * OpsPerThread);
}

TEST(StmConcurrency, InvariantPairNeverObservedBrokenByCommittedReaders) {
  // Writers keep X + Y == 0; committed readers must never observe
  // otherwise even though in-place updates make intermediate states
  // visible to running (doomed) transactions.
  TxGlobal<int64_t> X(0), Y(0);
  std::atomic<bool> Stop{false};
  std::atomic<int> Violations{0};

  std::thread Writer([&] {
    Xoshiro256 Rng(7);
    for (int I = 0; I < 20000; ++I) {
      int64_t Delta = static_cast<int64_t>(Rng.nextBelow(100)) - 50;
      Stm::atomic([&](TxManager &Tx) {
        X.set(Tx, X.get(Tx) + Delta);
        Y.set(Tx, Y.get(Tx) - Delta);
      });
    }
    Stop.store(true, std::memory_order_release);
  });

  std::thread ReaderThread([&] {
    while (!Stop.load(std::memory_order_acquire)) {
      int64_t SeenX = 0, SeenY = 0;
      Stm::atomic([&](TxManager &Tx) {
        SeenX = X.get(Tx);
        SeenY = Y.get(Tx);
      });
      if (SeenX + SeenY != 0)
        ++Violations;
    }
  });

  Writer.join();
  ReaderThread.join();
  EXPECT_EQ(Violations.load(), 0);
  EXPECT_EQ(X.unsafeGet() + Y.unsafeGet(), 0);
}

TEST(StmConcurrency, LongOwnershipForcesConflictAborts) {
  // One thread holds update ownership while another tries to write: the
  // attacker must abort on conflict (not corrupt, not hang) and succeed
  // after release.
  Counter C;
  ThreadBarrier Barrier(2);
  Stm::resetGlobalStats();

  std::thread Holder([&] {
    TxManager &Tx = TxManager::current();
    Tx.begin();
    Tx.openForUpdate(&C);
    Barrier.arriveAndWait(); // attacker starts now
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Tx.logUndo(&C.Value);
    C.Value.store(100);
    ASSERT_TRUE(Tx.tryCommit());
    Tx.flushStats();
  });

  std::thread Attacker([&] {
    Barrier.arriveAndWait();
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&C, &Counter::Value, Tx.read(&C, &Counter::Value) + 1);
    });
    TxManager::current().flushStats();
  });

  Holder.join();
  Attacker.join();
  EXPECT_EQ(C.Value.load(), 101);
  TxStats G = Stm::globalStats();
  EXPECT_GE(G.AbortsOnConflict, 1u)
      << "attacker should have aborted at least once while owner held C";
}

TEST(StmConcurrency, StarvedReaderCommitsThroughSerialFallback) {
  // Starvation regression for the serial-irrevocable fallback: one long
  // read-mostly transaction scans a pool of counters (yielding between
  // reads, so writers commit mid-scan) while writer threads continuously
  // invalidate its read set. With optimistic validation alone the scan
  // livelocks; the retry budget must escalate it to serial mode, where the
  // writers drain and the scan commits.
  constexpr int NumCounters = 64;
  constexpr int NumWriters = 3;
  ConfigGuard Guard;
  TxManager::config().SerialFallbackAfter = 8; // escalate quickly
  std::vector<Counter> Counters(NumCounters);
  std::atomic<bool> Done{false};
  std::atomic<uint64_t> WriterCommits{0};
  txn::CmStatsSnapshot Before = txn::CmStats::instance().snapshot();

  std::vector<std::thread> Writers;
  for (int W = 0; W < NumWriters; ++W)
    Writers.emplace_back([&, W] {
      Xoshiro256 Rng(4200 + W);
      while (!Done.load(std::memory_order_acquire)) {
        Stm::atomic([&](TxManager &Tx) {
          Counter &C = Counters[Rng.nextBelow(NumCounters)];
          Tx.write(&C, &Counter::Value, Tx.read(&C, &Counter::Value) + 1);
        });
        WriterCommits.fetch_add(1, std::memory_order_acq_rel);
      }
    });

  int64_t Sum = -1;
  unsigned Attempts = 0;
  std::thread Reader([&] {
    Stm::atomic([&](TxManager &Tx) {
      ++Attempts;
      int64_t S = 0;
      for (Counter &C : Counters) {
        S += Tx.read(&C, &Counter::Value);
        std::this_thread::yield(); // let writers commit mid-scan
      }
      // A loaded machine may not schedule any writer during the scan. While
      // the retry budget lasts, wait until some writer has begun and
      // committed a whole transaction after the scan read every counter:
      // NumWriters + 1 further commits mean one writer committed twice, and
      // its second commit overwrote a counter already in the read set. From
      // the serial attempt on, the writers are drained and nothing is
      // awaited.
      if (Attempts <= TxManager::config().SerialFallbackAfter) {
        const uint64_t Seen = WriterCommits.load(std::memory_order_acquire);
        while (WriterCommits.load(std::memory_order_acquire) <
               Seen + NumWriters + 1)
          std::this_thread::yield();
      }
      Sum = S;
    });
    Done.store(true, std::memory_order_release);
  });

  Reader.join();
  for (std::thread &W : Writers)
    W.join();

  txn::CmStatsSnapshot After = txn::CmStats::instance().snapshot();
  EXPECT_GE(Sum, 0);
  EXPECT_GT(Attempts, TxManager::config().SerialFallbackAfter)
      << "scan committed optimistically; the workload no longer starves it";
  EXPECT_GE(After.FallbackEntries - Before.FallbackEntries, 1u)
      << "the starving scan never escalated to serial-irrevocable mode";
  EXPECT_GE(After.FallbackCommits - Before.FallbackCommits, 1u);
}

TEST(StmConcurrency, ValidationCatchesInterleavedCommit) {
  // Reader opens A, then a writer commits to A before the reader commits:
  // the reader must fail validation and retry with the new value.
  Counter A;
  ThreadBarrier Sync(2);
  std::atomic<int> Attempts{0};
  int64_t FinalRead = -1;

  std::thread ReaderThread([&] {
    Stm::atomic([&](TxManager &Tx) {
      int Attempt = ++Attempts;
      FinalRead = Tx.read(&A, &Counter::Value);
      if (Attempt == 1) {
        Sync.arriveAndWait(); // writer commits now
        Sync.arriveAndWait();
      }
    });
  });

  std::thread WriterThread([&] {
    Sync.arriveAndWait();
    Stm::atomic([&](TxManager &Tx) {
      Tx.write(&A, &Counter::Value, int64_t{42});
    });
    Sync.arriveAndWait();
  });

  ReaderThread.join();
  WriterThread.join();
  EXPECT_GE(Attempts.load(), 2) << "first attempt must fail validation";
  EXPECT_EQ(FinalRead, 42);
}
