//===- perfbench/tests/SelfTest.cpp - Benchmark self-tests -----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Self-tests of the benchmark's own machinery: the percentile helper, the
// reference-speed scaling, the CPU-time clock, span self-time
// reconciliation, and the workloads' correctness checks (which must fire
// on a deliberately corrupted final state and stay quiet on a clean one).
//
// Build and run:  cmake -S perfbench -B build-perfbench &&
//                 cmake --build build-perfbench -j && ctest --test-dir build-perfbench
//
//===----------------------------------------------------------------------===//

#include "ReferenceSpeed.h"
#include "Spans.h"
#include "Stats.h"
#include "Workload.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <thread>

using namespace perfbench;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What);
  }
}

bool throws(const std::function<void()> &Fn) {
  try {
    Fn();
  } catch (const std::runtime_error &) {
    return true;
  }
  return false;
}

void testPercentile() {
  std::vector<double> V(1000);
  std::iota(V.begin(), V.end(), 1.0); // 1..1000
  expect(median(V, "t") == 500.0, "median of 1..1000 is 500");
  expect(percentile(V, 99.0, "t") == 990.0, "p99 of 1..1000 is 990");
  expect(samplesBeyond(1000, 99.0) == 10, "p99 of 1000 has ten beyond");
  std::vector<double> Short(V.begin(), V.begin() + 999);
  expect(throws([&] { percentile(Short, 99.0, "t"); }),
         "p99 of 999 samples (nine beyond) is refused");
  expect(!throws([&] { percentile(Short, 98.0, "t"); }),
         "p98 of 999 samples is allowed");
  std::vector<double> Empty;
  expect(throws([&] { median(Empty, "t"); }), "median of nothing is refused");

  // A stall that hits 5% of the samples sets the p99 of the pooled run.
  std::vector<double> Stalled = V;
  for (std::size_t I = 950; I < 1000; ++I)
    Stalled[I] += 1e6;
  expect(percentile(Stalled, 99.0, "t") > 1e6, "a stall sets the p99");

  std::vector<std::vector<double>> Suite = {{1, 2, 3}, {10, 20, 30}};
  expect(meanOfMedians(Suite, "t") == 11.0, "mean of per-group medians");

  SampleSeries S(8);
  for (int I = 0; I < 1000; ++I)
    S.push(static_cast<float>(I));
  std::vector<float> Kept = S.samples();
  expect(!Kept.empty() && Kept.size() <= 8, "sample series stays bounded");
  expect(Kept.front() == 0.0f && Kept.back() >= 800.0f,
         "sample series spans the whole stream");
}

void testReferenceSpeed() {
  ReferenceSpeed Speed(100.0);
  expect(Speed.factor() == 1.0, "no reference sample scales by 1");
  Speed.record(2000.0, 10.0); // 200 ns per unit: a host at half speed
  expect(Speed.factor() == 0.5, "factor is nominal over reference time");
  for (int I = 0; I < 20; ++I)
    Speed.record(I % 4 == 0 ? 1e6 : 5000.0, 100.0); // 50 ns, some stalled
  expect(Speed.factor() == 2.0 && Speed.unitNs() == 50.0,
         "the median of the recent samples ignores a minority of stalls and "
         "forgets older samples");
  Speed.record(0.0, 0.0);
  expect(Speed.factor() == 2.0, "an empty sample is ignored");
}

void testCpuClock() {
  // Time the thread does not run, here a sleep, stays out of cpuNs.
  CpuShare Share;
  const int64_t Cpu0 = cpuNs(), Wall0 = nowNs();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int64_t Cpu = cpuNs() - Cpu0, Wall = nowNs() - Wall0;
  expect(Wall >= 50'000'000 && Cpu < 10'000'000,
         "thread CPU time leaves out a 50 ms sleep");
  expect(Share.get() < 0.2, "the CPU share of a sleeping stretch is small");
}

void testSpanReconciliation() {
  SpanLog L;
  uint32_t Req = L.add(SpanName::Op, Span::NoParent, 1, 0, 100);
  uint32_t A1 = L.add(SpanName::Attempt, Req, 1, 10, 40);
  L.add(SpanName::OpenRead, A1, 1, 15, 20);
  L.add(SpanName::Attempt, Req, 1, 50, 90);
  std::vector<int64_t> Self = selfTimes(L.spans());
  expect(Self[Req] == 30, "request self time excludes both attempts");
  expect(Self[A1] == 25, "attempt self time excludes its barrier");
  expect(reconcileFailures(L.spans(), SpanName::Op) == 0,
         "nested spans reconcile");

  SpanLog Bad;
  uint32_t R1 = Bad.add(SpanName::Op, Span::NoParent, 1, 0, 100);
  Bad.add(SpanName::Attempt, R1, 1, 10, 60); // overlaps its sibling
  Bad.add(SpanName::Attempt, R1, 1, 50, 90);
  uint32_t R2 = Bad.add(SpanName::Op, Span::NoParent, 2, 200, 300);
  Bad.add(SpanName::Attempt, R2, 2, 290, 320); // escapes its parent
  expect(selfTimes(Bad.spans())[R1] == 20, "overlap is covered once");
  expect(reconcileFailures(Bad.spans(), SpanName::Op) == 2,
         "overlapping and escaping children are caught");
}

void testChecksFire() {
  struct Case {
    const char *Name;
    Result (*Run)(const RunOptions &);
  } Cases[] = {{"containers-1t", runContainers},
               {"tmir-pipeline", runTmirPipeline}};
  for (const Case &C : Cases) {
    RunOptions O;
    O.Seed = 7;
    O.Seconds = 0.6;
    O.Trace = true; // medians only where a short run cannot fill a p99
    O.ProgramDir = PERFBENCH_PROGRAM_DIR;
    Result Clean = C.Run(O);
    O.CorruptFinalState = true;
    Result Corrupt = C.Run(O);
    std::string Label = C.Name;
    expect(Clean.Failed == 0, (Label + ": a clean run passes its checks").c_str());
    expect(Corrupt.Failed > 0,
           (Label + ": a corrupted final state fails its checks").c_str());
  }
}

} // namespace

int main() {
  testPercentile();
  testReferenceSpeed();
  testCpuClock();
  testSpanReconciliation();
  testChecksFire();
  if (Failures) {
    std::fprintf(stderr, "%d self-test failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
