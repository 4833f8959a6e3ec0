//===- perfbench/src/Spans.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around its own calls into the runtime's
/// public functions during a traced run. Each thread appends to its own
/// SpanLog (no synchronization); the logs are read after the threads join
/// and written out once, when the run ends.
///
/// A span's self time is its duration minus the part of its interval that
/// its child spans cover. reconcile() checks the converse identity the
/// per-layer numbers rely on: self time plus the children's durations adds
/// back up to the parent's duration, which fails when a child escapes its
/// parent's interval or two children overlap.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <time.h>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in ns. The benchmark runs the program
/// on one thread that never blocks, so this is its wall time minus the
/// time the host ran something else on that CPU: other processes, and
/// other tenants of the machine, whose share the kernel accounts as steal
/// time. Those preemptions land in a few operations of a run, in a number
/// that changes from run to run, and move a wall-clock latency tail by
/// more than any bound could absorb. A read costs a system call (about
/// 0.3 us), so it times work that takes tens of microseconds or more.
inline int64_t cpuNs() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return int64_t(T.tv_sec) * 1'000'000'000 + T.tv_nsec;
}

enum class SpanName : uint16_t {
  Attempt,    ///< one execution of the transaction body
  OpenRead,   ///< barrier: TxManager::openForRead
  OpenUpdate, ///< barrier: TxManager::openForUpdate
  LogUndo,    ///< barrier: TxManager::logUndo
  Op,         ///< containers-1t: one container operation
  Parse,      ///< tmir-pipeline: tmir::parseModule
  Verify,     ///< tmir-pipeline: tmir::verifyModule
  Optimize,   ///< tmir-pipeline: passes::lowerAndOptimize
  Run,        ///< tmir-pipeline: interp::Interpreter::run
};

inline const char *spanNameStr(SpanName N) {
  static const char *const Names[] = {"attempt", "open_read", "open_update",
                                      "log_undo", "op",        "parse",
                                      "verify",  "optimize",  "run"};
  return Names[static_cast<unsigned>(N)];
}

struct Span {
  static constexpr uint32_t NoParent = ~uint32_t(0);
  uint64_t Req = 0;    ///< request/op id shared by a request's spans
  int64_t Start = 0;   ///< steady_clock ns
  int64_t End = 0;     ///< steady_clock ns
  uint32_t Parent = NoParent; ///< index in the same SpanLog
  SpanName Name = SpanName::Op;

  int64_t duration() const { return End - Start; }
};

class SpanLog {
public:
  void reserve(std::size_t N) { Spans.reserve(N); }

  /// Appends a span whose bounds the caller already measured.
  uint32_t add(SpanName Name, uint32_t Parent, uint64_t Req, int64_t Start,
               int64_t End) {
    Span S;
    S.Req = Req;
    S.Start = Start;
    S.End = End;
    S.Parent = Parent;
    S.Name = Name;
    Spans.push_back(S);
    return static_cast<uint32_t>(Spans.size() - 1);
  }

  const std::vector<Span> &spans() const { return Spans; }
  std::vector<Span> &spans() { return Spans; }

private:
  std::vector<Span> Spans;
};

/// Per-span self time: duration minus the union of the children's intervals
/// clipped to the parent's.
inline std::vector<int64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> Kids(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent != Span::NoParent)
      Kids[S.Parent].push_back({S.Start, S.End});
  std::vector<int64_t> Self(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &K = Kids[I];
    std::sort(K.begin(), K.end());
    int64_t Covered = 0, Cursor = P.Start;
    for (auto [B, E] : K) {
      B = std::max(B, Cursor);
      E = std::min(E, P.End);
      if (E > B) {
        Covered += E - B;
        Cursor = E;
      }
    }
    Self[I] = P.duration() - Covered;
  }
  return Self;
}

/// Number of spans of kind \p Name whose self time plus their children's
/// durations differs from their own duration (a child outside the parent
/// or overlapping a sibling).
inline uint64_t reconcileFailures(const std::vector<Span> &Spans,
                                  SpanName Name) {
  std::vector<int64_t> Self = selfTimes(Spans);
  std::vector<int64_t> ChildSum(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent != Span::NoParent)
      ChildSum[S.Parent] += S.duration();
  uint64_t Bad = 0;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Name == Name && Self[I] + ChildSum[I] != Spans[I].duration())
      ++Bad;
  return Bad;
}

/// Writes up to \p Limit spans per log as Chrome trace "X" events (one
/// pid, one tid per log), so a traced run can be opened in a trace viewer.
inline bool writeChromeTrace(const std::string &Path,
                             const std::vector<const SpanLog *> &Logs,
                             std::size_t Limit) {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[", F);
  bool First = true;
  for (std::size_t T = 0; T < Logs.size(); ++T) {
    const std::vector<Span> &Spans = Logs[T]->spans();
    for (std::size_t I = 0; I < Spans.size() && I < Limit; ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%llu,"
                   "\"id\":%zu,\"parent\":%lld}}",
                   First ? "" : ",", spanNameStr(S.Name), T, S.Start / 1e3,
                   S.duration() / 1e3, static_cast<unsigned long long>(S.Req),
                   I,
                   S.Parent == Span::NoParent ? -1LL
                                              : static_cast<long long>(S.Parent));
      First = false;
    }
  }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
