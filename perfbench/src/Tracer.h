//===- perfbench/src/Tracer.h - request/attempt/barrier tracing ---*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread tracer for the traced run of containers-1t.
/// The benchmark calls it around its own calls into the runtime: a root
/// span per request (or container op), an `attempt` span per entry into the
/// transaction body, and a barrier span per TxManager barrier call inside
/// the body. Nothing inside src/ is instrumented.
///
/// Besides the spans it keeps the per-request figures the per-layer metrics
/// need: attempts, wasted body time (bodies of attempts that did not
/// commit), and outside-body time (request time minus the committing
/// attempt's body: begin, commit, backoff, serial-gate wait).
/// Spans and samples are capped so that a long traced run stays small; the
/// counters keep counting past the caps.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include "Spans.h"

#include <cstdint>
#include <vector>

namespace perfbench {

class Tracer {
public:
  static constexpr std::size_t SpanCap = 1 << 18;   ///< stored spans
  static constexpr std::size_t SampleCap = 1 << 21; ///< samples per series

  Tracer() { Log.reserve(SpanCap); }

  /// Opens the root span of request \p Req (named \p Root).
  void beginRequest(SpanName Root, uint64_t Req) {
    CurReq = Req;
    Storing = Log.spans().size() + 64 < SpanCap;
    ReqStart = nowNs();
    ReqSpan = Storing ? Log.add(Root, Span::NoParent, Req, ReqStart, 0)
                      : Span::NoParent;
    LastBody = 0;
  }

  void endRequest() {
    int64_t End = nowNs();
    if (Storing)
      Log.spans()[ReqSpan].End = End;
    ++Requests;
    // Every request ends committed, so its last attempt is the committing
    // one and every earlier body was wasted.
    WastedBodyNs -= LastBody;
    sample(OutsideBodyUs, (End - ReqStart - LastBody) / 1e3);
  }

  /// RAII span over one execution of the transaction body. Closes on
  /// normal exit and when an abort unwinds the body.
  class AttemptScope {
  public:
    explicit AttemptScope(Tracer &T) : T(T), Start(nowNs()) {
      ++T.Attempts;
      Idx = T.Storing ? T.Log.add(SpanName::Attempt, T.ReqSpan, T.CurReq,
                                  Start, 0)
                      : Span::NoParent;
      T.AttemptSpan = Idx;
    }
    ~AttemptScope() {
      int64_t End = nowNs();
      if (Idx != Span::NoParent)
        T.Log.spans()[Idx].End = End;
      T.LastBody = End - Start;
      T.BodyNs += T.LastBody;
      T.WastedBodyNs += T.LastBody;
    }
    AttemptScope(const AttemptScope &) = delete;
    AttemptScope &operator=(const AttemptScope &) = delete;

  private:
    Tracer &T;
    int64_t Start;
    uint32_t Idx;
  };

  /// Records one barrier call that ran from \p Start to \p End.
  void barrier(SpanName Name, int64_t Start, int64_t End) {
    if (Storing)
      Log.add(Name, AttemptSpan, CurReq, Start, End);
    sample(BarrierNs[barrierIndex(Name)], static_cast<float>(End - Start));
  }

  static unsigned barrierIndex(SpanName N) {
    return N == SpanName::OpenRead ? 0 : N == SpanName::OpenUpdate ? 1 : 2;
  }

  SpanLog Log;
  uint64_t Requests = 0;
  uint64_t Attempts = 0;
  int64_t BodyNs = 0;
  int64_t WastedBodyNs = 0;
  std::vector<float> OutsideBodyUs;
  std::vector<float> BarrierNs[3]; ///< open_read, open_update, log_undo

private:
  static void sample(std::vector<float> &V, double X) {
    if (V.size() < SampleCap)
      V.push_back(static_cast<float>(X));
  }

  uint64_t CurReq = 0;
  bool Storing = false;
  int64_t ReqStart = 0;
  int64_t LastBody = 0;
  uint32_t ReqSpan = Span::NoParent;
  uint32_t AttemptSpan = Span::NoParent;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
