//===- obs/TraceRing.cpp - Lock-free per-thread event tracing -------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/TraceRing.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace otm;
using namespace otm::obs;

namespace {

struct Registry {
  std::mutex M;
  std::vector<TraceRing *> Rings; // leaked: zombies may still be writing
  uint32_t NextOrd = 1;
  TscClock Clock; // epoch for microsecond conversion
};

Registry &registry() {
  static Registry R;
  return R;
}

std::size_t configuredCapacity() {
  if (const char *Cap = std::getenv("OTM_TRACE_CAP")) {
    unsigned long long V = std::strtoull(Cap, nullptr, 10);
    std::size_t Pow2 = 64;
    while (Pow2 < V && Pow2 < (std::size_t{1} << 24))
      Pow2 <<= 1;
    return Pow2;
  }
  return 1 << 14;
}

const char *eventName(uint16_t Kind) {
  switch (static_cast<EventKind>(Kind)) {
  case EventKind::TxBegin:
  case EventKind::TxCommit:
  case EventKind::TxAbort:
    return "tx";
  case EventKind::OpenForRead:
    return "open_read";
  case EventKind::OpenForUpdate:
    return "open_update";
  case EventKind::GcBegin:
  case EventKind::GcEnd:
    return "gc";
  case EventKind::SerialEnter:
  case EventKind::SerialExit:
    return "serial_irrevocable";
  }
  return "event";
}

const char *abortCauseName(uint16_t Aux) {
  switch (Aux & 0xff) {
  case AuxCauseConflict:
    return "conflict";
  case AuxCauseValidation:
    return "validation";
  case AuxCauseUser:
    return "user";
  }
  return "unknown";
}

void appendEvent(std::string &Out, bool &First, const char *Name,
                 const char *Phase, double TsUs, double DurUs, uint32_t Tid,
                 const std::string &Args) {
  char Buf[256];
  if (!First)
    Out += ",\n";
  First = false;
  int N;
  if (DurUs >= 0)
    N = std::snprintf(Buf, sizeof(Buf),
                      "{\"name\":\"%s\",\"cat\":\"otm\",\"ph\":\"%s\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                      Name, Phase, TsUs, DurUs, Tid);
  else
    N = std::snprintf(Buf, sizeof(Buf),
                      "{\"name\":\"%s\",\"cat\":\"otm\",\"ph\":\"%s\","
                      "\"ts\":%.3f,\"pid\":1,\"tid\":%u",
                      Name, Phase, TsUs, Tid);
  Out.append(Buf, static_cast<std::size_t>(N));
  if (Phase[0] == 'i')
    Out += ",\"s\":\"t\""; // instant events need a scope
  if (!Args.empty()) {
    Out += ",\"args\":{";
    Out += Args;
    Out += "}";
  }
  Out += "}";
}

std::string addrArg(uintptr_t Addr) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "\"addr\":\"0x%llx\"",
                static_cast<unsigned long long>(Addr));
  return Buf;
}

} // namespace

bool TraceRing::enabled() {
  static bool On = [] {
    const char *V = std::getenv("OTM_TRACE");
    bool Requested = V && V[0] && std::strcmp(V, "0") != 0;
    if (Requested)
      (void)registry(); // anchor the tsc epoch at process start-ish
    return Requested;
  }();
  return On;
}

TraceRing::TraceRing(uint32_t ThreadOrd, std::size_t CapacityPow2)
    : Slots(CapacityPow2), Mask(CapacityPow2 - 1), ThreadOrd(ThreadOrd) {}

TraceRing *TraceRing::forCurrentThread() {
  if (!enabled())
    return nullptr;
  static thread_local TraceRing *Ring = [] {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    auto *New = new TraceRing(R.NextOrd++, configuredCapacity());
    R.Rings.push_back(New);
    return New;
  }();
  return Ring;
}

std::unique_ptr<TraceRing>
TraceRing::createDetached(std::size_t CapacityPow2) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return std::unique_ptr<TraceRing>(new TraceRing(R.NextOrd++, CapacityPow2));
}

std::vector<TraceRing *> TraceRing::allRings() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Rings;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  uint64_t End = Head.load(std::memory_order_acquire);
  uint64_t Cap = Mask + 1;
  uint64_t Begin = End > Cap ? End - Cap : 0;
  std::vector<TraceEvent> Out;
  Out.reserve(static_cast<std::size_t>(End - Begin));
  for (uint64_t I = Begin; I < End; ++I)
    Out.push_back(Slots[I & Mask]);
  return Out;
}

std::string TraceRing::chromeTraceJson() {
  Registry &R = registry();
  double TicksPerUs = R.Clock.ticksPerMicrosecond();
  std::string Out = "{\"traceEvents\":[\n";
  bool First = true;
  for (TraceRing *Ring : allRings()) {
    std::vector<TraceEvent> Events = Ring->snapshot();
    uint32_t Tid = Ring->threadOrdinal();
    // Pair TxBegin with the next TxCommit/TxAbort on the same thread to
    // emit complete ("X") events; opens and unpaired fragments become
    // instants so a wrapped ring still renders.
    uint64_t PendingBegin = 0, PendingGc = 0;
    bool HavePendingBegin = false, HavePendingGc = false;
    for (const TraceEvent &E : Events) {
      double TsUs = R.Clock.toMicroseconds(E.Tsc, TicksPerUs);
      switch (static_cast<EventKind>(E.Kind)) {
      case EventKind::TxBegin:
        PendingBegin = E.Tsc;
        HavePendingBegin = true;
        break;
      case EventKind::TxCommit:
      case EventKind::TxAbort: {
        bool IsAbort = E.Kind == static_cast<uint16_t>(EventKind::TxAbort);
        std::string Args = IsAbort ? std::string("\"outcome\":\"abort\","
                                                 "\"cause\":\"") +
                                         abortCauseName(E.Aux) + "\""
                                   : std::string("\"outcome\":\"commit\"");
        if (E.Aux & AuxWordStm)
          Args += ",\"stm\":\"word\"";
        if (HavePendingBegin) {
          double BeginUs = R.Clock.toMicroseconds(PendingBegin, TicksPerUs);
          appendEvent(Out, First, eventName(E.Kind), "X", BeginUs,
                      std::max(TsUs - BeginUs, 0.001), Tid, Args);
        } else {
          appendEvent(Out, First, eventName(E.Kind), "i", TsUs, -1, Tid,
                      Args);
        }
        HavePendingBegin = false;
        break;
      }
      case EventKind::OpenForRead:
      case EventKind::OpenForUpdate:
        appendEvent(Out, First, eventName(E.Kind), "i", TsUs, -1, Tid,
                    addrArg(E.Addr));
        break;
      case EventKind::GcBegin:
        PendingGc = E.Tsc;
        HavePendingGc = true;
        break;
      case EventKind::GcEnd:
        if (HavePendingGc) {
          double BeginUs = R.Clock.toMicroseconds(PendingGc, TicksPerUs);
          appendEvent(Out, First, "gc", "X", BeginUs,
                      std::max(TsUs - BeginUs, 0.001), Tid, "");
        }
        HavePendingGc = false;
        break;
      case EventKind::SerialEnter:
      case EventKind::SerialExit:
        appendEvent(Out, First, eventName(E.Kind), "i", TsUs, -1, Tid,
                    E.Kind == static_cast<uint16_t>(EventKind::SerialEnter)
                        ? "\"phase\":\"enter\""
                        : "\"phase\":\"exit\"");
        break;
      }
    }
  }
  Out += "\n],\"displayTimeUnit\":\"ns\"}\n";
  return Out;
}

bool TraceRing::writeChromeTrace(const std::string &Path) {
  if (!enabled())
    return true;
  bool AnyEvents = false;
  for (TraceRing *Ring : allRings())
    AnyEvents |= Ring->recorded() != 0;
  if (!AnyEvents)
    return true;
  std::string Json = chromeTraceJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fwrite(Json.data(), 1, Json.size(), F);
  std::fclose(F);
  std::fprintf(stderr, "otm: wrote trace to %s (%zu bytes)\n", Path.c_str(),
               Json.size());
  return true;
}
