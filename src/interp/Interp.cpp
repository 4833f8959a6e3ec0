//===- interp/Interp.cpp - TMIR interpreter over the STM -------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Execution engine over the decoded bytecode (Bytecode.h / Decoder.h). The
// per-instruction work the old tree-walker repeated — operand kind
// switches, TxMode tests, field-index lookups — happens once at decode; at
// run time each handler is a few loads/stores on the frame's slot file.
//
// Two loops execute the same DInstr stream: a computed-goto direct-
// threaded loop (GCC/Clang; compiled out with -DOTM_INTERP_THREADED=0) and
// a portable switch loop. Both are generated from InterpDispatch.inc so
// their semantics cannot drift; tests/InterpDifferentialTest.cpp runs
// every benchmark program through both and compares results, prints and
// dynamic counts.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include "interp/Decoder.h"
#include "obs/TraceRing.h"
#include "stm/Stm.h"
#include "support/Compiler.h"
#include "tmir/IntSemantics.h"
#include "tmir/Verifier.h"
#include "txn/RetryExecutor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>

// The direct-threaded loop needs GNU computed goto; default it on for the
// compilers that have it, off elsewhere. Build with -DOTM_INTERP_THREADED=0
// to force the portable switch loop only.
#ifndef OTM_INTERP_THREADED
#if defined(__GNUC__) || defined(__clang__)
#define OTM_INTERP_THREADED 1
#else
#define OTM_INTERP_THREADED 0
#endif
#endif

using namespace otm;
using namespace otm::interp;
using namespace otm::tmir;

// The decoder maps these blocks between the two opcode enums by offset;
// pin the anchors of each contiguous run it relies on.
static_assert(static_cast<unsigned>(Opcode::CmpGe) -
                      static_cast<unsigned>(Opcode::Add) ==
                  static_cast<unsigned>(DOp::CmpGe) -
                      static_cast<unsigned>(DOp::Add),
              "arith/compare blocks of Opcode and DOp must stay parallel");
// The threaded loop's label table lists DOp values in declaration order;
// pin the anchors so a reordering shows up as a compile error, not a
// misdispatch.
static_assert(static_cast<unsigned>(DOp::Mov) == 0 &&
                  static_cast<unsigned>(DOp::CmpGe) == 16 &&
                  static_cast<unsigned>(DOp::Call) == 24 &&
                  static_cast<unsigned>(DOp::AtomicBeginStm) == 29 &&
                  static_cast<unsigned>(DOp::OpenReadCnt) == 35 &&
                  static_cast<unsigned>(DOp::Ret) == 41 && NumDOps == 42,
              "DOp order changed: update the Labels table in "
              "InterpDispatch.inc to match");

namespace {

/// Internal trap signal; converted to RunResult at the run() boundary.
struct TrapError {
  std::string Msg;
};

[[noreturn]] void trap(const std::string &Msg) { throw TrapError{Msg}; }

std::recursive_mutex &globalTxMutex() {
  static std::recursive_mutex M;
  return M;
}

thread_local int GlobalLockDepth = 0;
thread_local int CallDepth = 0;
constexpr int MaxCallDepth = 2048;

/// Monotone work counter for karma accrual (same measure as Stm::atomic).
uint64_t txOpCount(stm::TxManager &Tx) {
  const stm::TxStats &S = Tx.stats();
  return S.OpensForRead + S.OpensForUpdate + S.UndoLogAppends;
}

} // namespace

struct Interpreter::Frame {
  const DecodedFunction *DF = nullptr;
  /// Unified slot file: [registers | locals | constants].
  std::vector<int64_t> Slots;
  bool OwnsTx = false;
  bool HasSnapshot = false;
  /// Forced-abort cycles already taken for the current region
  /// (Options::ForceRetries testing hook).
  uint32_t ForcedRetries = 0;
  /// Retry snapshot: flat pc of the owning atomic_begin plus the values of
  /// its live-slot window (slot indices are Pool[SnapPoolOff ..
  /// SnapPoolOff+SnapCount) of the decoded function).
  uint32_t SnapPc = 0;
  uint32_t SnapPoolOff = 0;
  uint32_t SnapCount = 0;
  std::vector<int64_t> SnapVals;
  /// Retry sequencing for the atomic region this frame owns. Lives across
  /// snapshot-restart retries of one region; unwinding the frame on a trap
  /// releases any serial-gate state through the controller's destructor.
  std::optional<txn::RetryController> Ctl;
};

namespace {

/// Per-thread stack of live frames (GC roots for the current thread).
thread_local std::vector<Interpreter::Frame *> TlFrames;

} // namespace

namespace otm {
namespace interp {

class FrameScope {
public:
  explicit FrameScope(Interpreter::Frame &Fr) { TlFrames.push_back(&Fr); }
  ~FrameScope() { TlFrames.pop_back(); }
};

} // namespace interp
} // namespace otm

bool Interpreter::threadedDispatchAvailable() {
  return OTM_INTERP_THREADED != 0;
}

Interpreter::Interpreter(Module &M, Options Opts) : M(M), Opts(Opts) {
  verifyModuleOrDie(M); // fills RegTypes, required for decode + GC scanning
  DM = decodeModule(M, Opts.Mode);

  if (threadedDispatchAvailable()) {
    switch (Opts.Loop) {
    case Dispatch::Threaded:
      UseThreaded = true;
      break;
    case Dispatch::Switch:
      UseThreaded = false;
      break;
    case Dispatch::Auto: {
      const char *Env = std::getenv("OTM_INTERP_DISPATCH");
      UseThreaded = !(Env && std::strcmp(Env, "switch") == 0);
      break;
    }
    }
  }
}

HeapObject *Interpreter::makeObject(const std::string &ClassName) {
  int Id = M.classIndex(ClassName);
  assert(Id >= 0 && "unknown class");
  return TheHeap.allocObject(&M.Classes[Id]);
}

HeapObject *Interpreter::makeArray(std::size_t Length) {
  return TheHeap.allocArray(Length);
}

void Interpreter::collectGarbage() {
  stm::TxManager &Tx = stm::TxManager::current();
  obs::TraceRing *Ring = obs::TraceRing::forCurrentThread();
  OTM_TRACE_EVENT(Ring, obs::EventKind::GcBegin, nullptr, 0);
  TheHeap.collect([&](auto Mark) {
    for (Frame *Fr : TlFrames) {
      const DecodedFunction &DF = *Fr->DF;
      // Every reference-typed register/local slot of a live frame is a
      // root — including currently-dead ones, which may hold pointers from
      // earlier in the frame. Keeping those alive is what makes the
      // narrowed retry snapshots safe: a restored dead slot can never
      // resurrect a swept object.
      for (uint32_t Sl = 0; Sl < DF.ConstBase; ++Sl)
        if (DF.RefSlot[Sl] && Fr->Slots[Sl])
          Mark(HeapObject::fromBits(Fr->Slots[Sl]));
      if (Fr->HasSnapshot) {
        const uint32_t *Window = DF.Pool.data() + Fr->SnapPoolOff;
        for (uint32_t K = 0; K < Fr->SnapCount; ++K)
          if (DF.RefSlot[Window[K]] && Fr->SnapVals[K])
            Mark(HeapObject::fromBits(Fr->SnapVals[K]));
      }
    }
    if (Tx.inTx()) {
      // The paper's GC/STM integration: compact the logs while they are
      // being treated as roots.
      auto [ReadsDropped, UndosDropped] = Tx.compactLogsForGc();
      TheHeap.stats().ReadEntriesDropped += ReadsDropped;
      TheHeap.stats().UndoEntriesDropped += UndosDropped;
      Tx.forEachEnlistedObject([&](stm::TxObject *Obj) {
        Mark(static_cast<HeapObject *>(Obj));
      });
    }
  });
  OTM_TRACE_EVENT(Ring, obs::EventKind::GcEnd, nullptr, 0);
}

Interpreter::RunResult Interpreter::run(const std::string &Name,
                                        const std::vector<int64_t> &Args) {
  RunResult Result;
  Function *F = M.functionByName(Name);
  if (!F) {
    Result.Trapped = true;
    Result.Error = "no such function: " + Name;
    return Result;
  }
  if (Args.size() != F->NumParams) {
    Result.Trapped = true;
    Result.Error = "argument count mismatch calling " + Name;
    return Result;
  }
  const DecodedFunction *DF = nullptr;
  for (std::size_t Idx = 0; Idx < M.Functions.size(); ++Idx)
    if (M.Functions[Idx].get() == F) {
      DF = &DM.Funcs[Idx];
      break;
    }
  assert(DF && "function present in module but not in decoded module");

  Counts.ActiveRuns.fetch_add(1, std::memory_order_relaxed);
  DynCounts::Delta D;
  try {
    Result.Value = execFunction(*DF, Args.data(), Args.size(), D);
  } catch (const TrapError &T) {
    Result.Trapped = true;
    Result.Error = T.Msg;
    // Clean up any transactional or lock state the trap interrupted.
    stm::TxManager &Tx = stm::TxManager::current();
    if (Tx.inTx())
      Tx.rollbackAttempt(stm::AbortTx::Cause::User);
    while (GlobalLockDepth > 0) {
      globalTxMutex().unlock();
      --GlobalLockDepth;
    }
  }
  // One flush of the per-run counters into the process-wide atomics.
  Counts.add(D);
  Counts.ActiveRuns.fetch_sub(1, std::memory_order_relaxed);
  return Result;
}

uint32_t Interpreter::failedAttemptResume(Frame &Fr, DynCounts::Delta &D) {
  const DecodedFunction &DF = *Fr.DF;
  const uint32_t *Window = DF.Pool.data() + Fr.SnapPoolOff;
  for (uint32_t K = 0; K < Fr.SnapCount; ++K)
    Fr.Slots[Window[K]] = Fr.SnapVals[K];
  Fr.OwnsTx = false;
  ++D.TxRetried;
  Fr.Ctl->afterAbort(txOpCount(stm::TxManager::current()));
  return Fr.SnapPc;
}

int64_t Interpreter::execFunction(const DecodedFunction &DF,
                                  const int64_t *Args, std::size_t NumArgs,
                                  DynCounts::Delta &D) {
  if (OTM_UNLIKELY(++CallDepth > MaxCallDepth)) {
    --CallDepth;
    trap("call depth limit exceeded in " + DF.Src->Name);
  }
  struct DepthGuard {
    ~DepthGuard() { --CallDepth; }
  } Guard;

  Frame Fr;
  Fr.DF = &DF;
  Fr.Slots.assign(DF.NumSlots, 0);
  std::copy(DF.Consts.begin(), DF.Consts.end(),
            Fr.Slots.begin() + DF.ConstBase);
  for (std::size_t A = 0; A < NumArgs; ++A)
    Fr.Slots[DF.LocalBase + A] = Args[A];
  FrameScope Scope(Fr);

  const uint64_t Reload =
      Opts.Mode == TxMode::ObjStm && Opts.ValidateEveryNInstrs
          ? Opts.ValidateEveryNInstrs
          : ~uint64_t(0);

  uint32_t Pc = 0;
  for (;;) {
    try {
      return UseThreaded ? execThreadedLoop(Fr, Pc, D, Reload)
                         : execSwitchLoop(Fr, Pc, D, Reload);
    } catch (const stm::AbortTx &Reason) {
      if (!Fr.OwnsTx)
        throw; // unwind to the frame that owns the transaction
      stm::TxManager::current().rollbackAttempt(Reason.Why);
      Pc = failedAttemptResume(Fr, D); // resume from the atomic_begin
    }
  }
}

int64_t Interpreter::execSwitchLoop(Frame &Fr, uint32_t Pc,
                                    DynCounts::Delta &D,
                                    uint64_t ValidateReload) {
#define OTM_LOOP_THREADED 0
#include "interp/InterpDispatch.inc"
#undef OTM_LOOP_THREADED
}

#if OTM_INTERP_THREADED

int64_t Interpreter::execThreadedLoop(Frame &Fr, uint32_t Pc,
                                      DynCounts::Delta &D,
                                      uint64_t ValidateReload) {
#define OTM_LOOP_THREADED 1
#include "interp/InterpDispatch.inc"
#undef OTM_LOOP_THREADED
}

#else

int64_t Interpreter::execThreadedLoop(Frame &Fr, uint32_t Pc,
                                      DynCounts::Delta &D,
                                      uint64_t ValidateReload) {
  return execSwitchLoop(Fr, Pc, D, ValidateReload);
}

#endif // OTM_INTERP_THREADED
