//===- passes/Inline.cpp - Function inlining --------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Inline.h"

#include "obs/Statistic.h"
#include "tmir/AtomicRegions.h"

#include <optional>
#include <string>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

unsigned instrCount(const Function &F) {
  unsigned N = 0;
  for (const std::unique_ptr<BasicBlock> &BB : F.Blocks)
    N += static_cast<unsigned>(BB->Instrs.size());
  return N;
}

bool hasAtomicMarkers(const Function &F) {
  for (const std::unique_ptr<BasicBlock> &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.Op == Opcode::AtomicBegin || I.Op == Opcode::AtomicEnd)
        return true;
  return false;
}

/// Inlines the call at (BlockId, InstrIdx) in \p Caller. The callee must
/// already satisfy the legality checks. \p Serial uniquifies names.
void inlineCall(Function &Caller, const Function &Callee, int BlockId,
                std::size_t InstrIdx, unsigned Serial) {
  const Instr Call = Caller.Blocks[BlockId]->Instrs[InstrIdx];
  std::string Suffix = "$i" + std::to_string(Serial);

  // Map callee locals and registers into the caller.
  int LocalOffset = static_cast<int>(Caller.Locals.size());
  for (const LocalDecl &L : Callee.Locals)
    Caller.Locals.push_back({L.Name + Suffix, L.Ty});
  int RegOffset = Caller.numRegs();
  for (int R = 0; R < Callee.numRegs(); ++R)
    Caller.addReg(Callee.RegNames[R] + Suffix, Callee.RegTypes[R]);

  // A local slot carries the return value from every ret to the join.
  int ResultLocal = -1;
  if (!Callee.ReturnTy.isVoid()) {
    ResultLocal = static_cast<int>(Caller.Locals.size());
    Caller.Locals.push_back({"retval" + Suffix, Callee.ReturnTy});
  }

  // Split the call block: instructions after the call move to a new join
  // block that keeps the original terminator.
  BasicBlock &CallBlock = *Caller.Blocks[BlockId];
  BasicBlock *Join =
      Caller.addBlock(CallBlock.Name + "$join" + Suffix);
  Join->Instrs.assign(CallBlock.Instrs.begin() +
                          static_cast<long>(InstrIdx) + 1,
                      CallBlock.Instrs.end());
  CallBlock.Instrs.resize(InstrIdx);

  // The call's result register is now defined by a load from ResultLocal.
  if (Call.ResultReg >= 0) {
    Instr Load = Instr::make(Opcode::LoadLocal);
    Load.ResultReg = Call.ResultReg;
    Load.LocalIdx = ResultLocal;
    Join->Instrs.insert(Join->Instrs.begin(), std::move(Load));
  }

  // Pass arguments through the callee's (remapped) parameter locals.
  for (unsigned P = 0; P < Callee.NumParams; ++P) {
    Instr Store = Instr::make(Opcode::StoreLocal);
    Store.LocalIdx = LocalOffset + static_cast<int>(P);
    Store.Operands.push_back(Call.Operands[P]);
    CallBlock.Instrs.push_back(std::move(Store));
  }

  // Copy the callee body, remapping everything.
  int BlockOffset = static_cast<int>(Caller.Blocks.size());
  for (const std::unique_ptr<BasicBlock> &BB : Callee.Blocks)
    Caller.addBlock(BB->Name + Suffix);
  for (std::size_t B = 0; B < Callee.Blocks.size(); ++B) {
    BasicBlock &Dst = *Caller.Blocks[BlockOffset + static_cast<int>(B)];
    for (const Instr &Orig : Callee.Blocks[B]->Instrs) {
      Instr I = Orig;
      if (I.ResultReg >= 0)
        I.ResultReg += RegOffset;
      for (Value &V : I.Operands)
        if (V.isReg())
          V = Value::reg(V.regId() + RegOffset);
      if (I.LocalIdx >= 0)
        I.LocalIdx += LocalOffset;
      if (I.Op == Opcode::Br || I.Op == Opcode::CondBr) {
        I.TargetA += BlockOffset;
        if (I.Op == Opcode::CondBr)
          I.TargetB += BlockOffset;
      }
      if (I.Op == Opcode::Ret) {
        if (ResultLocal >= 0) {
          Instr Store = Instr::make(Opcode::StoreLocal);
          Store.LocalIdx = ResultLocal;
          Store.Operands.push_back(I.Operands[0]);
          Dst.Instrs.push_back(std::move(Store));
        }
        Instr Jump = Instr::make(Opcode::Br);
        Jump.TargetA = Join->Id;
        Dst.Instrs.push_back(std::move(Jump));
        continue;
      }
      Dst.Instrs.push_back(std::move(I));
    }
  }

  // Enter the inlined entry block.
  Instr Enter = Instr::make(Opcode::Br);
  Enter.TargetA = BlockOffset;
  CallBlock.Instrs.push_back(std::move(Enter));
}

/// Runs one inlining round over \p Caller; returns inlined-call count.
unsigned runOnFunction(Module &M, Function &Caller, unsigned Budget,
                       unsigned &Serial) {
  unsigned Done = 0;
  // Scan a snapshot of block count: blocks added by inlining are bodies we
  // should not rescan this round.
  std::size_t OrigBlocks = Caller.Blocks.size();
  // Region membership changes only when a call is inlined (blocks are
  // split and bodies added), so it is rebuilt only then.
  std::optional<AtomicRegions> AR;
  for (std::size_t B = 0; B < OrigBlocks; ++B) {
    for (std::size_t I = 0; I < Caller.Blocks[B]->Instrs.size(); ++I) {
      const Instr &Ins = Caller.Blocks[B]->Instrs[I];
      if (Ins.Op != Opcode::Call)
        continue;
      if (!AR)
        AR.emplace(Caller);
      if (!AR->valid())
        return Done;
      Function &Callee = *M.Functions[Ins.CalleeIdx];
      if (&Callee == &Caller)
        continue; // direct recursion
      if (instrCount(Callee) > Budget)
        continue;
      bool SiteInAtomic = Caller.IsAllAtomic ||
                          AR->inAtomic(static_cast<int>(B), I);
      if (SiteInAtomic && hasAtomicMarkers(Callee))
        continue; // would textually nest regions
      inlineCall(Caller, Callee, static_cast<int>(B), I, Serial++);
      AR.reset();
      Caller.invalidateCfg();
      ++Done;
      // The block was split: everything after the call moved to the join
      // block, so this block holds no further calls this round.
      break;
    }
  }
  return Done;
}

} // namespace

OTM_STATISTIC(StatCallsInlined, "inline", "calls-inlined",
              "call sites inlined inside atomic regions");

bool InlinePass::run(Module &M) {
  Inlined = 0;
  unsigned Serial = 0;
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    unsigned ThisRound = 0;
    for (std::unique_ptr<Function> &F : M.Functions)
      ThisRound += runOnFunction(M, *F, MaxCalleeInstrs, Serial);
    Inlined += ThisRound;
    if (ThisRound == 0)
      break;
  }
  StatCallsInlined += Inlined;
  return Inlined != 0;
}
