//===- tmir/Liveness.cpp - Register & local liveness ----------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/Liveness.h"

using namespace otm;
using namespace otm::tmir;

namespace {

/// Applies one instruction's transfer function in reverse:
/// kill the definition, then gen the uses.
void transferBackward(const Instr &I, BitVector &Regs, BitVector &Locals) {
  if (I.ResultReg >= 0)
    Regs.reset(static_cast<std::size_t>(I.ResultReg));
  if (I.Op == Opcode::StoreLocal)
    Locals.reset(static_cast<std::size_t>(I.LocalIdx));
  for (const Value &V : I.Operands)
    if (V.isReg())
      Regs.set(static_cast<std::size_t>(V.regId()));
  if (I.Op == Opcode::LoadLocal)
    Locals.set(static_cast<std::size_t>(I.LocalIdx));
}

} // namespace

LivenessInfo tmir::computeLiveness(const Function &F) {
  std::size_t N = F.Blocks.size();
  std::size_t NumRegs = static_cast<std::size_t>(F.numRegs());
  std::size_t NumLocals = F.Locals.size();

  LivenessInfo LI;
  LI.RegIn.assign(N, BitVector(NumRegs));
  LI.RegOut.assign(N, BitVector(NumRegs));
  LI.LocalIn.assign(N, BitVector(NumLocals));
  LI.LocalOut.assign(N, BitVector(NumLocals));

  // Scratch sets, reused for every block: assignment between equally
  // sized vectors keeps their storage.
  BitVector RegOut(NumRegs), LocalOut(NumLocals);
  BitVector Regs(NumRegs), Locals(NumLocals);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (std::size_t BI = N; BI > 0; --BI) {
      std::size_t B = BI - 1;
      // OUT = union of successor INs (may-analysis).
      RegOut.resetAll();
      LocalOut.resetAll();
      for (int S : F.Blocks[B]->successors()) {
        RegOut.unionWith(LI.RegIn[S]);
        LocalOut.unionWith(LI.LocalIn[S]);
      }
      Regs = RegOut;
      Locals = LocalOut;
      const std::vector<Instr> &Instrs = F.Blocks[B]->Instrs;
      for (std::size_t I = Instrs.size(); I > 0; --I)
        transferBackward(Instrs[I - 1], Regs, Locals);
      if (RegOut != LI.RegOut[B] || LocalOut != LI.LocalOut[B] ||
          Regs != LI.RegIn[B] || Locals != LI.LocalIn[B]) {
        LI.RegOut[B] = RegOut;
        LI.LocalOut[B] = LocalOut;
        LI.RegIn[B] = Regs;
        LI.LocalIn[B] = Locals;
        Changed = true;
      }
    }
  }
  return LI;
}

void tmir::liveBeforeInstr(const Function &F, const LivenessInfo &LI,
                           int Block, std::size_t InstrIdx, BitVector &Regs,
                           BitVector &Locals) {
  Regs = LI.RegOut[Block];
  Locals = LI.LocalOut[Block];
  const std::vector<Instr> &Instrs = F.Blocks[Block]->Instrs;
  for (std::size_t I = Instrs.size(); I > InstrIdx; --I)
    transferBackward(Instrs[I - 1], Regs, Locals);
}
