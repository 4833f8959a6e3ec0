//===- passes/LocalCSE.cpp - Local load/copy forwarding --------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Soundness note: TMIR registers are statically single-assignment but their
// definitions re-execute in loops, so forwarding %a -> %s is only safe when
// every re-execution of %s's definition also re-executes the forwarding
// point. That holds when both live in the same block (blocks execute
// atomically from entry to terminator). We therefore forward only values
// that are constants or registers defined earlier in the same block.
//
//===----------------------------------------------------------------------===//

#include "passes/LocalCSE.h"

#include <vector>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

bool runOnFunction(Function &F) {
  bool Changed = false;
  std::size_t NumRegs = F.RegNames.size();
  // What each register of a dropped load or copy is replaced by (None if
  // it is kept). Operands are rewritten as their instruction is reached,
  // and once more at the end for uses that precede the definition.
  std::vector<Value> Replacement(NumRegs);
  // The block whose kept instruction defines each register (-1 if none):
  // the safe forwarding sources are those defined earlier in this block.
  std::vector<int> DefBlock(NumRegs, -1);
  // The forwardable value of each local slot, valid within SlotBlock.
  std::vector<Value> SlotValue(F.Locals.size());
  std::vector<int> SlotBlock(F.Locals.size(), -1);

  auto Rewrite = [&](Instr &I) {
    for (Value &V : I.Operands)
      if (V.isReg() && !Replacement[V.regId()].isNone())
        V = Replacement[V.regId()];
  };

  for (std::unique_ptr<BasicBlock> &BB : F.Blocks) {
    const int Id = BB->Id;
    auto Forwardable = [&](const Value &V) {
      if (V.isImm() || V.isNull())
        return true;
      return V.isReg() && DefBlock[V.regId()] == Id;
    };

    std::vector<Instr> &Instrs = BB->Instrs;
    std::size_t Kept = 0;
    for (std::size_t II = 0; II < Instrs.size(); ++II) {
      Instr &I = Instrs[II];
      Rewrite(I);
      bool Drop = false;
      switch (I.Op) {
      case Opcode::LoadLocal:
        if (SlotBlock[I.LocalIdx] == Id) {
          if (I.ResultReg >= 0)
            Replacement[I.ResultReg] = SlotValue[I.LocalIdx];
          Drop = true; // the redundant load
        } else if (I.ResultReg >= 0) {
          // A load without a result gives later loads nothing to reuse.
          SlotValue[I.LocalIdx] = Value::reg(I.ResultReg);
          SlotBlock[I.LocalIdx] = Id;
        }
        break;
      case Opcode::StoreLocal:
        if (Forwardable(I.Operands[0])) {
          SlotValue[I.LocalIdx] = I.Operands[0];
          SlotBlock[I.LocalIdx] = Id;
        } else {
          SlotBlock[I.LocalIdx] = -1;
        }
        break;
      case Opcode::Mov:
        if (Forwardable(I.Operands[0])) {
          Replacement[I.ResultReg] = I.Operands[0];
          Drop = true; // the copy
        }
        break;
      default:
        break;
      }
      if (Drop) {
        Changed = true;
        continue;
      }
      if (I.ResultReg >= 0)
        DefBlock[I.ResultReg] = Id;
      if (Kept != II)
        Instrs[Kept] = std::move(I);
      ++Kept;
    }
    Instrs.resize(Kept);
  }

  if (Changed)
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs)
        Rewrite(I);
  return Changed;
}

} // namespace

bool LocalCsePass::run(Module &M) {
  bool Changed = false;
  for (std::unique_ptr<Function> &F : M.Functions)
    Changed |= runOnFunction(*F);
  return Changed;
}
