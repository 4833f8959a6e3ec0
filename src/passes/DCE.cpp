//===- passes/DCE.cpp - Dead code elimination -------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/DCE.h"

#include <vector>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

/// Instructions with no side effects and no traps: safe to drop when the
/// result is unused. Heap reads are excluded (they can fault on null).
bool isRemovableWhenUnused(const Instr &I) {
  if (I.ResultReg < 0)
    return false;
  switch (I.Op) {
  case Opcode::Mov:
  case Opcode::LoadLocal:
    return true;
  case Opcode::Div:
  case Opcode::Rem:
    return false; // may trap on a zero divisor
  default:
    return isBinaryArith(I.Op) || isCompare(I.Op);
  }
}

bool runOnFunction(Function &F) {
  bool Changed = false;
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    std::vector<uint8_t> Used(F.RegNames.size(), 0);
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs)
        for (const Value &V : I.Operands)
          if (V.isReg())
            Used[V.regId()] = 1;
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks) {
      std::vector<Instr> &Instrs = BB->Instrs;
      std::size_t Kept = 0;
      for (std::size_t II = 0; II < Instrs.size(); ++II) {
        if (isRemovableWhenUnused(Instrs[II]) && !Used[Instrs[II].ResultReg]) {
          Changed = Iterate = true;
          continue;
        }
        if (Kept != II)
          Instrs[Kept] = std::move(Instrs[II]);
        ++Kept;
      }
      Instrs.resize(Kept);
    }
  }
  return Changed;
}

} // namespace

bool DcePass::run(Module &M) {
  bool Changed = false;
  for (std::unique_ptr<Function> &F : M.Functions)
    Changed |= runOnFunction(*F);
  return Changed;
}
