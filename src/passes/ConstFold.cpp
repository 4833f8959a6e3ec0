//===- passes/ConstFold.cpp - Constant folding -------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/ConstFold.h"

#include "obs/Statistic.h"
#include "tmir/IntSemantics.h"

#include <optional>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

/// Evaluates a pure binary operation over two immediates with the
/// interpreter's semantics (tmir/IntSemantics.h). Returns nothing for
/// trapping cases (division by zero stays in the program).
std::optional<int64_t> evaluate(Opcode Op, int64_t A, int64_t B) {
  switch (Op) {
  case Opcode::Add:
    return wrapAdd(A, B);
  case Opcode::Sub:
    return wrapSub(A, B);
  case Opcode::Mul:
    return wrapMul(A, B);
  case Opcode::Div:
    if (B == 0)
      return std::nullopt;
    return divNonZero(A, B);
  case Opcode::Rem:
    if (B == 0)
      return std::nullopt;
    return remNonZero(A, B);
  case Opcode::And:
    return A & B;
  case Opcode::Or:
    return A | B;
  case Opcode::Xor:
    return A ^ B;
  case Opcode::Shl:
    return shiftLeft(A, B);
  case Opcode::Shr:
    return shiftRight(A, B);
  case Opcode::CmpEq:
    return A == B;
  case Opcode::CmpNe:
    return A != B;
  case Opcode::CmpLt:
    return A < B;
  case Opcode::CmpLe:
    return A <= B;
  case Opcode::CmpGt:
    return A > B;
  case Opcode::CmpGe:
    return A >= B;
  default:
    return std::nullopt;
  }
}

bool runOnFunction(Function &F, unsigned &Folded) {
  bool Changed = false;
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    // Registers known to hold a constant.
    std::vector<std::optional<int64_t>> Known(F.RegNames.size());
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs) {
        if (I.ResultReg < 0)
          continue;
        if (I.Op == Opcode::Mov && I.Operands[0].isImm()) {
          Known[I.ResultReg] = I.Operands[0].immValue();
          continue;
        }
        if (!isBinaryArith(I.Op) && !isCompare(I.Op))
          continue;
        if (!I.Operands[0].isImm() || !I.Operands[1].isImm())
          continue;
        if (std::optional<int64_t> V = evaluate(
                I.Op, I.Operands[0].immValue(), I.Operands[1].immValue())) {
          I.Op = Opcode::Mov;
          I.Operands = {Value::imm(*V)};
          Known[I.ResultReg] = *V;
          ++Folded;
          Iterate = Changed = true;
        }
      }

    // Propagate known constants into operands (the next round folds more)
    // and collapse constant conditional branches.
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs) {
        for (Value &V : I.Operands)
          if (V.isReg() && Known[V.regId()]) {
            V = Value::imm(*Known[V.regId()]);
            Iterate = Changed = true;
          }
        if (I.Op == Opcode::CondBr && I.Operands[0].isImm()) {
          int Target = I.Operands[0].immValue() ? I.TargetA : I.TargetB;
          I.Op = Opcode::Br;
          I.Operands.clear();
          I.TargetA = Target;
          I.TargetB = -1;
          F.invalidateCfg();
          ++Folded;
          Iterate = Changed = true;
        }
      }
  }
  return Changed;
}

} // namespace

OTM_STATISTIC(StatInstrsFolded, "const-fold", "instrs-folded",
              "instructions folded to constants");

bool ConstFoldPass::run(Module &M) {
  Folded = 0;
  bool Changed = false;
  for (std::unique_ptr<Function> &F : M.Functions)
    Changed |= runOnFunction(*F, Folded);
  StatInstrsFolded += Folded;
  return Changed;
}
