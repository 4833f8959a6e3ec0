//===- tmir/Verifier.cpp - TMIR structural & type verifier ---------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/Verifier.h"

#include "support/Compiler.h"

#include <cstdio>
#include <cstdlib>

using namespace otm;
using namespace otm::tmir;

namespace {

/// Per-register work arrays, reused across the functions of a module.
struct VerifierScratch {
  std::vector<uint8_t> Defined;
  std::vector<int> MovSrc;
  std::vector<int> Chain;
};

class FunctionVerifier {
public:
  FunctionVerifier(Module &M, Function &F, std::string &Error,
                   VerifierScratch &Scratch)
      : M(M), F(F), Error(Error), Scratch(Scratch) {}

  bool run() {
    if (F.Blocks.empty())
      return fail("function has no blocks");
    if (!checkStructure())
      return false;
    if (!inferDefTypes())
      return false;
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs)
        if (!checkInstr(*BB, I))
          return false;
    return true;
  }

private:
  bool fail(const std::string &Msg) {
    Error = "function " + F.Name + ": " + Msg;
    return false;
  }

  bool failIn(const BasicBlock &BB, const std::string &Msg) {
    return fail("block " + BB.Name + ": " + Msg);
  }

  bool checkStructure() {
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks) {
      if (BB->Instrs.empty())
        return failIn(*BB, "empty block");
      for (std::size_t I = 0; I + 1 < BB->Instrs.size(); ++I)
        if (isTerminator(BB->Instrs[I].Op))
          return failIn(*BB, "terminator before end of block");
      if (!isTerminator(BB->Instrs.back().Op))
        return failIn(*BB, "missing terminator");
      for (int Succ : BB->successors())
        if (Succ < 0 || Succ >= static_cast<int>(F.Blocks.size()))
          return failIn(*BB, "branch target out of range");
    }
    return true;
  }

  /// Computes the type of every register from its unique definition, in
  /// one pass over the instructions plus a walk along mov chains: only a
  /// register-to-register mov takes its type from another register, whose
  /// definition may come later in the function. A mov chain that ends in
  /// a cycle of movs, or in a register never defined, stays void.
  bool inferDefTypes() {
    std::size_t NumRegs = F.RegNames.size();
    F.RegTypes.assign(NumRegs, Type::makeVoid());
    std::vector<uint8_t> &Defined = Scratch.Defined;
    Defined.assign(NumRegs, 0);
    // Source register of each register defined by a register mov whose
    // type is not known yet, else -1.
    std::vector<int> &MovSrc = Scratch.MovSrc;
    MovSrc.assign(NumRegs, -1);
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs) {
        if (I.ResultReg < 0)
          continue;
        if (I.ResultReg >= F.numRegs())
          return failIn(*BB, "result register out of range");
        if (Defined[I.ResultReg])
          return failIn(*BB, "register %" + F.RegNames[I.ResultReg] +
                                 " defined more than once");
        Defined[I.ResultReg] = 1;
        if (I.Op == Opcode::Mov && I.Operands[0].isReg())
          MovSrc[I.ResultReg] = I.Operands[0].regId();
        else
          F.RegTypes[I.ResultReg] = resultType(I);
      }
    std::vector<int> &Chain = Scratch.Chain;
    for (std::size_t R = 0; R < NumRegs; ++R) {
      if (MovSrc[R] < 0)
        continue;
      // Follow the chain to a register whose type is known, marking each
      // visited mov (MovSrc = -2) so a cycle stops the walk.
      Chain.clear();
      int Cur = static_cast<int>(R);
      while (MovSrc[Cur] >= 0) {
        Chain.push_back(Cur);
        int Next = MovSrc[Cur];
        MovSrc[Cur] = -2;
        Cur = Next;
      }
      Type Ty = MovSrc[Cur] == -2 ? Type::makeVoid() : F.RegTypes[Cur];
      for (int C : Chain) {
        F.RegTypes[C] = Ty;
        MovSrc[C] = -1;
      }
    }
    // Every used register must have a definition somewhere.
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks)
      for (Instr &I : BB->Instrs)
        for (const Value &V : I.Operands)
          if (V.isReg() && !Defined[V.regId()])
            return failIn(*BB, "register %" + F.RegNames[V.regId()] +
                                   " used but never defined");
    return true;
  }

  Type resultType(const Instr &I) {
    switch (I.Op) {
    case Opcode::Mov:
      return operandStaticType(I.Operands[0]);
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::ArrLen:
    case Opcode::ArrGet:
      return Type::makeI64();
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      return Type::makeI1();
    case Opcode::LoadLocal:
      return F.Locals[I.LocalIdx].Ty;
    case Opcode::NewObj:
      return Type::makeObj(I.ClassId);
    case Opcode::GetField:
      return M.Classes[I.ClassId].Fields[I.FieldIdx].Ty;
    case Opcode::NewArr:
      return Type::makeArr();
    case Opcode::Call:
      return M.Functions[I.CalleeIdx]->ReturnTy;
    default:
      return Type::makeVoid();
    }
  }

  /// Static type of an operand for Mov inference; immediates are i64.
  Type operandStaticType(const Value &V) {
    if (V.isReg())
      return F.RegTypes[V.regId()];
    if (V.isNull())
      return Type::makeArr(); // placeholder ref type; compat() accepts
    return Type::makeI64();
  }

  /// Operand compatibility with an expected type.
  bool compat(const Value &V, const Type &Expected) {
    switch (V.kind()) {
    case Value::Kind::Imm:
      if (Expected.isI1())
        return V.immValue() == 0 || V.immValue() == 1;
      return Expected.isI64();
    case Value::Kind::Null:
      return Expected.isRef();
    case Value::Kind::Reg: {
      const Type &Actual = F.RegTypes[V.regId()];
      if (Actual == Expected)
        return true;
      // Reference types are mutually assignable (mov-of-null erases the
      // class; the interpreter traps on genuinely wrong field accesses).
      return Expected.isRef() && Actual.isRef();
    }
    case Value::Kind::None:
      return false;
    }
    return false;
  }

  bool isRefOperand(const Value &V) {
    if (V.isNull())
      return true;
    return V.isReg() && F.RegTypes[V.regId()].isRef();
  }

  bool checkInstr(const BasicBlock &BB, const Instr &I) {
    auto Bad = [&](const std::string &Msg) {
      return failIn(BB, "'" + printInstr(M, F, I) + "': " + Msg);
    };

    switch (I.Op) {
    case Opcode::Mov:
      if (I.ResultReg < 0)
        return Bad("mov needs a result");
      return true;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
      if (I.ResultReg < 0)
        return Bad("arithmetic needs a result");
      if (!compat(I.Operands[0], Type::makeI64()) ||
          !compat(I.Operands[1], Type::makeI64()))
        return Bad("arithmetic operands must be i64");
      return true;
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
      if (!compat(I.Operands[0], Type::makeI64()) ||
          !compat(I.Operands[1], Type::makeI64()))
        return Bad("ordered comparison operands must be i64");
      return true;
    case Opcode::CmpEq:
    case Opcode::CmpNe: {
      bool BothInt = compat(I.Operands[0], Type::makeI64()) &&
                     compat(I.Operands[1], Type::makeI64());
      bool BothRef = isRefOperand(I.Operands[0]) && isRefOperand(I.Operands[1]);
      bool BothBool = compat(I.Operands[0], Type::makeI1()) &&
                      compat(I.Operands[1], Type::makeI1());
      if (!BothInt && !BothRef && !BothBool)
        return Bad("equality operands must both be i64, i1 or references");
      return true;
    }
    case Opcode::LoadLocal:
      if (I.LocalIdx < 0 || I.LocalIdx >= static_cast<int>(F.Locals.size()))
        return Bad("bad local index");
      return true;
    case Opcode::StoreLocal:
      if (I.LocalIdx < 0 || I.LocalIdx >= static_cast<int>(F.Locals.size()))
        return Bad("bad local index");
      if (!compat(I.Operands[0], F.Locals[I.LocalIdx].Ty))
        return Bad("stored value does not match local type");
      return true;
    case Opcode::NewObj:
      if (I.ClassId < 0 || I.ClassId >= static_cast<int>(M.Classes.size()))
        return Bad("bad class");
      return true;
    case Opcode::GetField:
    case Opcode::SetField:
    case Opcode::LogUndoField: {
      if (I.ClassId < 0 || I.ClassId >= static_cast<int>(M.Classes.size()))
        return Bad("bad class");
      const ClassDecl &C = M.Classes[I.ClassId];
      if (I.FieldIdx < 0 || I.FieldIdx >= static_cast<int>(C.Fields.size()))
        return Bad("bad field index");
      if (!compat(I.Operands[0], Type::makeObj(I.ClassId)))
        return Bad("object operand must be a " + C.Name + " reference");
      if (I.Op == Opcode::SetField &&
          !compat(I.Operands[1], C.Fields[I.FieldIdx].Ty))
        return Bad("stored value does not match field type");
      return true;
    }
    case Opcode::NewArr:
      return compat(I.Operands[0], Type::makeI64())
                 ? true
                 : Bad("array length must be i64");
    case Opcode::ArrLen:
    case Opcode::ArrGet:
    case Opcode::ArrSet:
    case Opcode::LogUndoElem: {
      if (!compat(I.Operands[0], Type::makeArr()))
        return Bad("array operand must be arr");
      if (I.Op != Opcode::ArrLen && !compat(I.Operands[1], Type::makeI64()))
        return Bad("array index must be i64");
      if (I.Op == Opcode::ArrSet && !compat(I.Operands[2], Type::makeI64()))
        return Bad("array element must be i64");
      return true;
    }
    case Opcode::Call: {
      const Function &Callee = *M.Functions[I.CalleeIdx];
      if (I.Operands.size() != Callee.NumParams)
        return Bad("call arity mismatch");
      for (unsigned A = 0; A < Callee.NumParams; ++A)
        if (!compat(I.Operands[A], Callee.Locals[A].Ty))
          return Bad("argument " + std::to_string(A) + " type mismatch");
      if (I.ResultReg >= 0 && Callee.ReturnTy.isVoid())
        return Bad("void call cannot define a register");
      return true;
    }
    case Opcode::Print:
      return compat(I.Operands[0], Type::makeI64())
                 ? true
                 : Bad("print takes an i64");
    case Opcode::AtomicBegin:
    case Opcode::AtomicEnd:
      return true;
    case Opcode::OpenForRead:
    case Opcode::OpenForUpdate:
      return isRefOperand(I.Operands[0])
                 ? true
                 : Bad("barrier operand must be a reference");
    case Opcode::Br:
      return true;
    case Opcode::CondBr:
      return compat(I.Operands[0], Type::makeI1())
                 ? true
                 : Bad("branch condition must be i1");
    case Opcode::Ret:
      if (F.ReturnTy.isVoid())
        return I.Operands.empty() ? true : Bad("void function returns a value");
      if (I.Operands.empty())
        return Bad("non-void function must return a value");
      return compat(I.Operands[0], F.ReturnTy)
                 ? true
                 : Bad("return value type mismatch");
    }
    OTM_UNREACHABLE("unhandled opcode in verifier");
  }

  Module &M;
  Function &F;
  std::string &Error;
  VerifierScratch &Scratch;
};

} // namespace

bool tmir::verifyModule(Module &M, std::string &Error) {
  VerifierScratch Scratch;
  for (std::unique_ptr<Function> &F : M.Functions) {
    FunctionVerifier V(M, *F, Error, Scratch);
    if (!V.run())
      return false;
  }
  return true;
}

void tmir::verifyModuleOrDie(Module &M) {
  std::string Error;
  if (!verifyModule(M, Error)) {
    std::fprintf(stderr, "TMIR verifier error: %s\n", Error.c_str());
    std::abort();
  }
}
