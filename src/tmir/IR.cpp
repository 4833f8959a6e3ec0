//===- tmir/IR.cpp - TMIR core implementation ----------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/IR.h"

#include "support/Compiler.h"
#include "tmir/CfgInfo.h"

#include <sstream>

using namespace otm;
using namespace otm::tmir;

const char *tmir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Mov:
    return "mov";
  case Opcode::Add:
    return "add";
  case Opcode::Sub:
    return "sub";
  case Opcode::Mul:
    return "mul";
  case Opcode::Div:
    return "div";
  case Opcode::Rem:
    return "rem";
  case Opcode::And:
    return "and";
  case Opcode::Or:
    return "or";
  case Opcode::Xor:
    return "xor";
  case Opcode::Shl:
    return "shl";
  case Opcode::Shr:
    return "shr";
  case Opcode::CmpEq:
    return "cmpeq";
  case Opcode::CmpNe:
    return "cmpne";
  case Opcode::CmpLt:
    return "cmplt";
  case Opcode::CmpLe:
    return "cmple";
  case Opcode::CmpGt:
    return "cmpgt";
  case Opcode::CmpGe:
    return "cmpge";
  case Opcode::LoadLocal:
    return "loadlocal";
  case Opcode::StoreLocal:
    return "storelocal";
  case Opcode::NewObj:
    return "newobj";
  case Opcode::GetField:
    return "getfield";
  case Opcode::SetField:
    return "setfield";
  case Opcode::NewArr:
    return "newarr";
  case Opcode::ArrLen:
    return "arrlen";
  case Opcode::ArrGet:
    return "arrget";
  case Opcode::ArrSet:
    return "arrset";
  case Opcode::Call:
    return "call";
  case Opcode::Print:
    return "print";
  case Opcode::AtomicBegin:
    return "atomic_begin";
  case Opcode::AtomicEnd:
    return "atomic_end";
  case Opcode::OpenForRead:
    return "open_read";
  case Opcode::OpenForUpdate:
    return "open_update";
  case Opcode::LogUndoField:
    return "log_undo_field";
  case Opcode::LogUndoElem:
    return "log_undo_elem";
  case Opcode::Br:
    return "br";
  case Opcode::CondBr:
    return "condbr";
  case Opcode::Ret:
    return "ret";
  }
  OTM_UNREACHABLE("unknown opcode");
}

bool tmir::isTerminator(Opcode Op) {
  return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
}

bool tmir::isBarrier(Opcode Op) {
  return Op == Opcode::OpenForRead || Op == Opcode::OpenForUpdate ||
         Op == Opcode::LogUndoField || Op == Opcode::LogUndoElem;
}

bool tmir::isBinaryArith(Opcode Op) {
  switch (Op) {
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
    return true;
  default:
    return false;
  }
}

bool tmir::isCompare(Opcode Op) {
  switch (Op) {
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
    return true;
  default:
    return false;
  }
}

Function::Function(std::string Name, int Id) : Name(std::move(Name)), Id(Id) {}

Function::~Function() = default;

const CfgInfo &Function::cfg() const {
  if (!Cfg)
    Cfg = std::make_unique<CfgInfo>(*this);
  assert(Cfg->matches(*this) && "stale CFG analyses: missing invalidateCfg()");
  return *Cfg;
}

void Function::invalidateCfg() { Cfg.reset(); }

std::vector<std::vector<int>> Function::computePredecessors() const {
  std::vector<std::vector<int>> Preds(Blocks.size());
  for (const std::unique_ptr<BasicBlock> &BB : Blocks)
    for (int Succ : BB->successors())
      Preds[Succ].push_back(BB->Id);
  return Preds;
}

//===----------------------------------------------------------------------===
// Printing
//===----------------------------------------------------------------------===

namespace {

std::string typeName(const Module &M, const Type &Ty) {
  switch (Ty.kind()) {
  case TypeKind::Void:
    return "void";
  case TypeKind::I64:
    return "i64";
  case TypeKind::I1:
    return "i1";
  case TypeKind::Arr:
    return "arr";
  case TypeKind::Obj:
    return M.Classes[Ty.classId()].Name;
  }
  OTM_UNREACHABLE("unknown type kind");
}

std::string valueText(const Function &F, const Value &V) {
  switch (V.kind()) {
  case Value::Kind::Reg:
    return "%" + F.RegNames[V.regId()];
  case Value::Kind::Imm:
    return std::to_string(V.immValue());
  case Value::Kind::Null:
    return "null";
  case Value::Kind::None:
    return "<none>";
  }
  OTM_UNREACHABLE("unknown value kind");
}

std::string fieldRef(const Module &M, const Instr &I) {
  const ClassDecl &C = M.Classes[I.ClassId];
  return C.Name + "." + C.Fields[I.FieldIdx].Name;
}

} // namespace

std::string tmir::printInstr(const Module &M, const Function &F,
                             const Instr &I) {
  std::ostringstream OS;
  if (I.ResultReg >= 0)
    OS << "%" << F.RegNames[I.ResultReg] << " = ";
  OS << opcodeName(I.Op);

  auto Operand = [&](std::size_t Idx) { return valueText(F, I.Operands[Idx]); };

  switch (I.Op) {
  case Opcode::Mov:
  case Opcode::Print:
  case Opcode::OpenForRead:
  case Opcode::OpenForUpdate:
  case Opcode::NewArr:
  case Opcode::ArrLen:
    OS << " " << Operand(0);
    break;
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
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLt:
  case Opcode::CmpLe:
  case Opcode::CmpGt:
  case Opcode::CmpGe:
  case Opcode::ArrGet:
  case Opcode::LogUndoElem:
    OS << " " << Operand(0) << ", " << Operand(1);
    break;
  case Opcode::LoadLocal:
    OS << " " << F.Locals[I.LocalIdx].Name;
    break;
  case Opcode::StoreLocal:
    OS << " " << F.Locals[I.LocalIdx].Name << ", " << Operand(0);
    break;
  case Opcode::NewObj:
    OS << " " << M.Classes[I.ClassId].Name;
    break;
  case Opcode::GetField:
    OS << " " << Operand(0) << ", " << fieldRef(M, I);
    break;
  case Opcode::SetField:
    OS << " " << Operand(0) << ", " << fieldRef(M, I) << ", " << Operand(1);
    break;
  case Opcode::LogUndoField:
    OS << " " << Operand(0) << ", " << fieldRef(M, I);
    break;
  case Opcode::ArrSet:
    OS << " " << Operand(0) << ", " << Operand(1) << ", " << Operand(2);
    break;
  case Opcode::Call: {
    OS << " " << M.Functions[I.CalleeIdx]->Name << "(";
    for (std::size_t Idx = 0; Idx < I.Operands.size(); ++Idx) {
      if (Idx)
        OS << ", ";
      OS << Operand(Idx);
    }
    OS << ")";
    break;
  }
  case Opcode::AtomicBegin:
  case Opcode::AtomicEnd:
    break;
  case Opcode::Br:
    OS << " " << F.Blocks[I.TargetA]->Name;
    break;
  case Opcode::CondBr:
    OS << " " << Operand(0) << ", " << F.Blocks[I.TargetA]->Name << ", "
       << F.Blocks[I.TargetB]->Name;
    break;
  case Opcode::Ret:
    if (!I.Operands.empty())
      OS << " " << Operand(0);
    break;
  }
  return OS.str();
}

std::string tmir::printFunction(const Module &M, const Function &F) {
  std::ostringstream OS;
  OS << (F.IsAllAtomic ? "txfunc " : "func ") << F.Name << "(";
  for (unsigned I = 0; I < F.NumParams; ++I) {
    if (I)
      OS << ", ";
    OS << F.Locals[I].Name << ": " << typeName(M, F.Locals[I].Ty);
  }
  OS << ")";
  if (!F.ReturnTy.isVoid())
    OS << ": " << typeName(M, F.ReturnTy);
  OS << " {\n";
  for (std::size_t I = F.NumParams; I < F.Locals.size(); ++I)
    OS << "  var " << F.Locals[I].Name << ": " << typeName(M, F.Locals[I].Ty)
       << "\n";
  for (const std::unique_ptr<BasicBlock> &BB : F.Blocks) {
    OS << BB->Name << ":\n";
    for (const Instr &I : BB->Instrs)
      OS << "  " << printInstr(M, F, I) << "\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string tmir::printModule(const Module &M) {
  std::ostringstream OS;
  for (const ClassDecl &C : M.Classes) {
    OS << "class " << C.Name << " {";
    for (std::size_t I = 0; I < C.Fields.size(); ++I) {
      if (I)
        OS << ",";
      OS << " " << C.Fields[I].Name << ": " << typeName(M, C.Fields[I].Ty);
    }
    OS << " }\n\n";
  }
  for (const std::unique_ptr<Function> &F : M.Functions)
    OS << printFunction(M, *F) << "\n";
  return OS.str();
}
