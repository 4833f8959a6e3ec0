//===- interp/Decoder.cpp - TMIR -> bytecode decoder ----------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Decoder.h"

#include "obs/Statistic.h"
#include "tmir/Liveness.h"

#include <cassert>
#include <optional>
#include <unordered_map>

using namespace otm;
using namespace otm::interp;
using namespace otm::tmir;

OTM_STATISTIC(NumFuncsDecoded, "interp-decode", "funcs-decoded",
              "functions flattened to bytecode");
OTM_STATISTIC(NumInstrsDecoded, "interp-decode", "instrs-decoded",
              "bytecode instructions emitted");
OTM_STATISTIC(NumSnapSlotsFull, "interp-decode", "region-slots-full",
              "reg+local slots a whole-frame region snapshot would copy");
OTM_STATISTIC(NumSnapSlotsLive, "interp-decode", "region-slots-live",
              "slots actually in the live-across-region snapshot windows");

namespace {

class FunctionDecoder {
public:
  FunctionDecoder(const Function &F, Interpreter::TxMode Mode)
      : F(F), Mode(Mode) {}

  DecodedFunction decode() {
    DF.Src = &F;
    DF.NumRegs = static_cast<uint32_t>(F.numRegs());
    DF.NumLocals = static_cast<uint32_t>(F.Locals.size());
    DF.LocalBase = DF.NumRegs;
    DF.ConstBase = DF.NumRegs + DF.NumLocals;

    // Flat offsets: blocks lay out in order, one DInstr per tmir::Instr
    // (the 1:1 mapping keeps dynamic instruction counts identical to the
    // tree-walking semantics).
    BlockStart.reserve(F.Blocks.size());
    uint32_t Off = 0;
    for (const auto &BB : F.Blocks) {
      BlockStart.push_back(Off);
      Off += static_cast<uint32_t>(BB->Instrs.size());
    }
    DF.Code.reserve(Off);

    for (const auto &BB : F.Blocks)
      for (std::size_t Idx = 0; Idx < BB->Instrs.size(); ++Idx)
        emit(BB->Instrs[Idx], BB->Id, Idx);

    // Slot typing for the GC: registers and locals carry their declared
    // types; constants are never references.
    DF.NumSlots = DF.ConstBase + static_cast<uint32_t>(DF.Consts.size());
    DF.RefSlot.assign(DF.NumSlots, false);
    for (uint32_t R = 0; R < DF.NumRegs; ++R)
      DF.RefSlot[R] = F.RegTypes[R].isRef();
    for (uint32_t L = 0; L < DF.NumLocals; ++L)
      DF.RefSlot[DF.LocalBase + L] = F.Locals[L].Ty.isRef();

    ++NumFuncsDecoded;
    NumInstrsDecoded += DF.Code.size();
    return std::move(DF);
  }

private:
  uint32_t constSlot(int64_t V) {
    auto [It, Inserted] = ConstIndex.try_emplace(
        V, DF.ConstBase + static_cast<uint32_t>(DF.Consts.size()));
    if (Inserted)
      DF.Consts.push_back(V);
    return It->second;
  }

  uint32_t slotOf(const Value &V) {
    switch (V.kind()) {
    case Value::Kind::Reg:
      return static_cast<uint32_t>(V.regId());
    case Value::Kind::Imm:
      return constSlot(V.immValue());
    case Value::Kind::Null:
      return constSlot(0);
    case Value::Kind::None:
      break;
    }
    assert(false && "malformed operand survived verification");
    return constSlot(0);
  }

  /// The slots live immediately before the `atomic_begin` at
  /// (\p Block, \p Idx): what a restart there may still read.
  void emitSnapshotWindow(DInstr &D, int Block, std::size_t Idx) {
    if (!LI)
      LI = computeLiveness(F);
    BitVector Regs, Locals;
    liveBeforeInstr(F, *LI, Block, Idx, Regs, Locals);
    D.A = static_cast<uint32_t>(DF.Pool.size());
    for (uint32_t R = 0; R < DF.NumRegs; ++R)
      if (Regs.test(R))
        DF.Pool.push_back(R);
    for (uint32_t L = 0; L < DF.NumLocals; ++L)
      if (Locals.test(L))
        DF.Pool.push_back(DF.LocalBase + L);
    D.B = static_cast<uint32_t>(DF.Pool.size()) - D.A;
    NumSnapSlotsFull += DF.NumRegs + DF.NumLocals;
    NumSnapSlotsLive += D.B;
  }

  void emit(const Instr &I, int Block, std::size_t Idx) {
    DInstr D;
    if (I.ResultReg >= 0)
      D.Dst = static_cast<uint32_t>(I.ResultReg);
    switch (I.Op) {
    case Opcode::Mov:
      D.Op = DOp::Mov;
      D.A = slotOf(I.Operands[0]);
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
      // The two opcode enums share the arithmetic/compare block layout.
      D.Op = static_cast<DOp>(
          static_cast<unsigned>(DOp::Add) +
          (static_cast<unsigned>(I.Op) - static_cast<unsigned>(Opcode::Add)));
      D.A = slotOf(I.Operands[0]);
      D.B = slotOf(I.Operands[1]);
      break;
    case Opcode::LoadLocal:
      D.Op = DOp::Mov;
      D.A = DF.LocalBase + static_cast<uint32_t>(I.LocalIdx);
      break;
    case Opcode::StoreLocal:
      D.Op = DOp::Mov;
      D.Dst = DF.LocalBase + static_cast<uint32_t>(I.LocalIdx);
      D.A = slotOf(I.Operands[0]);
      break;
    case Opcode::NewObj:
      D.Op = DOp::NewObj;
      D.C = static_cast<uint32_t>(I.ClassId);
      break;
    case Opcode::NewArr:
      D.Op = DOp::NewArr;
      D.A = slotOf(I.Operands[0]);
      break;
    case Opcode::GetField:
      D.Op = DOp::GetField;
      D.A = slotOf(I.Operands[0]);
      D.Aux = static_cast<uint16_t>(I.FieldIdx);
      D.C = I.ClassId >= 0 ? static_cast<uint32_t>(I.ClassId) : NoClass;
      break;
    case Opcode::SetField:
      D.Op = DOp::SetField;
      D.A = slotOf(I.Operands[0]);
      D.B = slotOf(I.Operands[1]);
      D.Aux = static_cast<uint16_t>(I.FieldIdx);
      D.C = I.ClassId >= 0 ? static_cast<uint32_t>(I.ClassId) : NoClass;
      break;
    case Opcode::ArrLen:
      D.Op = DOp::ArrLen;
      D.A = slotOf(I.Operands[0]);
      break;
    case Opcode::ArrGet:
      D.Op = DOp::ArrGet;
      D.A = slotOf(I.Operands[0]);
      D.B = slotOf(I.Operands[1]);
      break;
    case Opcode::ArrSet:
      D.Op = DOp::ArrSet;
      D.A = slotOf(I.Operands[0]);
      D.B = slotOf(I.Operands[1]);
      D.C = slotOf(I.Operands[2]);
      break;
    case Opcode::Call:
      D.Op = DOp::Call;
      D.A = static_cast<uint32_t>(DF.Pool.size());
      for (const Value &V : I.Operands)
        DF.Pool.push_back(slotOf(V));
      D.B = static_cast<uint32_t>(I.Operands.size());
      D.C = static_cast<uint32_t>(I.CalleeIdx);
      break;
    case Opcode::Print:
      D.Op = DOp::Print;
      D.A = slotOf(I.Operands[0]);
      break;
    case Opcode::AtomicBegin:
      switch (Mode) {
      case Interpreter::TxMode::IgnoreAtomic:
        D.Op = DOp::AtomicNop;
        break;
      case Interpreter::TxMode::GlobalLock:
        D.Op = DOp::AtomicBeginLock;
        break;
      case Interpreter::TxMode::ObjStm:
        D.Op = DOp::AtomicBeginStm;
        emitSnapshotWindow(D, Block, Idx);
        break;
      }
      break;
    case Opcode::AtomicEnd:
      switch (Mode) {
      case Interpreter::TxMode::IgnoreAtomic:
        D.Op = DOp::AtomicNop;
        break;
      case Interpreter::TxMode::GlobalLock:
        D.Op = DOp::AtomicEndLock;
        break;
      case Interpreter::TxMode::ObjStm:
        D.Op = DOp::AtomicEndStm;
        break;
      }
      break;
    case Opcode::OpenForRead:
      D.Op = Mode == Interpreter::TxMode::ObjStm ? DOp::OpenRead
                                                 : DOp::OpenReadCnt;
      D.A = slotOf(I.Operands[0]);
      break;
    case Opcode::OpenForUpdate:
      D.Op = Mode == Interpreter::TxMode::ObjStm ? DOp::OpenUpdate
                                                 : DOp::OpenUpdateCnt;
      D.A = slotOf(I.Operands[0]);
      break;
    case Opcode::LogUndoField:
      D.Op = Mode == Interpreter::TxMode::ObjStm ? DOp::UndoField
                                                 : DOp::UndoFieldCnt;
      D.A = slotOf(I.Operands[0]);
      D.Aux = static_cast<uint16_t>(I.FieldIdx);
      break;
    case Opcode::LogUndoElem:
      D.Op = Mode == Interpreter::TxMode::ObjStm ? DOp::UndoElem
                                                 : DOp::UndoElemCnt;
      D.A = slotOf(I.Operands[0]);
      D.B = slotOf(I.Operands[1]);
      break;
    case Opcode::Br:
      D.Op = DOp::Jump;
      D.B = BlockStart[I.TargetA];
      break;
    case Opcode::CondBr:
      D.Op = DOp::Branch;
      D.A = slotOf(I.Operands[0]);
      D.B = BlockStart[I.TargetA];
      D.C = BlockStart[I.TargetB];
      break;
    case Opcode::Ret:
      D.Op = DOp::Ret;
      D.A = I.Operands.empty() ? constSlot(0) : slotOf(I.Operands[0]);
      break;
    }
    DF.Code.push_back(D);
  }

  const Function &F;
  Interpreter::TxMode Mode;
  DecodedFunction DF;
  std::vector<uint32_t> BlockStart;
  std::unordered_map<int64_t, uint32_t> ConstIndex;
  std::optional<LivenessInfo> LI; ///< computed lazily, once per function
};

} // namespace

DecodedModule interp::decodeModule(const Module &M,
                                   Interpreter::TxMode Mode) {
  DecodedModule DM;
  DM.Funcs.reserve(M.Functions.size());
  for (const auto &F : M.Functions)
    DM.Funcs.push_back(FunctionDecoder(*F, Mode).decode());
  return DM;
}
