//===- passes/DataflowUtil.h - Barrier dataflow helpers --------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the barrier dataflow passes: packed fact keys
/// (open-available, undo-logged, freshly-allocated, anticipated-update),
/// a per-function dense numbering of those keys, and optimistic worklist
/// solvers over bit-vector fact sets.
///
/// Facts always refer to virtual registers; because each register has one
/// static definition, a fact is invalidated exactly when its register's
/// defining instruction re-executes — so the transfer functions kill all
/// facts mentioning a register at its definition, which is what makes the
/// analysis sound around loop back edges.
///
/// Each pass numbers the facts it can generate in a function once
/// (FactTable); a fact set is then a BitVector over those numbers, and
/// killing a register's facts is one and-not with that register's mask.
/// A fact no instruction generates has no number and is never in a set.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_PASSES_DATAFLOWUTIL_H
#define OTM_PASSES_DATAFLOWUTIL_H

#include "support/BitVector.h"
#include "tmir/CfgInfo.h"
#include "tmir/IR.h"

#include <cstdint>
#include <vector>

namespace otm {
namespace passes {

//===----------------------------------------------------------------------===
// Fact keys
//===----------------------------------------------------------------------===

enum class FactKind : uint64_t {
  OpenRead = 1,   ///< object in reg is enlisted for read
  OpenUpdate = 2, ///< object in reg is owned for update
  UndoField = 3,  ///< (reg, class, field) already undo-logged
  UndoElemImm = 4,///< (reg, constant index) already undo-logged
  UndoElemReg = 5,///< (reg, index reg) already undo-logged
  FreshReg = 6,   ///< reg holds an object allocated in this transaction
  FreshLocal = 7, ///< local slot holds a transaction-fresh object
  WillUpdate = 8, ///< reg is opened for update on every path to region end
};

inline uint64_t packFact(FactKind Kind, uint64_t A, uint64_t B = 0,
                         uint64_t C = 0) {
  return (static_cast<uint64_t>(Kind) << 60) | (A << 40) | (B << 20) | C;
}

/// Packs an undo-elem fact if the index is representable; returns 0 (no
/// fact, never filtered) otherwise.
inline uint64_t packUndoElem(int ArrReg, const tmir::Value &Idx) {
  constexpr uint64_t Limit = 1 << 20;
  if (Idx.isImm() && Idx.immValue() >= 0 &&
      static_cast<uint64_t>(Idx.immValue()) < Limit)
    return packFact(FactKind::UndoElemImm, static_cast<uint64_t>(ArrReg),
                    static_cast<uint64_t>(Idx.immValue()));
  if (Idx.isReg())
    return packFact(FactKind::UndoElemReg, static_cast<uint64_t>(ArrReg),
                    static_cast<uint64_t>(Idx.regId()));
  return 0;
}

/// The fact barrier \p I establishes about its operand (an update open also
/// makes the read open available; see OpenElim), or 0 for a non-barrier, a
/// barrier on a constant, or an unrepresentable undo index.
inline uint64_t barrierKey(const tmir::Instr &I) {
  if (!tmir::isBarrier(I.Op) || !I.Operands[0].isReg())
    return 0;
  uint64_t R = static_cast<uint64_t>(I.Operands[0].regId());
  switch (I.Op) {
  case tmir::Opcode::OpenForRead:
    return packFact(FactKind::OpenRead, R);
  case tmir::Opcode::OpenForUpdate:
    return packFact(FactKind::OpenUpdate, R);
  case tmir::Opcode::LogUndoField:
    return packFact(FactKind::UndoField, R, static_cast<uint64_t>(I.ClassId),
                    static_cast<uint64_t>(I.FieldIdx));
  default:
    return packUndoElem(I.Operands[0].regId(), I.Operands[1]);
  }
}

/// True if \p F has any barrier (the passes skip functions without one).
inline bool hasBarrier(const tmir::Function &F) {
  for (const std::unique_ptr<tmir::BasicBlock> &BB : F.Blocks)
    for (const tmir::Instr &I : BB->Instrs)
      if (tmir::isBarrier(I.Op))
        return true;
  return false;
}

//===----------------------------------------------------------------------===
// Fact numbering
//===----------------------------------------------------------------------===

/// The facts one pass can generate in one function, numbered densely.
class FactTable {
public:
  /// Numbers every key \p Gen reports: Gen(I, Keys) appends to Keys the
  /// (non-zero) fact keys instruction I may generate.
  template <typename GenFn> FactTable(const tmir::Function &F, GenFn Gen) {
    std::vector<uint64_t> Found;
    for (const std::unique_ptr<tmir::BasicBlock> &BB : F.Blocks)
      for (const tmir::Instr &I : BB->Instrs)
        Gen(I, Found);
    build(F.numRegs(), Found);
  }

  std::size_t size() const { return Keys.size(); }

  /// An empty fact set sized for this table.
  BitVector emptySet() const { return BitVector(Keys.size()); }

  void insert(BitVector &Facts, uint64_t Key) const {
    int Bit = find(Key);
    if (Bit >= 0)
      Facts.set(static_cast<std::size_t>(Bit));
  }

  void erase(BitVector &Facts, uint64_t Key) const {
    int Bit = find(Key);
    if (Bit >= 0)
      Facts.reset(static_cast<std::size_t>(Bit));
  }

  bool contains(const BitVector &Facts, uint64_t Key) const {
    int Bit = find(Key);
    return Bit >= 0 && Facts.test(static_cast<std::size_t>(Bit));
  }

  /// Removes every fact that mentions register \p Reg (as object or index).
  void killReg(BitVector &Facts, int Reg) const {
    if (Reg >= 0 && Reg < static_cast<int>(MaskOf.size()) &&
        MaskOf[Reg] >= 0)
      Facts.subtract(Masks[MaskOf[Reg]]);
  }

private:
  void build(int NumRegs, std::vector<uint64_t> &Found);

  /// The number of \p Key, or -1 when no instruction generates it.
  int find(uint64_t Key) const {
    if (Key == 0 || Slots.empty())
      return -1;
    for (std::size_t S = slotOf(Key);; S = (S + 1) & (Slots.size() - 1)) {
      if (Slots[S] == Key)
        return SlotBits[S];
      if (Slots[S] == 0)
        return -1;
    }
  }

  std::size_t slotOf(uint64_t Key) const {
    return static_cast<std::size_t>((Key * 0x9E3779B97F4A7C15ull) >> Shift);
  }

  std::vector<uint64_t> Keys;  ///< number -> key
  std::vector<uint64_t> Slots; ///< open-addressed key table, 0 = empty
  std::vector<int> SlotBits;   ///< number of the key in each slot
  unsigned Shift = 64;
  std::vector<int> MaskOf;      ///< register -> index into Masks, or -1
  std::vector<BitVector> Masks; ///< facts mentioning each such register
};

//===----------------------------------------------------------------------===
// Iterative solvers
//===----------------------------------------------------------------------===
//
// Both solvers are optimistic: a block stays TOP (the identity of the
// intersection meet) until a neighbour with known facts reaches it, and a
// TOP neighbour is skipped in a meet. Sweeps follow CfgInfo::order()
// (reversed for the backward problem), revisiting only blocks whose inputs
// changed. The result is the greatest fixpoint, so it does not depend on
// the sweep order. A block the problem never reaches is reported empty.

/// Forward must-analysis: IN[entry] = {} and IN of a block without
/// predecessors = {}; otherwise IN = intersection of the known
/// predecessors' OUTs. \p Transfer(Facts, I) applies one instruction.
/// Returns IN per block.
template <typename TransferFn>
std::vector<BitVector> solveForward(const tmir::Function &F,
                                    const FactTable &Table,
                                    TransferFn Transfer) {
  const tmir::CfgInfo &Cfg = F.cfg();
  const std::vector<std::vector<int>> &Preds = Cfg.preds();
  std::size_t N = F.Blocks.size();
  std::vector<BitVector> In(N, Table.emptySet()), Out(N, Table.emptySet());
  std::vector<uint8_t> Known(N, 0), Pending(N, 1);
  BitVector Facts = Table.emptySet();

  for (bool Again = true; Again;) {
    Again = false;
    for (int B : Cfg.order()) {
      if (!Pending[B])
        continue;
      Pending[B] = 0;
      bool AnyKnown = false;
      if (B != 0)
        for (int P : Preds[B]) {
          if (!Known[P])
            continue; // TOP: identity for intersection
          if (AnyKnown)
            In[B].intersectWith(Out[P]);
          else
            In[B] = Out[P];
          AnyKnown = true;
        }
      if (!AnyKnown) {
        if (B != 0 && !Preds[B].empty())
          continue; // every predecessor is still TOP
        In[B].resetAll();
      }
      Facts = In[B];
      for (const tmir::Instr &I : F.Blocks[B]->Instrs)
        Transfer(Facts, I);
      if (Known[B] && Facts == Out[B])
        continue;
      Known[B] = 1;
      Out[B] = Facts;
      for (int S : F.Blocks[B]->successors()) {
        Pending[S] = 1;
        Again |= Cfg.orderIndex(S) <= Cfg.orderIndex(B);
      }
    }
  }
  return In;
}

/// Backward must-analysis: OUT of a block without successors = {};
/// otherwise OUT = intersection of the known successors' INs. \p Transfer
/// is applied to the block's instructions in reverse. Returns OUT per
/// block.
template <typename TransferFn>
std::vector<BitVector> solveBackward(const tmir::Function &F,
                                     const FactTable &Table,
                                     TransferFn Transfer) {
  const tmir::CfgInfo &Cfg = F.cfg();
  const std::vector<std::vector<int>> &Preds = Cfg.preds();
  const std::vector<int> &Order = Cfg.order();
  std::size_t N = F.Blocks.size();
  std::vector<BitVector> In(N, Table.emptySet()), Out(N, Table.emptySet());
  std::vector<uint8_t> Known(N, 0), Pending(N, 1);
  BitVector Facts = Table.emptySet();

  for (bool Again = true; Again;) {
    Again = false;
    for (std::size_t OI = Order.size(); OI > 0; --OI) {
      int B = Order[OI - 1];
      if (!Pending[B])
        continue;
      Pending[B] = 0;
      tmir::SuccRange Succs = F.Blocks[B]->successors();
      bool AnyKnown = false;
      for (int S : Succs) {
        if (!Known[S])
          continue;
        if (AnyKnown)
          Out[B].intersectWith(In[S]);
        else
          Out[B] = In[S];
        AnyKnown = true;
      }
      if (!AnyKnown) {
        if (!Succs.empty())
          continue; // every successor is still TOP
        Out[B].resetAll();
      }
      Facts = Out[B];
      const std::vector<tmir::Instr> &Instrs = F.Blocks[B]->Instrs;
      for (std::size_t I = Instrs.size(); I > 0; --I)
        Transfer(Facts, Instrs[I - 1]);
      if (Known[B] && Facts == In[B])
        continue;
      Known[B] = 1;
      In[B] = Facts;
      for (int P : Preds[B]) {
        Pending[P] = 1;
        Again |= Cfg.orderIndex(P) >= Cfg.orderIndex(B);
      }
    }
  }
  return Out;
}

} // namespace passes
} // namespace otm

#endif // OTM_PASSES_DATAFLOWUTIL_H
