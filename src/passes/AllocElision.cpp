//===- passes/AllocElision.cpp - Barrier elision on fresh objects ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/AllocElision.h"

#include "obs/Statistic.h"
#include "passes/DataflowUtil.h"

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

uint64_t freshRegKey(int Reg) {
  return packFact(FactKind::FreshReg, static_cast<uint64_t>(Reg));
}

uint64_t freshLocalKey(int Local) {
  return packFact(FactKind::FreshLocal, static_cast<uint64_t>(Local));
}

bool isFreshReg(const FactTable &T, const BitVector &Facts, const Value &V) {
  return V.isReg() && T.contains(Facts, freshRegKey(V.regId()));
}

void genFresh(const Instr &I, std::vector<uint64_t> &Keys) {
  switch (I.Op) {
  case Opcode::NewObj:
  case Opcode::NewArr:
  case Opcode::Mov:
  case Opcode::LoadLocal:
    if (I.ResultReg >= 0)
      Keys.push_back(freshRegKey(I.ResultReg));
    return;
  case Opcode::StoreLocal:
    Keys.push_back(freshLocalKey(I.LocalIdx));
    return;
  default:
    return;
  }
}

void transferFresh(const FactTable &T, BitVector &Facts, const Instr &I) {
  switch (I.Op) {
  case Opcode::NewObj:
  case Opcode::NewArr:
    T.killReg(Facts, I.ResultReg);
    T.insert(Facts, freshRegKey(I.ResultReg));
    return;
  case Opcode::Mov: {
    bool Fresh = isFreshReg(T, Facts, I.Operands[0]);
    T.killReg(Facts, I.ResultReg);
    if (Fresh)
      T.insert(Facts, freshRegKey(I.ResultReg));
    return;
  }
  case Opcode::LoadLocal: {
    bool Fresh = T.contains(Facts, freshLocalKey(I.LocalIdx));
    T.killReg(Facts, I.ResultReg);
    if (Fresh)
      T.insert(Facts, freshRegKey(I.ResultReg));
    return;
  }
  case Opcode::StoreLocal:
    if (isFreshReg(T, Facts, I.Operands[0]))
      T.insert(Facts, freshLocalKey(I.LocalIdx));
    else
      T.erase(Facts, freshLocalKey(I.LocalIdx));
    return;
  case Opcode::AtomicBegin:
  case Opcode::AtomicEnd:
    // Fresh means "allocated inside the current region"; objects from
    // before the transaction (or a previous one) are shared.
    Facts.resetAll();
    return;
  default:
    if (I.ResultReg >= 0)
      T.killReg(Facts, I.ResultReg);
    return;
  }
}

} // namespace

OTM_STATISTIC(StatFreshBarriersRemoved, "alloc-elision",
              "fresh-barriers-removed",
              "barriers removed on transaction-locally allocated objects");

bool AllocElisionPass::run(Module &M) {
  Removed = 0;
  for (std::unique_ptr<Function> &FP : M.Functions) {
    Function &F = *FP;
    if (!hasBarrier(F))
      continue;
    // In a transactional clone freshness survives from function entry only
    // if the allocation happened in this function; parameters are never
    // fresh, so starting from the empty set is correct for both kinds.
    FactTable T(F, genFresh);
    std::vector<BitVector> In =
        solveForward(F, T, [&T](BitVector &Facts, const Instr &I) {
          transferFresh(T, Facts, I);
        });
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks) {
      BitVector &Facts = In[BB->Id];
      std::vector<Instr> &Instrs = BB->Instrs;
      std::size_t Kept = 0;
      for (std::size_t II = 0; II < Instrs.size(); ++II) {
        if (isBarrier(Instrs[II].Op) &&
            isFreshReg(T, Facts, Instrs[II].Operands[0])) {
          ++Removed;
          continue;
        }
        transferFresh(T, Facts, Instrs[II]);
        if (Kept != II)
          Instrs[Kept] = std::move(Instrs[II]);
        ++Kept;
      }
      Instrs.resize(Kept);
    }
  }
  StatFreshBarriersRemoved += Removed;
  return Removed != 0;
}
