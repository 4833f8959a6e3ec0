//===- passes/OpenElim.cpp - Redundant barrier elimination -----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/OpenElim.h"

#include "obs/Statistic.h"
#include "passes/DataflowUtil.h"

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

/// The read-open fact an update open of \p I's operand also establishes.
uint64_t subsumedReadKey(const Instr &I) {
  return packFact(FactKind::OpenRead,
                  static_cast<uint64_t>(I.Operands[0].regId()));
}

/// The facts \p I can make available.
void genOpen(const Instr &I, std::vector<uint64_t> &Keys) {
  if (uint64_t Key = barrierKey(I)) {
    Keys.push_back(Key);
    if (I.Op == Opcode::OpenForUpdate)
      Keys.push_back(subsumedReadKey(I));
  }
}

/// Applies the availability transfer for one instruction to \p Facts.
void transferOpen(const FactTable &T, BitVector &Facts, const Instr &I) {
  switch (I.Op) {
  case Opcode::OpenForRead:
  case Opcode::OpenForUpdate:
  case Opcode::LogUndoField:
  case Opcode::LogUndoElem:
    if (uint64_t Key = barrierKey(I)) {
      T.insert(Facts, Key);
      if (I.Op == Opcode::OpenForUpdate) // update subsumes read
        T.insert(Facts, subsumedReadKey(I));
    }
    return;
  case Opcode::AtomicBegin:
  case Opcode::AtomicEnd:
    Facts.resetAll();
    return;
  default:
    if (I.ResultReg >= 0)
      T.killReg(Facts, I.ResultReg);
    return;
  }
}

/// True if \p I is redundant given available \p Facts: a barrier on null
/// (a runtime no-op), or one whose fact is already available (an update
/// open makes both opens available, a read open only the read one).
bool isRedundant(const FactTable &T, const BitVector &Facts, const Instr &I) {
  if (!isBarrier(I.Op))
    return false;
  return I.Operands[0].isNull() || T.contains(Facts, barrierKey(I));
}

} // namespace

OTM_STATISTIC(StatOpensElided, "open-elim", "opens-elided",
              "redundant open-for-read/update barriers removed");

bool OpenElimPass::run(Module &M) {
  Removed = 0;
  for (std::unique_ptr<Function> &FP : M.Functions) {
    Function &F = *FP;
    if (!hasBarrier(F))
      continue;
    FactTable T(F, genOpen);
    auto Transfer = [&T](BitVector &Facts, const Instr &I) {
      transferOpen(T, Facts, I);
    };
    std::vector<BitVector> In = solveForward(F, T, Transfer);
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks) {
      BitVector &Facts = In[BB->Id];
      std::vector<Instr> &Instrs = BB->Instrs;
      std::size_t Kept = 0;
      for (std::size_t II = 0; II < Instrs.size(); ++II) {
        if (isRedundant(T, Facts, Instrs[II])) {
          ++Removed;
          continue;
        }
        transferOpen(T, Facts, Instrs[II]);
        if (Kept != II)
          Instrs[Kept] = std::move(Instrs[II]);
        ++Kept;
      }
      Instrs.resize(Kept);
    }
  }
  StatOpensElided += Removed;
  return Removed != 0;
}
