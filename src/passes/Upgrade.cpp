//===- passes/Upgrade.cpp - Read-to-update open upgrading ------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Upgrade.h"

#include "obs/Statistic.h"
#include "passes/DataflowUtil.h"

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

uint64_t willUpdateKey(const Value &V) {
  return packFact(FactKind::WillUpdate, static_cast<uint64_t>(V.regId()));
}

void genAnticipated(const Instr &I, std::vector<uint64_t> &Keys) {
  if (I.Op == Opcode::OpenForUpdate && I.Operands[0].isReg())
    Keys.push_back(willUpdateKey(I.Operands[0]));
}

/// Backward transfer: a register is "will be updated" before instruction I
/// if it is after I, unless I defines it or ends the region.
void transferAnticipated(const FactTable &T, BitVector &Facts,
                         const Instr &I) {
  switch (I.Op) {
  case Opcode::OpenForUpdate:
    if (I.Operands[0].isReg())
      T.insert(Facts, willUpdateKey(I.Operands[0]));
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

} // namespace

OTM_STATISTIC(StatOpensUpgraded, "upgrade", "opens-upgraded",
              "open-for-read barriers upgraded to open-for-update");

bool UpgradePass::run(Module &M) {
  Upgraded = 0;
  for (std::unique_ptr<Function> &FP : M.Functions) {
    Function &F = *FP;
    FactTable T(F, genAnticipated);
    if (T.size() == 0)
      continue; // no update opens: nothing to upgrade to
    std::vector<BitVector> Out =
        solveBackward(F, T, [&T](BitVector &Facts, const Instr &I) {
          transferAnticipated(T, Facts, I);
        });
    for (std::unique_ptr<BasicBlock> &BB : F.Blocks) {
      // Recompute the running fact set backwards through the block so each
      // open_read sees the anticipated-updates holding right after it.
      BitVector &Facts = Out[BB->Id];
      for (std::size_t II = BB->Instrs.size(); II > 0; --II) {
        Instr &I = BB->Instrs[II - 1];
        if (I.Op == Opcode::OpenForRead && I.Operands[0].isReg() &&
            T.contains(Facts, willUpdateKey(I.Operands[0]))) {
          I.Op = Opcode::OpenForUpdate;
          ++Upgraded;
        }
        transferAnticipated(T, Facts, I);
      }
    }
  }
  StatOpensUpgraded += Upgraded;
  return Upgraded != 0;
}
