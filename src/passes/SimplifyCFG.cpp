//===- passes/SimplifyCFG.cpp - CFG cleanup ---------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/SimplifyCFG.h"

#include <algorithm>
#include <iterator>
#include <vector>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

/// Rebuilds F.Blocks without the blocks marked dead, remapping ids.
void compactBlocks(Function &F, const std::vector<bool> &Dead) {
  std::vector<int> NewId(F.Blocks.size(), -1);
  std::vector<std::unique_ptr<BasicBlock>> Kept;
  for (std::size_t B = 0; B < F.Blocks.size(); ++B) {
    if (Dead[B])
      continue;
    NewId[B] = static_cast<int>(Kept.size());
    Kept.push_back(std::move(F.Blocks[B]));
  }
  for (std::size_t NewIdx = 0; NewIdx < Kept.size(); ++NewIdx) {
    BasicBlock *BB = Kept[NewIdx].get();
    BB->Id = static_cast<int>(NewIdx);
    for (Instr &I : BB->Instrs) {
      if (I.Op == Opcode::Br || I.Op == Opcode::CondBr) {
        I.TargetA = NewId[I.TargetA];
        if (I.Op == Opcode::CondBr)
          I.TargetB = NewId[I.TargetB];
      }
    }
  }
  F.Blocks = std::move(Kept);
}

bool runOnFunction(Function &F) {
  std::size_t N = F.Blocks.size();

  // Delete unreachable blocks; they are nobody's predecessor below.
  std::vector<bool> Dead(N, true);
  Dead[0] = false;
  std::vector<int> Work{0};
  while (!Work.empty()) {
    int B = Work.back();
    Work.pop_back();
    for (int S : F.Blocks[B]->successors())
      if (Dead[S]) {
        Dead[S] = false;
        Work.push_back(S);
      }
  }
  bool Changed = std::find(Dead.begin(), Dead.end(), true) != Dead.end();

  std::vector<unsigned> NumPreds(N, 0);
  for (std::size_t B = 0; B < N; ++B)
    if (!Dead[B])
      for (int S : F.Blocks[B]->successors())
        ++NumPreds[S];

  // Merge every A -> B chain where A is B's unique predecessor, in one
  // sweep: a block keeps absorbing its successor while it can. A merge
  // hands B's successor edges to A, so no predecessor count changes.
  for (std::size_t B = 0; B < N; ++B) {
    if (Dead[B])
      continue;
    BasicBlock &A = *F.Blocks[B];
    while (A.terminator().Op == Opcode::Br) {
      int Succ = A.terminator().TargetA;
      if (Succ == static_cast<int>(B) || Succ == 0 || NumPreds[Succ] != 1)
        break;
      A.Instrs.pop_back(); // the br
      std::vector<Instr> &Absorbed = F.Blocks[Succ]->Instrs;
      A.Instrs.insert(A.Instrs.end(), std::make_move_iterator(Absorbed.begin()),
                      std::make_move_iterator(Absorbed.end()));
      Absorbed.clear();
      Dead[Succ] = Changed = true;
    }
  }

  if (Changed) {
    compactBlocks(F, Dead);
    F.invalidateCfg();
  }
  return Changed;
}

} // namespace

bool SimplifyCfgPass::run(Module &M) {
  bool Changed = false;
  for (std::unique_ptr<Function> &F : M.Functions)
    Changed |= runOnFunction(*F);
  return Changed;
}
