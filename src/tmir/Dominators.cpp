//===- tmir/Dominators.cpp - Dominator tree ------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/Dominators.h"

#include <cassert>

using namespace otm;
using namespace otm::tmir;

DominatorTree::DominatorTree(const Function &F,
                             const std::vector<std::vector<int>> &Preds) {
  std::size_t N = F.Blocks.size();
  Idom.assign(N, -1);
  RpoIndex.assign(N, -1);
  EntryId = F.Blocks.front()->Id;

  // Depth-first postorder, then reverse.
  std::vector<int> Post;
  std::vector<uint8_t> State(N, 0); // 0 unvisited, 1 on stack, 2 done
  std::vector<std::pair<int, std::size_t>> Stack;
  Stack.push_back({EntryId, 0});
  State[EntryId] = 1;
  while (!Stack.empty()) {
    auto &[Block, NextSucc] = Stack.back();
    SuccRange Succs = F.Blocks[Block]->successors();
    if (NextSucc < Succs.size()) {
      int S = Succs[NextSucc++];
      if (State[S] == 0) {
        State[S] = 1;
        Stack.push_back({S, 0});
      }
      continue;
    }
    State[Block] = 2;
    Post.push_back(Block);
    Stack.pop_back();
  }
  Rpo.assign(Post.rbegin(), Post.rend());
  for (std::size_t I = 0; I < Rpo.size(); ++I)
    RpoIndex[Rpo[I]] = static_cast<int>(I);

  // Cooper-Harvey-Kennedy iteration.
  auto Intersect = [&](int A, int B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = Idom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = Idom[B];
    }
    return A;
  };

  Idom[EntryId] = EntryId;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int Block : Rpo) {
      if (Block == EntryId)
        continue;
      int NewIdom = -1;
      for (int Pred : Preds[Block]) {
        if (RpoIndex[Pred] < 0 || Idom[Pred] < 0)
          continue; // unreachable or not yet processed
        NewIdom = (NewIdom < 0) ? Pred : Intersect(Pred, NewIdom);
      }
      if (NewIdom >= 0 && Idom[Block] != NewIdom) {
        Idom[Block] = NewIdom;
        Changed = true;
      }
    }
  }
  // Normalize: entry's idom is conventionally -1 for clients.
  Idom[EntryId] = -1;
}

bool DominatorTree::dominates(int A, int B) const {
  if (A == B)
    return true;
  if (RpoIndex[A] < 0 || RpoIndex[B] < 0)
    return false; // unreachable blocks dominate nothing
  int Runner = B;
  while (Runner != EntryId && Runner >= 0) {
    Runner = Idom[Runner];
    if (Runner == A)
      return true;
  }
  return false;
}
