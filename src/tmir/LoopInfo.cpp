//===- tmir/LoopInfo.cpp - Natural loop detection -------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/LoopInfo.h"

#include <algorithm>
#include <map>

using namespace otm;
using namespace otm::tmir;

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT,
                   const std::vector<std::vector<int>> &Preds) {
  // Group back edges by header so a header with several latches forms one
  // loop.
  std::map<int, std::vector<int>> BackEdges;
  for (const std::unique_ptr<BasicBlock> &BB : F.Blocks) {
    if (!DT.isReachable(BB->Id))
      continue;
    for (int Succ : BB->successors())
      if (DT.dominates(Succ, BB->Id))
        BackEdges[Succ].push_back(BB->Id);
  }

  for (auto &[Header, Latches] : BackEdges) {
    Loop L;
    L.Header = Header;
    L.Latches = Latches;
    // Body: blocks that reach a latch backwards without passing the header.
    std::vector<bool> InLoop(F.Blocks.size(), false);
    InLoop[Header] = true;
    std::vector<int> Work = Latches;
    while (!Work.empty()) {
      int B = Work.back();
      Work.pop_back();
      if (InLoop[B])
        continue;
      InLoop[B] = true;
      for (int P : Preds[B])
        if (!InLoop[P])
          Work.push_back(P);
    }
    for (std::size_t B = 0; B < F.Blocks.size(); ++B)
      if (InLoop[B])
        L.Blocks.push_back(static_cast<int>(B));
    Loops.push_back(std::move(L));
  }

  // Inner loops first (fewer blocks), so hoisting cascades outward.
  std::sort(Loops.begin(), Loops.end(), [](const Loop &A, const Loop &B) {
    return A.Blocks.size() < B.Blocks.size();
  });
}
