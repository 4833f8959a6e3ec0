//===- tmir/LoopInfo.h - Natural loop detection -----------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural loops (back edges to a dominator, plus the body reached
/// backwards from the latch). Used by the open-hoisting pass: an open of a
/// loop-invariant reference executed on every iteration is moved to the
/// preheader, turning O(iterations) barriers into one.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TMIR_LOOPINFO_H
#define OTM_TMIR_LOOPINFO_H

#include "tmir/Dominators.h"
#include "tmir/IR.h"

#include <vector>

namespace otm {
namespace tmir {

struct Loop {
  int Header = -1;
  std::vector<int> Latches; ///< blocks with a back edge to Header
  std::vector<int> Blocks;  ///< all blocks in the loop (includes Header)

  bool contains(int BlockId) const {
    for (int B : Blocks)
      if (B == BlockId)
        return true;
    return false;
  }
};

class LoopInfo {
public:
  LoopInfo(const Function &F, const DominatorTree &DT)
      : LoopInfo(F, DT, F.computePredecessors()) {}
  /// As above, reusing \p F's predecessor lists.
  LoopInfo(const Function &F, const DominatorTree &DT,
           const std::vector<std::vector<int>> &Preds);

  const std::vector<Loop> &loops() const { return Loops; }

private:
  std::vector<Loop> Loops;
};

} // namespace tmir
} // namespace otm

#endif // OTM_TMIR_LOOPINFO_H
