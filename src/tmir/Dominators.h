//===- tmir/Dominators.h - Dominator tree for TMIR CFGs --------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree (Cooper–Harvey–Kennedy iterative algorithm) over a TMIR
/// function's CFG. The barrier optimizations are dominance-based: an open
/// is redundant exactly when an equal-or-stronger open of the same
/// reference *dominates* it within the same transaction.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TMIR_DOMINATORS_H
#define OTM_TMIR_DOMINATORS_H

#include "tmir/IR.h"

#include <vector>

namespace otm {
namespace tmir {

class DominatorTree {
public:
  /// Builds the tree for \p F. Unreachable blocks get Idom -1 and are
  /// reported dominated by nothing (and dominating nothing but themselves).
  explicit DominatorTree(const Function &F)
      : DominatorTree(F, F.computePredecessors()) {}
  /// As above, reusing \p F's predecessor lists.
  DominatorTree(const Function &F, const std::vector<std::vector<int>> &Preds);

  /// Immediate dominator block id, or -1 (entry / unreachable).
  int idom(int BlockId) const { return Idom[BlockId]; }

  /// True if block \p A dominates block \p B (reflexive).
  bool dominates(int A, int B) const;

  bool isReachable(int BlockId) const {
    return BlockId == EntryId || Idom[BlockId] >= 0;
  }

  /// Blocks in reverse postorder (reachable only).
  const std::vector<int> &reversePostOrder() const { return Rpo; }

private:
  int EntryId = 0;
  std::vector<int> Idom;
  std::vector<int> RpoIndex; ///< position of each block in Rpo, -1 if unreachable
  std::vector<int> Rpo;
};

} // namespace tmir
} // namespace otm

#endif // OTM_TMIR_DOMINATORS_H
