//===- tmir/CfgInfo.h - Shared per-function CFG analyses --------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CFG analyses the barrier passes share, built together once per
/// function and cached on it (Function::cfg()): predecessor lists, a block
/// order for dataflow sweeps, the dominator tree, natural loops and atomic
/// region membership.
///
/// Lifetime: the cache lives until Function::invalidateCfg(). Passes that
/// keep every block, branch target and region marker's block (lowering,
/// CSE, DCE, open elimination, upgrading, alloc elision) keep it; passes
/// that add, remove or reorder blocks, retarget a branch, or move a region
/// marker into another block (inlining, CFG simplification, branch
/// folding, preheader creation) invalidate it. Debug builds check
/// on every query that the cached predecessor lists still match the
/// function.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TMIR_CFGINFO_H
#define OTM_TMIR_CFGINFO_H

#include "tmir/AtomicRegions.h"
#include "tmir/Dominators.h"
#include "tmir/IR.h"
#include "tmir/LoopInfo.h"

#include <vector>

namespace otm {
namespace tmir {

class CfgInfo {
public:
  explicit CfgInfo(const Function &F);

  /// Predecessor ids of each block (a block appears twice when both arms
  /// of a condbr target it).
  const std::vector<std::vector<int>> &preds() const { return Preds; }

  /// Every block once: the reachable ones in reverse postorder, then the
  /// unreachable ones in index order. Forward dataflow sweeps this order,
  /// backward dataflow sweeps it reversed.
  const std::vector<int> &order() const { return Order; }
  /// Position of block \p B in order().
  int orderIndex(int B) const { return OrderIndex[B]; }

  const DominatorTree &domTree() const { return DT; }
  const LoopInfo &loops() const { return LI; }
  const AtomicRegions &regions() const { return AR; }

  /// True if the predecessor lists still describe \p F (a cheap staleness
  /// check for debug builds).
  bool matches(const Function &F) const {
    return F.computePredecessors() == Preds;
  }

private:
  std::vector<std::vector<int>> Preds;
  DominatorTree DT;
  LoopInfo LI;
  AtomicRegions AR;
  std::vector<int> Order;
  std::vector<int> OrderIndex;
};

} // namespace tmir
} // namespace otm

#endif // OTM_TMIR_CFGINFO_H
