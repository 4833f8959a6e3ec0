//===- tmir/CfgInfo.cpp - Shared per-function CFG analyses ----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/CfgInfo.h"

using namespace otm;
using namespace otm::tmir;

CfgInfo::CfgInfo(const Function &F)
    : Preds(F.computePredecessors()), DT(F, Preds), LI(F, DT, Preds), AR(F) {
  Order = DT.reversePostOrder();
  for (std::size_t B = 0; B < F.Blocks.size(); ++B)
    if (!DT.isReachable(static_cast<int>(B)))
      Order.push_back(static_cast<int>(B));
  OrderIndex.assign(F.Blocks.size(), -1);
  for (std::size_t I = 0; I < Order.size(); ++I)
    OrderIndex[Order[I]] = static_cast<int>(I);
}
