//===- tmir/Liveness.h - Register & local liveness -------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward liveness over a TMIR function's virtual registers and local
/// slots. A slot is *live* at a program point when some path from that
/// point reads it before writing it.
///
/// The interpreter's decoder uses this to narrow atomic-region snapshots:
/// when an `atomic_begin` re-executes after an abort, only the registers
/// and locals live at that point can ever be read again before being
/// redefined, so only those need to be saved and restored. Everything else
/// — including heap state, which the STM's undo log rolls back — is out of
/// scope here.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TMIR_LIVENESS_H
#define OTM_TMIR_LIVENESS_H

#include "support/BitVector.h"
#include "tmir/IR.h"

#include <vector>

namespace otm {
namespace tmir {

/// Per-block live-in/live-out sets for registers and locals.
struct LivenessInfo {
  std::vector<BitVector> RegIn, RegOut;
  std::vector<BitVector> LocalIn, LocalOut;
};

/// Runs the backward fixpoint over \p F's CFG.
LivenessInfo computeLiveness(const Function &F);

/// The registers/locals live immediately *before* instruction
/// (\p Block, \p InstrIdx) — i.e. the state a restart at that instruction
/// may still read. Derived from \p LI by walking block \p Block backwards.
void liveBeforeInstr(const Function &F, const LivenessInfo &LI, int Block,
                     std::size_t InstrIdx, BitVector &Regs, BitVector &Locals);

} // namespace tmir
} // namespace otm

#endif // OTM_TMIR_LIVENESS_H
