//===- passes/OpenLicm.cpp - Loop-invariant open hoisting ------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/OpenLicm.h"

#include "obs/Statistic.h"
#include "passes/DataflowUtil.h"
#include "tmir/CfgInfo.h"

#include <algorithm>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

/// The block defining each register of \p F, or -1.
std::vector<int> defBlocks(const Function &F) {
  std::vector<int> Def(static_cast<std::size_t>(F.numRegs()), -1);
  for (const std::unique_ptr<BasicBlock> &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      if (I.ResultReg >= 0)
        Def[I.ResultReg] = BB->Id;
  return Def;
}

/// Performs one round of hoisting on \p F; returns hoist count (0 = done).
/// \p DefBlock maps registers to defining blocks (hoisting barriers, which
/// define nothing, and adding a preheader do not change it).
unsigned hoistOnce(Function &F, const std::vector<int> &DefBlock) {
  const CfgInfo &Cfg = F.cfg();
  const AtomicRegions &AR = Cfg.regions();
  if (!AR.valid())
    return 0;
  const DominatorTree &DT = Cfg.domTree();

  for (const Loop &L : Cfg.loops().loops()) {
    // The whole loop must run transactionally: every block enters inside a
    // region and contains no region markers.
    bool FullyAtomic = true;
    for (int B : L.Blocks) {
      if (!F.IsAllAtomic && !AR.inAtomicAtEntry(B)) {
        FullyAtomic = false;
        break;
      }
      for (const Instr &I : F.Blocks[B]->Instrs)
        if (I.Op == Opcode::AtomicBegin || I.Op == Opcode::AtomicEnd) {
          FullyAtomic = false;
          break;
        }
    }
    if (!FullyAtomic)
      continue;

    // Collect hoistable barriers.
    struct Candidate {
      int Block;
      std::size_t Index;
    };
    std::vector<Candidate> Candidates;
    std::vector<uint64_t> Keys;
    for (int B : L.Blocks) {
      bool DominatesLatches = true;
      for (int Latch : L.Latches)
        if (!DT.dominates(B, Latch)) {
          DominatesLatches = false;
          break;
        }
      if (!DominatesLatches)
        continue;
      const BasicBlock &BB = *F.Blocks[B];
      for (std::size_t II = 0; II < BB.Instrs.size(); ++II) {
        const Instr &I = BB.Instrs[II];
        if (!isBarrier(I.Op))
          continue;
        // Every register the barrier mentions must be loop-invariant.
        bool Invariant = true;
        for (const Value &V : I.Operands)
          if (V.isReg()) {
            int Def = DefBlock[V.regId()];
            if (Def < 0 || L.contains(Def)) {
              Invariant = false;
              break;
            }
          }
        if (!Invariant)
          continue;
        uint64_t Key = barrierKey(I);
        if (Key == 0 ||
            std::find(Keys.begin(), Keys.end(), Key) != Keys.end())
          continue; // unkeyable or duplicate of an already-hoisted barrier
        Keys.push_back(Key);
        Candidates.push_back({B, II});
      }
    }
    if (Candidates.empty())
      continue;

    // Find or create the preheader.
    std::vector<int> Outside;
    for (int P : Cfg.preds()[L.Header])
      if (!L.contains(P))
        Outside.push_back(P);
    BasicBlock *Preheader = nullptr;
    bool NewPreheader = false;
    if (Outside.size() == 1) {
      BasicBlock &Cand = *F.Blocks[Outside[0]];
      if (Cand.terminator().Op == Opcode::Br)
        Preheader = &Cand;
    }
    if (!Preheader) {
      NewPreheader = true;
      Preheader = F.addBlock(F.Blocks[L.Header]->Name + "$preheader");
      Instr Jump = Instr::make(Opcode::Br);
      Jump.TargetA = L.Header;
      Preheader->Instrs.push_back(std::move(Jump));
      for (int P : Outside) {
        Instr &T = F.Blocks[P]->Instrs.back();
        if (T.TargetA == L.Header)
          T.TargetA = Preheader->Id;
        if (T.Op == Opcode::CondBr && T.TargetB == L.Header)
          T.TargetB = Preheader->Id;
      }
    }

    // Move the candidates (in order) to the preheader, before its branch.
    std::vector<Instr> Moved;
    for (const Candidate &C : Candidates)
      Moved.push_back(F.Blocks[C.Block]->Instrs[C.Index]);
    // Erase from the loop blocks (descending index order per block).
    for (std::size_t CI = Candidates.size(); CI > 0; --CI) {
      const Candidate &C = Candidates[CI - 1];
      F.Blocks[C.Block]->Instrs.erase(F.Blocks[C.Block]->Instrs.begin() +
                                      static_cast<long>(C.Index));
    }
    Preheader->Instrs.insert(Preheader->Instrs.end() - 1, Moved.begin(),
                             Moved.end());
    // Moving barriers keeps the CFG analyses valid; a new block does not.
    if (NewPreheader)
      F.invalidateCfg();
    return static_cast<unsigned>(Moved.size());
  }
  return 0;
}

} // namespace

OTM_STATISTIC(StatOpensHoisted, "open-licm", "opens-hoisted",
              "loop-invariant open barriers hoisted to preheaders");

bool OpenLicmPass::run(Module &M) {
  Hoisted = 0;
  for (std::unique_ptr<Function> &FP : M.Functions) {
    if (!hasBarrier(*FP))
      continue;
    std::vector<int> DefBlock = defBlocks(*FP);
    // One loop is transformed per round (the CFG changes); cap rounds
    // defensively.
    for (unsigned Round = 0; Round < 64; ++Round) {
      unsigned N = hoistOnce(*FP, DefBlock);
      if (N == 0)
        break;
      Hoisted += N;
    }
  }
  StatOpensHoisted += Hoisted;
  return Hoisted != 0;
}
