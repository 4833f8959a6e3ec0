//===- passes/Pass.cpp - Pass framework -----------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/Pass.h"

#include "tmir/Verifier.h"

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

BarrierCounts passes::countBarriers(const Function &F) {
  BarrierCounts C;
  for (const std::unique_ptr<BasicBlock> &BB : F.Blocks)
    for (const Instr &I : BB->Instrs)
      switch (I.Op) {
      case Opcode::OpenForRead:
        ++C.OpenRead;
        break;
      case Opcode::OpenForUpdate:
        ++C.OpenUpdate;
        break;
      case Opcode::LogUndoField:
        ++C.UndoField;
        break;
      case Opcode::LogUndoElem:
        ++C.UndoElem;
        break;
      default:
        break;
      }
  return C;
}

BarrierCounts passes::countBarriers(const Module &M) {
  BarrierCounts C;
  for (const std::unique_ptr<Function> &F : M.Functions) {
    BarrierCounts FC = countBarriers(*F);
    C.OpenRead += FC.OpenRead;
    C.OpenUpdate += FC.OpenUpdate;
    C.UndoField += FC.UndoField;
    C.UndoElem += FC.UndoElem;
  }
  return C;
}

std::vector<PassReport> PassManager::run(Module &M) {
  std::vector<PassReport> Reports;
  Reports.reserve(Passes.size());
  // Each pass starts from the module the previous one left, so its Before
  // counts are the previous After counts.
  BarrierCounts Counts = countBarriers(M);
  for (std::unique_ptr<Pass> &P : Passes) {
    PassReport R;
    R.PassName = P->name();
    R.Before = Counts;
    R.Changed = P->run(M);
    R.After = Counts = countBarriers(M);
    verifyModuleOrDie(M); // every pass must leave the module well-formed
    Reports.push_back(std::move(R));
  }
  return Reports;
}
