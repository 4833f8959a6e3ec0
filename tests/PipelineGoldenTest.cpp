//===- tests/PipelineGoldenTest.cpp - Optimized-IR golden test ------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins the compiler's output byte for byte: for each of the six TMIR
// benchmark programs, under OptConfig::all() and under each of E4's
// cumulative configurations, the printed module after lowerAndOptimize and
// every per-pass report (name, barrier counts before and after, changed)
// must match tests/golden/pipeline.golden.
//
// A rewrite of the optimizer's internals (analyses, dataflow solver, CFG
// cleanup) must leave this file unchanged. When the optimizer's output is
// meant to change, the test writes what it produced to
// PipelineGoldenTest.actual in its working directory; review the diff and
// copy that file over the golden.
//
//===----------------------------------------------------------------------===//

#include "bench/TmirPrograms.h"
#include "passes/Pipeline.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

using namespace otm;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

struct NamedConfig {
  const char *Name;
  OptConfig Config;
};

/// OptConfig::all() followed by E4's cumulative steps (the last step,
/// "+dce(all)", is all() again and is not repeated).
std::vector<NamedConfig> goldenConfigs() {
  std::vector<NamedConfig> Configs;
  Configs.push_back({"all", OptConfig::all()});
  OptConfig C = OptConfig::none();
  Configs.push_back({"naive", C});
  C.Inline = C.SimplifyCfg = true;
  Configs.push_back({"+inline", C});
  C.LocalCse = true;
  Configs.push_back({"+cse", C});
  C.OpenElim = true;
  Configs.push_back({"+open-elim", C});
  C.Upgrade = true;
  Configs.push_back({"+upgrade", C});
  C.AllocElision = true;
  Configs.push_back({"+alloc", C});
  C.OpenLicm = true;
  Configs.push_back({"+licm", C});
  return Configs;
}

void printCounts(std::ostringstream &OS, const BarrierCounts &C) {
  OS << C.OpenRead << "/" << C.OpenUpdate << "/" << C.UndoField << "/"
     << C.UndoElem;
}

/// The text the golden file holds: one section per (program, config).
std::string dumpPipeline() {
  std::ostringstream OS;
  unsigned NumPrograms = 0;
  const bench::TmirProgram *Programs = bench::tmirPrograms(NumPrograms);
  for (unsigned P = 0; P < NumPrograms; ++P)
    for (const NamedConfig &NC : goldenConfigs()) {
      Module M = parseModuleOrDie(Programs[P].Source);
      verifyModuleOrDie(M);
      std::vector<PassReport> Reports = lowerAndOptimize(M, NC.Config);
      OS << "### " << Programs[P].Name << " / " << NC.Name << "\n";
      for (const PassReport &R : Reports) {
        OS << "pass " << R.PassName << " ";
        printCounts(OS, R.Before);
        OS << " -> ";
        printCounts(OS, R.After);
        OS << (R.Changed ? " changed" : " unchanged") << "\n";
      }
      OS << printModule(M);
    }
  return OS.str();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

} // namespace

TEST(PipelineGolden, OptimizedModulesAndReportsMatch) {
  const std::string GoldenPath =
      std::string(OTM_TEST_SOURCE_DIR) + "/golden/pipeline.golden";
  std::string Golden = readFile(GoldenPath);
  ASSERT_FALSE(Golden.empty()) << "missing golden file " << GoldenPath;

  std::string Actual = dumpPipeline();
  if (Actual == Golden)
    return;

  std::ofstream("PipelineGoldenTest.actual", std::ios::binary) << Actual;
  // Point at the first differing line.
  std::istringstream A(Actual), G(Golden);
  std::string LA, LG;
  unsigned Line = 1;
  while (true) {
    bool HasA = static_cast<bool>(std::getline(A, LA));
    bool HasG = static_cast<bool>(std::getline(G, LG));
    if (!HasA && !HasG)
      break;
    if (!HasA || !HasG || LA != LG) {
      ADD_FAILURE() << "optimizer output differs from " << GoldenPath
                    << " at line " << Line << "\n  golden: "
                    << (HasG ? LG : "<end of file>")
                    << "\n  actual: " << (HasA ? LA : "<end of output>")
                    << "\nfull output written to PipelineGoldenTest.actual";
      return;
    }
    ++Line;
  }
  ADD_FAILURE() << "optimizer output differs from " << GoldenPath;
}
