//===- perfbench/src/Main.cpp - Benchmark entry point ----------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload <containers-1t|tmir-pipeline> --seed <n>
//           --seconds <s> --trace <0|1> --programs <dir> [--out-dir <dir>]
//
// Prints the host fingerprint, human-readable notes, and as its last line
// one JSON object {correct, attempted, failed, metrics}. Exits 1 when a
// correctness check failed and 2 on a usage or runtime error (no result).
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Workload.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<containers-1t|tmir-pipeline> --seed <n> --seconds "
               "<s> --trace <0|1> --programs <dir> [--out-dir <dir>]\n",
               Why);
  return 2;
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  std::string Workload;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    char *EndP = nullptr;
    if (Flag == "--workload") {
      Workload = V;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(V, &EndP, 10);
      HaveSeed = *V && !*EndP;
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(V, &EndP);
      HaveSeconds = *V && !*EndP && O.Seconds > 0 && O.Seconds <= 120;
    } else if (Flag == "--trace") {
      HaveTrace = std::strcmp(V, "0") == 0 || std::strcmp(V, "1") == 0;
      O.Trace = std::strcmp(V, "1") == 0;
    } else if (Flag == "--programs") {
      O.ProgramDir = V;
    } else if (Flag == "--out-dir") {
      O.OutDir = V;
    } else {
      return usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.ProgramDir.empty())
    return usage("--seed, --seconds (0, 120], --trace 0|1 and --programs "
                 "are required");

  Result R;
  try {
    if (Workload == "containers-1t")
      R = runContainers(O);
    else if (Workload == "tmir-pipeline")
      R = runTmirPipeline(O);
    else
      return usage(("unknown workload '" + Workload + "'").c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", Workload.c_str(),
                 E.what());
    return 2;
  }

  if (!O.Trace)
    R.add("ok_frac", 1.0 - ratio(double(R.Failed), double(R.Attempted)),
          "fraction");
  std::printf("host %s\n", hostFingerprintJson().c_str());
  for (const std::string &Line : R.Notes)
    std::printf("note %s\n", Line.c_str());
  std::string Metrics;
  for (const Metric &M : R.Metrics) {
    std::printf("metric %-40s %20.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
    Metrics += (Metrics.empty() ? "" : ", ") + jsonString(M.Name) +
               ": {\"value\": " + number(M.Value) +
               ", \"unit\": " + jsonString(M.Unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return R.Failed ? 1 : 0;
}
