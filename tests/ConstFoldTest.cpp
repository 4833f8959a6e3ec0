//===- tests/ConstFoldTest.cpp - Constant folding & CFG cleanup ----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"
#include "passes/ConstFold.h"
#include "passes/DCE.h"
#include "passes/LocalCSE.h"
#include "passes/LowerAtomic.h"
#include "passes/OpenElim.h"
#include "passes/Pass.h"
#include "passes/Pipeline.h"
#include "passes/SimplifyCFG.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <gtest/gtest.h>

using namespace otm;
using namespace otm::interp;
using namespace otm::passes;
using namespace otm::tmir;

namespace {

Module parsed(const std::string &Text) {
  Module M = parseModuleOrDie(Text);
  verifyModuleOrDie(M);
  return M;
}

unsigned countOp(const Module &M, Opcode Op) {
  unsigned N = 0;
  for (const std::unique_ptr<Function> &F : M.Functions)
    for (const std::unique_ptr<BasicBlock> &BB : F->Blocks)
      for (const Instr &I : BB->Instrs)
        N += (I.Op == Op);
  return N;
}

int64_t runF(Module &M, const char *Name) {
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::IgnoreAtomic;
  Interpreter I(M, O);
  Interpreter::RunResult R = I.run(Name, {});
  EXPECT_FALSE(R.Trapped) << R.Error;
  return R.Value;
}

} // namespace

TEST(ConstFold, FoldsArithmeticChains) {
  Module M = parsed(R"(
func f(): i64 {
entry:
  %a = add 2, 3
  %b = mul %a, 4
  %c = sub %b, 6
  ret %c
}
)");
  ConstFoldPass Fold;
  EXPECT_TRUE(Fold.run(M));
  verifyModuleOrDie(M);
  EXPECT_EQ(countOp(M, Opcode::Add), 0u);
  EXPECT_EQ(countOp(M, Opcode::Mul), 0u);
  EXPECT_EQ(runF(M, "f"), 14);
}

TEST(ConstFold, KeepsTrappingDivision) {
  Module M = parsed(R"(
func f(): i64 {
entry:
  %a = div 1, 0
  ret %a
}
)");
  ConstFoldPass Fold;
  Fold.run(M);
  EXPECT_EQ(countOp(M, Opcode::Div), 1u) << "division by zero must stay";
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::IgnoreAtomic;
  Interpreter I(M, O);
  EXPECT_TRUE(I.run("f", {}).Trapped);
}

TEST(ConstFold, CollapsesConstantBranches) {
  Module M = parsed(R"(
func f(): i64 {
entry:
  %c = cmplt 1, 2
  condbr %c, yes, no
yes:
  ret 10
no:
  ret 20
}
)");
  ConstFoldPass Fold;
  EXPECT_TRUE(Fold.run(M));
  EXPECT_EQ(countOp(M, Opcode::CondBr), 0u);
  SimplifyCfgPass Cfg;
  EXPECT_TRUE(Cfg.run(M));
  verifyModuleOrDie(M);
  EXPECT_EQ(M.Functions[0]->Blocks.size(), 1u) << "dead arm not removed";
  EXPECT_EQ(runF(M, "f"), 10);
}

TEST(ConstFold, DeadBranchBarriersDisappear) {
  // A barrier on a constant-false path must vanish entirely once folding,
  // CFG simplification and DCE cooperate — the paper's "classic
  // optimizations apply to STM operations" effect.
  Module M = parsed(R"(
class P { x: i64 }
func f(p: P): i64 {
entry:
  atomic_begin
  %never = cmpgt 1, 2
  condbr %never, cold, hot
cold:
  %o1 = loadlocal p
  %v1 = getfield %o1, P.x
  br join
hot:
  %o2 = loadlocal p
  %v2 = getfield %o2, P.x
  br join
join:
  atomic_end
  ret 0
}
)");
  PassManager PM;
  PM.addPass<LowerAtomicPass>();
  PM.addPass<ConstFoldPass>();
  PM.addPass<SimplifyCfgPass>();
  PM.addPass<LocalCsePass>();
  PM.addPass<OpenElimPass>();
  PM.addPass<DcePass>();
  PM.run(M);
  EXPECT_EQ(countBarriers(M).OpenRead, 1u)
      << "only the reachable access should keep its barrier";
}

TEST(SimplifyCfg, MergesChainsAndDropsUnreachable) {
  Module M = parsed(R"(
func f(): i64 {
entry:
  br a
a:
  %x = mov 1
  br b
b:
  %y = add %x, 2
  ret %y
dead:
  ret 99
}
)");
  SimplifyCfgPass Cfg;
  EXPECT_TRUE(Cfg.run(M));
  verifyModuleOrDie(M);
  EXPECT_EQ(M.Functions[0]->Blocks.size(), 1u);
  EXPECT_EQ(runF(M, "f"), 3);
}

TEST(SimplifyCfg, KeepsDiamonds) {
  Module M = parsed(R"(
func f(c: i1): i64 {
entry:
  %x = loadlocal c
  condbr %x, a, b
a:
  br join
b:
  br join
join:
  ret 1
}
)");
  SimplifyCfgPass Cfg;
  Cfg.run(M);
  verifyModuleOrDie(M);
  EXPECT_EQ(M.Functions[0]->Blocks.size(), 4u)
      << "multi-predecessor join must not merge";
}

//===----------------------------------------------------------------------===
// Integer semantics shared with the interpreter (tmir/IntSemantics.h)
//===----------------------------------------------------------------------===

namespace {

struct OverflowCase {
  const char *Op;
  const char *A;
  const char *B;
  int64_t Expected;
};

// Each case wraps, or hits INT64_MIN / -1, or shifts by a masked amount.
const OverflowCase OverflowCases[] = {
    {"add", "9223372036854775807", "1", INT64_MIN},
    {"add", "-9223372036854775808", "-1", INT64_MAX},
    {"sub", "-9223372036854775808", "1", INT64_MAX},
    {"sub", "0", "-9223372036854775808", INT64_MIN},
    {"mul", "9223372036854775807", "2", -2},
    {"mul", "-9223372036854775808", "-1", INT64_MIN},
    {"mul", "4611686018427387904", "4", 0},
    {"div", "-9223372036854775808", "-1", INT64_MIN},
    {"rem", "-9223372036854775808", "-1", 0},
    {"div", "7", "-1", -7},
    {"rem", "7", "-1", 0},
    {"div", "-7", "2", -3},
    {"rem", "-7", "2", -1},
    {"shl", "1", "64", 1},
    {"shl", "1", "63", INT64_MIN},
    {"shr", "-1", "63", 1},
    {"shr", "-8", "65", INT64_MAX - 3},
};

int64_t runWithArgs(Module &M, const char *Name, std::vector<int64_t> Args) {
  Interpreter::Options O;
  O.Mode = Interpreter::TxMode::IgnoreAtomic;
  Interpreter I(M, O);
  Interpreter::RunResult R = I.run(Name, Args);
  EXPECT_FALSE(R.Trapped) << R.Error;
  return R.Value;
}

} // namespace

TEST(ConstFold, OverflowFoldsToTheInterpretedValue) {
  for (const OverflowCase &C : OverflowCases) {
    std::string What = std::string(C.Op) + " " + C.A + ", " + C.B;
    // The same operation twice: on immediates (folded at compile time) and
    // on parameters (computed by the interpreter).
    Module M = parsed(std::string("func folded(): i64 {\nentry:\n  %r = ") +
                      C.Op + " " + C.A + ", " + C.B +
                      "\n  ret %r\n}\n"
                      "func computed(a: i64, b: i64): i64 {\nentry:\n"
                      "  %a = loadlocal a\n  %b = loadlocal b\n  %r = " +
                      C.Op + " %a, %b\n  ret %r\n}\n");
    ConstFoldPass Fold;
    EXPECT_TRUE(Fold.run(M)) << What;
    verifyModuleOrDie(M);
    const Instr &Folded = M.functionByName("folded")->Blocks[0]->Instrs[0];
    ASSERT_EQ(Folded.Op, Opcode::Mov) << What;
    ASSERT_TRUE(Folded.Operands[0].isImm()) << What;
    int64_t A = std::stoll(C.A), B = std::stoll(C.B);
    EXPECT_EQ(Folded.Operands[0].immValue(), C.Expected) << What;
    EXPECT_EQ(runWithArgs(M, "computed", {A, B}), C.Expected) << What;
    EXPECT_EQ(runWithArgs(M, "folded", {}), C.Expected) << What;
  }
}

TEST(ConstFold, MinDivMinusOneThroughThePipeline) {
  // INT64_MIN / -1 once killed the compiler itself with SIGFPE.
  Module M = parsed(R"(
func f(): i64 {
entry:
  %m = sub -9223372036854775807, 1
  %q = div %m, -1
  %r = rem %m, -1
  %s = add %q, %r
  ret %s
}
)");
  passes::lowerAndOptimize(M, passes::OptConfig::all());
  EXPECT_EQ(runF(M, "f"), INT64_MIN);
}
