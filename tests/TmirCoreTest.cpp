//===- tests/TmirCoreTest.cpp - IR, parser, verifier, analyses -----------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/AtomicRegions.h"
#include "tmir/Dominators.h"
#include "tmir/IR.h"
#include "tmir/LoopInfo.h"
#include "tmir/Parser.h"
#include "tmir/Verifier.h"

#include <gtest/gtest.h>

using namespace otm;
using namespace otm::tmir;

namespace {

const char *SumList = R"(
class Node { key: i64, val: i64, next: Node }

func sum(head: Node): i64 {
  var acc: i64
  var cur: Node
entry:
  storelocal acc, 0
  storelocal cur, null
  %h = loadlocal head
  storelocal cur, %h
  br loop
loop:
  %c = loadlocal cur
  %done = cmpeq %c, null
  condbr %done, exit, body
body:
  %c2 = loadlocal cur
  %v = getfield %c2, Node.val
  %a = loadlocal acc
  %a2 = add %a, %v
  storelocal acc, %a2
  %n = getfield %c2, Node.next
  storelocal cur, %n
  br loop
exit:
  %r = loadlocal acc
  ret %r
}
)";

Module parseAndVerify(const std::string &Text) {
  Module M = parseModuleOrDie(Text);
  verifyModuleOrDie(M);
  return M;
}

} // namespace

TEST(Parser, ParsesClassesAndFunctions) {
  Module M = parseAndVerify(SumList);
  ASSERT_EQ(M.Classes.size(), 1u);
  EXPECT_EQ(M.Classes[0].Name, "Node");
  ASSERT_EQ(M.Classes[0].Fields.size(), 3u);
  EXPECT_EQ(M.Classes[0].fieldIndex("next"), 2);
  ASSERT_EQ(M.Functions.size(), 1u);
  Function &F = *M.Functions[0];
  EXPECT_EQ(F.Name, "sum");
  EXPECT_EQ(F.NumParams, 1u);
  EXPECT_EQ(F.Locals.size(), 3u); // head, acc, cur
  EXPECT_EQ(F.Blocks.size(), 4u);
  EXPECT_EQ(F.entry()->Name, "entry");
  EXPECT_TRUE(F.ReturnTy.isI64());
}

TEST(Parser, RoundTripsThroughPrinter) {
  Module M1 = parseAndVerify(SumList);
  std::string Printed = printModule(M1);
  Module M2 = parseAndVerify(Printed);
  // Second print must be a fixpoint.
  EXPECT_EQ(printModule(M2), Printed);
}

TEST(Parser, ForwardFunctionReferences) {
  Module M = parseAndVerify(R"(
func caller(): i64 {
entry:
  %r = call callee(3)
  ret %r
}
func callee(x: i64): i64 {
entry:
  %y = loadlocal x
  %r = mul %y, 2
  ret %r
}
)");
  EXPECT_EQ(M.Functions.size(), 2u);
}

TEST(Parser, ReportsUnknownOpcode) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule("func f() {\nentry:\n  frobnicate 1\n  ret\n}\n",
                           M, Error));
  EXPECT_NE(Error.find("frobnicate"), std::string::npos);
  EXPECT_NE(Error.find("line 3"), std::string::npos);
}

TEST(Parser, ReportsUnknownField) {
  Module M;
  std::string Error;
  EXPECT_FALSE(parseModule(R"(
class P { x: i64 }
func f(p: P): i64 {
entry:
  %o = loadlocal p
  %v = getfield %o, P.y
  ret %v
}
)",
                           M, Error));
  EXPECT_NE(Error.find("no field 'y'"), std::string::npos);
}

TEST(Parser, ErrorMessagesAreExact) {
  // The full "line N: message" text of each kind of parse error.
  struct Case {
    const char *Text;
    const char *Message;
  };
  const Case Cases[] = {
      {"func f() {\nentry:\n  ret\n}\n#", "line 5: unexpected character '#'"},
      {"klass P { }", "line 1: expected 'class' or 'func'"},
      {"class P { x: i64 }\nclass P { y: i64 }",
       "line 2: duplicate class P"},
      {"func f() {\nentry:\n  ret\n}\nfunc f() {\nentry:\n  ret\n}",
       "line 5: duplicate function f"},
      {"class P { x: Q }", "line 1: unknown type 'Q'"},
      {"class P { x: i64, x: i64 }", "line 1: duplicate field 'x'"},
      {"func f() {\nentry:\n  ret\nentry:\n  ret\n}",
       "line 4: duplicate label 'entry'"},
      {"func f() {\n  ret\n}", "line 2: function has no blocks"},
      {"func f() {\n  ret\nentry:\n  ret\n}",
       "line 2: instruction before first label"},
      {"func f() {\nentry:\n  br nowhere\n}",
       "line 4: unknown label 'nowhere'"},
      {"func f() {\nentry:\n  storelocal v, 1\n  ret\n}",
       "line 3: unknown local 'v'"},
      {"func f() {\nentry:\n  %x = newobj Q\n  ret\n}",
       "line 4: unknown class 'Q'"},
      {"func f() {\nentry:\n  call g()\n  ret\n}",
       "line 3: unknown function 'g'"},
      {"class P { x: i64 }\nfunc f(p: P) {\nentry:\n  %o = loadlocal p\n"
       "  %v = getfield %o, P.y\n  ret\n}",
       "line 6: class P has no field 'y'"},
      {"func f() {\nentry:\n  frobnicate 1\n  ret\n}",
       "line 3: unknown opcode 'frobnicate'"},
      {"func f() {\nentry:\n  %x = add 1 2\n  ret\n}",
       "line 3: expected ','"},
      {"func f() {\nentry:\n  %x = add 1, ,\n  ret\n}",
       "line 3: expected a value"},
      {"func f() {\nentry:\n  ret\n", "line 4: unexpected end of input in "
                                      "function body"},
  };
  for (const Case &C : Cases) {
    Module M;
    std::string Error;
    EXPECT_FALSE(parseModule(C.Text, M, Error)) << C.Text;
    EXPECT_EQ(Error, C.Message) << C.Text;
  }
}

TEST(Parser, IntegerLiteralsCoverTheI64Range) {
  Module M = parseAndVerify(R"(
func f(): i64 {
entry:
  %a = mov 9223372036854775807
  %b = mov -9223372036854775808
  %c = add %a, %b
  ret %c
}
)");
  const std::vector<Instr> &Instrs = M.Functions[0]->Blocks[0]->Instrs;
  EXPECT_EQ(Instrs[0].Operands[0].immValue(), INT64_MAX);
  EXPECT_EQ(Instrs[1].Operands[0].immValue(), INT64_MIN);
}

TEST(Parser, RejectsOutOfRangeIntegerLiterals) {
  // One past each end of the i64 range, and far beyond: an error naming
  // the line and the literal, never a silently saturated value.
  const char *Literals[] = {"9223372036854775808", "-9223372036854775809",
                            "123456789012345678901234567890"};
  for (const char *Lit : Literals) {
    Module M;
    std::string Error;
    std::string Text = "func f(): i64 {\nentry:\n  %a = mov 1\n  %b = add %a, " +
                       std::string(Lit) + "\n  ret %b\n}\n";
    EXPECT_FALSE(parseModule(Text, M, Error)) << Lit;
    EXPECT_EQ(Error, "line 4: integer literal " + std::string(Lit) +
                         " is out of the i64 range");
  }
}

TEST(Verifier, InfersTypesThroughMovChains) {
  // %a copies %b, which copies %o, defined in a later block; the chain
  // resolves to the object type. %p and %q only copy each other: a cycle
  // with no source type stays void.
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(R"(
class P { x: i64 }
func f(p: P): i64 {
entry:
  br second
first:
  %a = mov %b
  %v = getfield %a, P.x
  ret %v
second:
  %o = loadlocal p
  %b = mov %o
  %p = mov %q
  %q = mov %p
  br first
}
)",
                          M, Error))
      << Error;
  ASSERT_TRUE(verifyModule(M, Error)) << Error;
  const Function &F = *M.Functions[0];
  auto TypeOf = [&](const char *Name) {
    for (int R = 0; R < F.numRegs(); ++R)
      if (F.RegNames[R] == Name)
        return F.RegTypes[R];
    return Type::makeI64();
  };
  EXPECT_EQ(TypeOf("a"), Type::makeObj(0));
  EXPECT_EQ(TypeOf("b"), Type::makeObj(0));
  EXPECT_TRUE(TypeOf("p").isVoid());
  EXPECT_TRUE(TypeOf("q").isVoid());
}

TEST(Verifier, RejectsMissingTerminator) {
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule("func f() {\nentry:\n  %a = mov 1\n}\n", M, Error))
      << Error;
  EXPECT_FALSE(verifyModule(M, Error));
  EXPECT_NE(Error.find("missing terminator"), std::string::npos);
}

TEST(Verifier, RejectsDoubleDefinition) {
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(
      "func f() {\nentry:\n  %a = mov 1\n  %a = mov 2\n  ret\n}\n", M, Error));
  EXPECT_FALSE(verifyModule(M, Error));
  EXPECT_NE(Error.find("defined more than once"), std::string::npos);
}

TEST(Verifier, RejectsUndefinedUse) {
  Module M;
  std::string Error;
  ASSERT_TRUE(
      parseModule("func f(): i64 {\nentry:\n  ret %ghost\n}\n", M, Error));
  EXPECT_FALSE(verifyModule(M, Error));
  EXPECT_NE(Error.find("never defined"), std::string::npos);
}

TEST(Verifier, RejectsTypeErrors) {
  // Branch condition must be i1.
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(R"(
func f() {
entry:
  %x = mov 5
  condbr %x, a, b
a:
  ret
b:
  ret
}
)",
                          M, Error));
  EXPECT_FALSE(verifyModule(M, Error));
  EXPECT_NE(Error.find("condition must be i1"), std::string::npos);
}

TEST(Verifier, RejectsArityMismatch) {
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(R"(
func g(a: i64, b: i64) {
entry:
  ret
}
func f() {
entry:
  call g(1)
  ret
}
)",
                          M, Error));
  EXPECT_FALSE(verifyModule(M, Error));
  EXPECT_NE(Error.find("arity"), std::string::npos);
}

TEST(Verifier, AcceptsBarriersOnRefs) {
  Module M = parseAndVerify(R"(
class P { x: i64 }
func f(p: P): i64 {
entry:
  atomic_begin
  %o = loadlocal p
  open_read %o
  %v = getfield %o, P.x
  open_update %o
  log_undo_field %o, P.x
  setfield %o, P.x, 9
  atomic_end
  ret %v
}
)");
  EXPECT_EQ(M.Functions.size(), 1u);
}

TEST(Verifier, RejectsBarrierOnInt) {
  Module M;
  std::string Error;
  ASSERT_TRUE(parseModule(R"(
func f() {
entry:
  %x = mov 1
  open_read %x
  ret
}
)",
                          M, Error));
  EXPECT_FALSE(verifyModule(M, Error));
  EXPECT_NE(Error.find("must be a reference"), std::string::npos);
}

TEST(Dominators, LinearChain) {
  Module M = parseAndVerify(R"(
func f() {
entry:
  br mid
mid:
  br exit
exit:
  ret
}
)");
  DominatorTree DT(*M.Functions[0]);
  EXPECT_TRUE(DT.dominates(0, 1));
  EXPECT_TRUE(DT.dominates(0, 2));
  EXPECT_TRUE(DT.dominates(1, 2));
  EXPECT_FALSE(DT.dominates(2, 1));
  EXPECT_EQ(DT.idom(0), -1);
  EXPECT_EQ(DT.idom(1), 0);
  EXPECT_EQ(DT.idom(2), 1);
}

TEST(Dominators, Diamond) {
  Module M = parseAndVerify(R"(
func f(c: i1) {
entry:
  %x = loadlocal c
  condbr %x, left, right
left:
  br join
right:
  br join
join:
  ret
}
)");
  Function &F = *M.Functions[0];
  DominatorTree DT(F);
  int Entry = 0, Left = 1, Right = 2, Join = 3;
  EXPECT_TRUE(DT.dominates(Entry, Join));
  EXPECT_FALSE(DT.dominates(Left, Join));
  EXPECT_FALSE(DT.dominates(Right, Join));
  EXPECT_EQ(DT.idom(Join), Entry);
}

TEST(LoopInfoTest, FindsNaturalLoop) {
  Module M = parseAndVerify(SumList);
  Function &F = *M.Functions[0];
  DominatorTree DT(F);
  LoopInfo LI(F, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  const Loop &L = LI.loops()[0];
  EXPECT_EQ(F.Blocks[L.Header]->Name, "loop");
  ASSERT_EQ(L.Latches.size(), 1u);
  EXPECT_EQ(F.Blocks[L.Latches[0]]->Name, "body");
  EXPECT_TRUE(L.contains(L.Header));
  EXPECT_TRUE(L.contains(L.Latches[0]));
  EXPECT_FALSE(L.contains(3)); // exit
}

TEST(AtomicRegionsTest, TracksMembershipAcrossBlocks) {
  Module M = parseAndVerify(R"(
class P { x: i64 }
func f(p: P, c: i1): i64 {
entry:
  atomic_begin
  %cc = loadlocal c
  condbr %cc, a, b
a:
  br join
b:
  br join
join:
  atomic_end
  %o = loadlocal p
  %v = getfield %o, P.x
  ret %v
}
)");
  Function &F = *M.Functions[0];
  AtomicRegions AR(F);
  ASSERT_TRUE(AR.valid()) << AR.error();
  EXPECT_TRUE(AR.hasAtomic());
  EXPECT_FALSE(AR.inAtomicAtEntry(0));
  EXPECT_TRUE(AR.inAtomicAtEntry(1));
  EXPECT_TRUE(AR.inAtomicAtEntry(2));
  EXPECT_TRUE(AR.inAtomicAtEntry(3));
  // After atomic_end in join, the getfield is outside.
  EXPECT_TRUE(AR.inAtomic(3, 0));  // atomic_end itself
  EXPECT_FALSE(AR.inAtomic(3, 1)); // loadlocal p
}

TEST(AtomicRegionsTest, RejectsInconsistentJoin) {
  Module M = parseModuleOrDie(R"(
func f(c: i1) {
entry:
  %cc = loadlocal c
  condbr %cc, a, b
a:
  atomic_begin
  br join
b:
  br join
join:
  atomic_end
  ret
}
)");
  AtomicRegions AR(*M.Functions[0]);
  // Depending on traversal order this is reported either as an inconsistent
  // join or as an atomic_end outside a region; both diagnose the same bug.
  EXPECT_FALSE(AR.valid());
  EXPECT_FALSE(AR.error().empty());
}

TEST(AtomicRegionsTest, RejectsReturnInsideAtomic) {
  Module M = parseModuleOrDie(R"(
func f() {
entry:
  atomic_begin
  ret
}
)");
  AtomicRegions AR(*M.Functions[0]);
  EXPECT_FALSE(AR.valid());
  EXPECT_NE(AR.error().find("return inside atomic"), std::string::npos);
}
