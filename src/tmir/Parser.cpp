//===- tmir/Parser.cpp - Textual TMIR parser ------------------------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "tmir/Parser.h"

#include "support/Compiler.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

using namespace otm;
using namespace otm::tmir;

namespace {

//===----------------------------------------------------------------------===
// Lexer
//===----------------------------------------------------------------------===

enum class TokKind : uint8_t {
  Ident,
  Int,
  Percent,
  Equals,
  Colon,
  Comma,
  Dot,
  LBrace,
  RBrace,
  LParen,
  RParen,
  End,
};

/// A token; Text views the source, which outlives the parse.
struct Token {
  TokKind Kind = TokKind::End;
  std::string_view Text;
  int64_t IntValue = 0;
  int Line = 0;

  bool is(TokKind K) const { return Kind == K; }
  bool isIdent(std::string_view S) const {
    return Kind == TokKind::Ident && Text == S;
  }
};

// Character classes of the "C" locale, without the <cctype> calls.
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}
bool isIdentChar(char C) {
  return isAlpha(C) || isDigit(C) || C == '_' || C == '$';
}

class Lexer {
public:
  Lexer(std::string_view Text, std::string &Error)
      : Text(Text), Error(Error) {}

  /// Lexes the whole input; returns false on a bad character or an integer
  /// literal outside the i64 range.
  bool run(std::vector<Token> &Out) {
    std::size_t I = 0, N = Text.size();
    int Line = 1;
    while (I < N) {
      char C = Text[I];
      if (C == '\n') {
        ++Line;
        ++I;
        continue;
      }
      if (isSpace(C)) {
        ++I;
        continue;
      }
      if (C == '/' && I + 1 < N && Text[I + 1] == '/') {
        while (I < N && Text[I] != '\n')
          ++I;
        continue;
      }
      if (isAlpha(C) || C == '_') {
        std::size_t Start = I;
        while (I < N && isIdentChar(Text[I]))
          ++I;
        Out.push_back({TokKind::Ident, Text.substr(Start, I - Start), 0, Line});
        continue;
      }
      if (isDigit(C) || (C == '-' && I + 1 < N && isDigit(Text[I + 1]))) {
        std::size_t Start = I;
        if (C == '-')
          ++I;
        while (I < N && isDigit(Text[I]))
          ++I;
        Token T{TokKind::Int, Text.substr(Start, I - Start), 0, Line};
        std::from_chars_result R = std::from_chars(
            T.Text.data(), T.Text.data() + T.Text.size(), T.IntValue);
        if (R.ec != std::errc()) {
          Error = "line " + std::to_string(Line) + ": integer literal " +
                  std::string(T.Text) + " is out of the i64 range";
          return false;
        }
        Out.push_back(T);
        continue;
      }
      TokKind K;
      switch (C) {
      case '%':
        K = TokKind::Percent;
        break;
      case '=':
        K = TokKind::Equals;
        break;
      case ':':
        K = TokKind::Colon;
        break;
      case ',':
        K = TokKind::Comma;
        break;
      case '.':
        K = TokKind::Dot;
        break;
      case '{':
        K = TokKind::LBrace;
        break;
      case '}':
        K = TokKind::RBrace;
        break;
      case '(':
        K = TokKind::LParen;
        break;
      case ')':
        K = TokKind::RParen;
        break;
      default:
        Error = "line " + std::to_string(Line) + ": unexpected character '" +
                std::string(1, C) + "'";
        return false;
      }
      Out.push_back({K, Text.substr(I, 1), 0, Line});
      ++I;
    }
    Out.push_back({TokKind::End, std::string_view(), 0, Line});
    return true;
  }

private:
  std::string_view Text;
  std::string &Error;
};

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

class Parser {
public:
  Parser(std::vector<Token> Toks, Module &M, std::string &Error)
      : Toks(std::move(Toks)), M(M), Error(Error) {}

  bool run() {
    if (!preRegister())
      return false;
    while (!peek().is(TokKind::End)) {
      if (peek().isIdent("class")) {
        if (!parseClass())
          return false;
      } else if (peek().isIdent("func") || peek().isIdent("txfunc")) {
        if (!parseFunction())
          return false;
      } else {
        return fail("expected 'class' or 'func'");
      }
    }
    return true;
  }

private:
  const Token &peek(unsigned Ahead = 0) const {
    std::size_t I = Pos + Ahead;
    return I < Toks.size() ? Toks[I] : Toks.back();
  }
  const Token &next() { return Toks[Pos < Toks.size() - 1 ? Pos++ : Pos]; }

  bool fail(const std::string &Msg) {
    Error = "line " + std::to_string(peek().Line) + ": " + Msg;
    return false;
  }

  bool expect(TokKind K, const char *What) {
    if (!peek().is(K))
      return fail(std::string("expected ") + What);
    next();
    return true;
  }

  /// Registers all class and function names up front so bodies may refer
  /// to declarations that appear later in the file.
  bool preRegister() {
    for (std::size_t I = 0; I + 1 < Toks.size(); ++I) {
      if (Toks[I].isIdent("class") && Toks[I + 1].is(TokKind::Ident) &&
          (I == 0 || !isDeclContext(I))) {
        if (M.classIndex(Toks[I + 1].Text) >= 0) {
          Error = "line " + std::to_string(Toks[I].Line) +
                  ": duplicate class " + std::string(Toks[I + 1].Text);
          return false;
        }
        M.addClass(ClassDecl{std::string(Toks[I + 1].Text), {}});
      }
      if ((Toks[I].isIdent("func") || Toks[I].isIdent("txfunc")) &&
          Toks[I + 1].is(TokKind::Ident) &&
          (I == 0 || !isDeclContext(I))) {
        if (M.functionIndex(Toks[I + 1].Text) >= 0) {
          Error = "line " + std::to_string(Toks[I].Line) +
                  ": duplicate function " + std::string(Toks[I + 1].Text);
          return false;
        }
        M.addFunction(std::string(Toks[I + 1].Text));
      }
    }
    return true;
  }

  /// True if token I is used as an operand/decl rather than a keyword
  /// (e.g. a local named "func" would confuse the prescan; we simply ban
  /// such names by treating top-level occurrences only).
  bool isDeclContext(std::size_t I) const {
    // Keywords at top level are preceded by '}' or start of file or the
    // end of a previous declaration; inside bodies they are preceded by
    // operand punctuation. A simple rule that works for the format: the
    // previous token must be RBrace or End-of-declaration.
    const Token &P = Toks[I - 1];
    return !(P.is(TokKind::RBrace));
  }

  bool parseType(Type &Ty) {
    if (!peek().is(TokKind::Ident))
      return fail("expected a type");
    std::string_view Name = next().Text;
    if (Name == "i64")
      Ty = Type::makeI64();
    else if (Name == "i1")
      Ty = Type::makeI1();
    else if (Name == "arr")
      Ty = Type::makeArr();
    else if (Name == "void")
      Ty = Type::makeVoid();
    else {
      int Id = M.classIndex(Name);
      if (Id < 0)
        return fail("unknown type '" + std::string(Name) + "'");
      Ty = Type::makeObj(Id);
    }
    return true;
  }

  bool parseClass() {
    next(); // class
    if (!peek().is(TokKind::Ident))
      return fail("expected class name");
    ClassDecl &Decl = M.Classes[M.classIndex(next().Text)];
    if (!expect(TokKind::LBrace, "'{'"))
      return false;
    while (!peek().is(TokKind::RBrace)) {
      if (!peek().is(TokKind::Ident))
        return fail("expected field name");
      FieldDecl Field;
      Field.Name = std::string(next().Text);
      if (!expect(TokKind::Colon, "':'"))
        return false;
      if (!parseType(Field.Ty))
        return false;
      if (Field.Ty.isVoid())
        return fail("field cannot have void type");
      if (Decl.fieldIndex(Field.Name) >= 0)
        return fail("duplicate field '" + Field.Name + "'");
      Decl.Fields.push_back(std::move(Field));
      if (peek().is(TokKind::Comma))
        next();
    }
    next(); // }
    return true;
  }

  //===------------------------------------------------------------------===
  // Function bodies
  //===------------------------------------------------------------------===

  Function *F = nullptr;
  // Keyed by views of the source text.
  std::unordered_map<std::string_view, int> RegIds;
  std::unordered_map<std::string_view, int> BlockIds;

  int regFor(std::string_view Name) {
    auto [It, Inserted] = RegIds.try_emplace(Name, F->numRegs());
    if (Inserted)
      F->addReg(std::string(Name));
    return It->second;
  }

  bool parseFunction() {
    bool AllAtomic = peek().isIdent("txfunc");
    next(); // func / txfunc
    F = M.Functions[M.functionIndex(next().Text)].get();
    F->IsAllAtomic = AllAtomic;
    RegIds.clear();
    BlockIds.clear();

    if (!expect(TokKind::LParen, "'('"))
      return false;
    while (!peek().is(TokKind::RParen)) {
      LocalDecl Param;
      if (!peek().is(TokKind::Ident))
        return fail("expected parameter name");
      Param.Name = std::string(next().Text);
      if (!expect(TokKind::Colon, "':'"))
        return false;
      if (!parseType(Param.Ty))
        return false;
      F->Locals.push_back(std::move(Param));
      if (peek().is(TokKind::Comma))
        next();
    }
    next(); // )
    F->NumParams = static_cast<unsigned>(F->Locals.size());
    if (peek().is(TokKind::Colon)) {
      next();
      if (!parseType(F->ReturnTy))
        return false;
    }
    if (!expect(TokKind::LBrace, "'{'"))
      return false;

    // Var declarations precede the first label.
    while (peek().isIdent("var")) {
      next();
      LocalDecl Local;
      if (!peek().is(TokKind::Ident))
        return fail("expected variable name");
      Local.Name = std::string(next().Text);
      if (!expect(TokKind::Colon, "':'"))
        return false;
      if (!parseType(Local.Ty))
        return false;
      if (F->localIndex(Local.Name) >= 0)
        return fail("duplicate local '" + Local.Name + "'");
      F->Locals.push_back(std::move(Local));
    }

    // Pre-scan for labels (Ident ':') to create blocks in textual order.
    for (std::size_t I = Pos; I < Toks.size(); ++I) {
      if (Toks[I].is(TokKind::RBrace))
        break;
      if (Toks[I].is(TokKind::Ident) && Toks[I + 1].is(TokKind::Colon)) {
        if (BlockIds.count(Toks[I].Text)) {
          Error = "line " + std::to_string(Toks[I].Line) +
                  ": duplicate label '" + std::string(Toks[I].Text) + "'";
          return false;
        }
        BlockIds[Toks[I].Text] = F->addBlock(std::string(Toks[I].Text))->Id;
      }
    }
    if (F->Blocks.empty())
      return fail("function has no blocks");

    BasicBlock *BB = nullptr;
    while (!peek().is(TokKind::RBrace)) {
      if (peek().is(TokKind::End))
        return fail("unexpected end of input in function body");
      if (peek().is(TokKind::Ident) && peek(1).is(TokKind::Colon)) {
        BB = F->Blocks[BlockIds[next().Text]].get();
        next(); // :
        continue;
      }
      if (!BB)
        return fail("instruction before first label");
      if (!parseInstr(*BB))
        return false;
    }
    next(); // }
    return true;
  }

  bool parseValue(Value &V) {
    if (peek().is(TokKind::Percent)) {
      next();
      if (!peek().is(TokKind::Ident))
        return fail("expected register name after '%'");
      V = Value::reg(regFor(next().Text));
      return true;
    }
    if (peek().is(TokKind::Int)) {
      V = Value::imm(next().IntValue);
      return true;
    }
    if (peek().isIdent("null")) {
      next();
      V = Value::null();
      return true;
    }
    if (peek().isIdent("true")) {
      next();
      V = Value::imm(1);
      return true;
    }
    if (peek().isIdent("false")) {
      next();
      V = Value::imm(0);
      return true;
    }
    return fail("expected a value");
  }

  bool parseFieldRef(Instr &I) {
    if (!peek().is(TokKind::Ident))
      return fail("expected class name");
    std::string_view ClassName = next().Text;
    int ClassId = M.classIndex(ClassName);
    if (ClassId < 0)
      return fail("unknown class '" + std::string(ClassName) + "'");
    if (!expect(TokKind::Dot, "'.'"))
      return false;
    if (!peek().is(TokKind::Ident))
      return fail("expected field name");
    std::string_view FieldName = next().Text;
    int FieldIdx = M.Classes[ClassId].fieldIndex(FieldName);
    if (FieldIdx < 0)
      return fail("class " + std::string(ClassName) + " has no field '" +
                  std::string(FieldName) + "'");
    I.ClassId = ClassId;
    I.FieldIdx = FieldIdx;
    return true;
  }

  bool parseLabelRef(int &Target) {
    if (!peek().is(TokKind::Ident))
      return fail("expected a label");
    std::string_view Name = next().Text;
    auto It = BlockIds.find(Name);
    if (It == BlockIds.end())
      return fail("unknown label '" + std::string(Name) + "'");
    Target = It->second;
    return true;
  }

  bool parseLocalRef(Instr &I) {
    if (!peek().is(TokKind::Ident))
      return fail("expected a local name");
    std::string_view Name = next().Text;
    int Idx = F->localIndex(Name);
    if (Idx < 0)
      return fail("unknown local '" + std::string(Name) + "'");
    I.LocalIdx = Idx;
    return true;
  }

  bool parseOperands(Instr &I, unsigned Count) {
    I.Operands.reserve(I.Operands.size() + Count);
    for (unsigned N = 0; N < Count; ++N) {
      if (N && !expect(TokKind::Comma, "','"))
        return false;
      Value V;
      if (!parseValue(V))
        return false;
      I.Operands.push_back(V);
    }
    return true;
  }

  bool parseInstr(BasicBlock &BB) {
    Instr I;
    // Optional "%reg =" result.
    if (peek().is(TokKind::Percent)) {
      next();
      if (!peek().is(TokKind::Ident))
        return fail("expected register name");
      I.ResultReg = regFor(next().Text);
      if (!expect(TokKind::Equals, "'='"))
        return false;
    }
    if (!peek().is(TokKind::Ident))
      return fail("expected an opcode");
    std::string_view Op = next().Text;

    static const std::unordered_map<std::string_view, Opcode> OpMap = {
        {"mov", Opcode::Mov},
        {"add", Opcode::Add},
        {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},
        {"div", Opcode::Div},
        {"rem", Opcode::Rem},
        {"and", Opcode::And},
        {"or", Opcode::Or},
        {"xor", Opcode::Xor},
        {"shl", Opcode::Shl},
        {"shr", Opcode::Shr},
        {"cmpeq", Opcode::CmpEq},
        {"cmpne", Opcode::CmpNe},
        {"cmplt", Opcode::CmpLt},
        {"cmple", Opcode::CmpLe},
        {"cmpgt", Opcode::CmpGt},
        {"cmpge", Opcode::CmpGe},
        {"loadlocal", Opcode::LoadLocal},
        {"storelocal", Opcode::StoreLocal},
        {"newobj", Opcode::NewObj},
        {"getfield", Opcode::GetField},
        {"setfield", Opcode::SetField},
        {"newarr", Opcode::NewArr},
        {"arrlen", Opcode::ArrLen},
        {"arrget", Opcode::ArrGet},
        {"arrset", Opcode::ArrSet},
        {"call", Opcode::Call},
        {"print", Opcode::Print},
        {"atomic_begin", Opcode::AtomicBegin},
        {"atomic_end", Opcode::AtomicEnd},
        {"open_read", Opcode::OpenForRead},
        {"open_update", Opcode::OpenForUpdate},
        {"log_undo_field", Opcode::LogUndoField},
        {"log_undo_elem", Opcode::LogUndoElem},
        {"br", Opcode::Br},
        {"condbr", Opcode::CondBr},
        {"ret", Opcode::Ret},
    };
    auto It = OpMap.find(Op);
    if (It == OpMap.end())
      return fail("unknown opcode '" + std::string(Op) + "'");
    I.Op = It->second;

    switch (I.Op) {
    case Opcode::Mov:
    case Opcode::Print:
    case Opcode::OpenForRead:
    case Opcode::OpenForUpdate:
    case Opcode::NewArr:
    case Opcode::ArrLen:
      if (!parseOperands(I, 1))
        return false;
      break;
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::Div:
    case Opcode::Rem:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLt:
    case Opcode::CmpLe:
    case Opcode::CmpGt:
    case Opcode::CmpGe:
    case Opcode::ArrGet:
    case Opcode::LogUndoElem:
      if (!parseOperands(I, 2))
        return false;
      break;
    case Opcode::ArrSet:
      if (!parseOperands(I, 3))
        return false;
      break;
    case Opcode::LoadLocal:
      if (!parseLocalRef(I))
        return false;
      break;
    case Opcode::StoreLocal:
      if (!parseLocalRef(I) || !expect(TokKind::Comma, "','") ||
          !parseOperands(I, 1))
        return false;
      break;
    case Opcode::NewObj: {
      if (!peek().is(TokKind::Ident))
        return fail("expected class name");
      std::string_view ClassName = next().Text;
      I.ClassId = M.classIndex(ClassName);
      if (I.ClassId < 0)
        return fail("unknown class '" + std::string(ClassName) + "'");
      break;
    }
    case Opcode::GetField:
      if (!parseOperands(I, 1) || !expect(TokKind::Comma, "','") ||
          !parseFieldRef(I))
        return false;
      break;
    case Opcode::SetField:
      if (!parseOperands(I, 1) || !expect(TokKind::Comma, "','") ||
          !parseFieldRef(I) || !expect(TokKind::Comma, "','"))
        return false;
      if (!parseOperands(I, 1))
        return false;
      break;
    case Opcode::LogUndoField:
      if (!parseOperands(I, 1) || !expect(TokKind::Comma, "','") ||
          !parseFieldRef(I))
        return false;
      break;
    case Opcode::Call: {
      if (!peek().is(TokKind::Ident))
        return fail("expected function name");
      std::string_view Callee = next().Text;
      I.CalleeIdx = M.functionIndex(Callee);
      if (I.CalleeIdx < 0)
        return fail("unknown function '" + std::string(Callee) + "'");
      if (!expect(TokKind::LParen, "'('"))
        return false;
      while (!peek().is(TokKind::RParen)) {
        if (!I.Operands.empty() && !expect(TokKind::Comma, "','"))
          return false;
        Value V;
        if (!parseValue(V))
          return false;
        I.Operands.push_back(V);
      }
      next(); // )
      break;
    }
    case Opcode::AtomicBegin:
    case Opcode::AtomicEnd:
      break;
    case Opcode::Br:
      if (!parseLabelRef(I.TargetA))
        return false;
      break;
    case Opcode::CondBr:
      if (!parseOperands(I, 1) || !expect(TokKind::Comma, "','") ||
          !parseLabelRef(I.TargetA) || !expect(TokKind::Comma, "','") ||
          !parseLabelRef(I.TargetB))
        return false;
      break;
    case Opcode::Ret:
      // "ret" may have a value; detect by lookahead.
      if (peek().is(TokKind::Percent) || peek().is(TokKind::Int) ||
          peek().isIdent("null") || peek().isIdent("true") ||
          peek().isIdent("false")) {
        if (!parseOperands(I, 1))
          return false;
      }
      break;
    default:
      return fail("unhandled opcode");
    }
    BB.Instrs.push_back(std::move(I));
    return true;
  }

  std::vector<Token> Toks;
  std::size_t Pos = 0;
  Module &M;
  std::string &Error;
};

} // namespace

bool tmir::parseModule(const std::string &Text, Module &M,
                       std::string &Error) {
  std::vector<Token> Toks;
  Toks.reserve(Text.size() / 4);
  Lexer Lex(Text, Error);
  if (!Lex.run(Toks))
    return false;
  Parser P(std::move(Toks), M, Error);
  return P.run();
}

Module tmir::parseModuleOrDie(const std::string &Text) {
  Module M;
  std::string Error;
  if (!parseModule(Text, M, Error)) {
    std::fprintf(stderr, "TMIR parse error: %s\n", Error.c_str());
    std::abort();
  }
  return M;
}
