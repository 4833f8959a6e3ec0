//===- tmir/IR.h - Transactional IR core classes ----------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Core in-memory representation of TMIR, the transactional IR this
/// project's compiler optimizes. The design follows the paper's key move:
/// an `atomic` block is *decomposed* in the IR into explicit, first-class
/// operations — AtomicBegin/AtomicEnd delimiting the region and
/// OpenForRead / OpenForUpdate / LogUndoField / LogUndoElem barriers next
/// to the accesses — so that ordinary dataflow optimizations can remove,
/// strengthen and hoist them (see src/passes).
///
/// The IR is register-based but not SSA: virtual registers are assigned by
/// exactly one static instruction, while mutable storage lives in named
/// local slots accessed by LoadLocal/StoreLocal (the "alloca" style).
/// Branch-heavy value flow goes through locals; the LocalCSE pass recovers
/// most of the redundancy this leaves.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_TMIR_IR_H
#define OTM_TMIR_IR_H

#include "tmir/Type.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace otm {
namespace tmir {

//===----------------------------------------------------------------------===
// Opcodes
//===----------------------------------------------------------------------===

enum class Opcode : uint8_t {
  // Value operations
  Mov,
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  // Local slots
  LoadLocal,
  StoreLocal,
  // Heap
  NewObj,
  GetField,
  SetField,
  NewArr,
  ArrLen,
  ArrGet,
  ArrSet,
  // Calls & I/O
  Call,
  Print,
  // Transactions (region markers + decomposed barriers)
  AtomicBegin,
  AtomicEnd,
  OpenForRead,
  OpenForUpdate,
  LogUndoField,
  LogUndoElem,
  // Terminators
  Br,
  CondBr,
  Ret,
};

const char *opcodeName(Opcode Op);
bool isTerminator(Opcode Op);
bool isBarrier(Opcode Op); ///< OpenForRead/OpenForUpdate/LogUndo*
bool isBinaryArith(Opcode Op);
bool isCompare(Opcode Op);

//===----------------------------------------------------------------------===
// Operands
//===----------------------------------------------------------------------===

/// An instruction operand: a virtual register, an i64/i1 immediate, or the
/// null reference constant.
class Value {
public:
  enum class Kind : uint8_t { None, Reg, Imm, Null };

  Value() : K(Kind::None), Bits(0) {}
  static Value reg(int RegId) { return Value(Kind::Reg, RegId); }
  static Value imm(int64_t V) { return Value(Kind::Imm, V); }
  static Value null() { return Value(Kind::Null, 0); }

  Kind kind() const { return K; }
  bool isReg() const { return K == Kind::Reg; }
  bool isImm() const { return K == Kind::Imm; }
  bool isNull() const { return K == Kind::Null; }
  bool isNone() const { return K == Kind::None; }

  int regId() const {
    assert(isReg() && "not a register operand");
    return static_cast<int>(Bits);
  }
  int64_t immValue() const {
    assert(isImm() && "not an immediate operand");
    return Bits;
  }

  bool operator==(const Value &O) const { return K == O.K && Bits == O.Bits; }
  bool operator!=(const Value &O) const { return !(*this == O); }

private:
  Value(Kind K, int64_t Bits) : K(K), Bits(Bits) {}

  Kind K;
  int64_t Bits;
};

//===----------------------------------------------------------------------===
// Instruction
//===----------------------------------------------------------------------===

/// One TMIR instruction. A plain struct: passes freely rewrite instruction
/// lists. Fields not meaningful for an opcode stay at their defaults.
struct Instr {
  Opcode Op = Opcode::Mov;
  int ResultReg = -1;          ///< defined register, or -1
  std::vector<Value> Operands; ///< operand list (see opcode docs)
  int ClassId = -1;            ///< NewObj/GetField/SetField/LogUndoField
  int FieldIdx = -1;           ///< GetField/SetField/LogUndoField
  int LocalIdx = -1;           ///< LoadLocal/StoreLocal
  int CalleeIdx = -1;          ///< Call: function index in the module
  int TargetA = -1;            ///< Br: target; CondBr: true target
  int TargetB = -1;            ///< CondBr: false target

  static Instr make(Opcode Op) {
    Instr I;
    I.Op = Op;
    return I;
  }

  bool defines(int RegId) const {
    return ResultReg >= 0 && ResultReg == RegId;
  }

  bool uses(int RegId) const {
    for (const Value &V : Operands)
      if (V.isReg() && V.regId() == RegId)
        return true;
    return false;
  }
};

//===----------------------------------------------------------------------===
// BasicBlock
//===----------------------------------------------------------------------===

/// A block's successor ids: a fixed two-slot range, so CFG walks allocate
/// nothing.
class SuccRange {
public:
  SuccRange() = default;
  explicit SuccRange(int A) : Ids{A, -1}, Count(1) {}
  SuccRange(int A, int B) : Ids{A, B}, Count(2) {}

  const int *begin() const { return Ids; }
  const int *end() const { return Ids + Count; }
  std::size_t size() const { return Count; }
  bool empty() const { return Count == 0; }
  int operator[](std::size_t I) const {
    assert(I < Count && "successor index out of range");
    return Ids[I];
  }

private:
  int Ids[2] = {-1, -1};
  unsigned Count = 0;
};

class BasicBlock {
public:
  explicit BasicBlock(std::string Name, int Id) : Name(std::move(Name)), Id(Id) {}

  std::string Name;
  int Id; ///< index within the parent function
  std::vector<Instr> Instrs;

  /// The block's terminator; asserts the block is well-formed.
  const Instr &terminator() const {
    assert(!Instrs.empty() && isTerminator(Instrs.back().Op) &&
           "block has no terminator");
    return Instrs.back();
  }

  bool hasTerminator() const {
    return !Instrs.empty() && isTerminator(Instrs.back().Op);
  }

  /// Successor block ids (0, 1 or 2 entries), without allocating.
  SuccRange successors() const {
    if (!hasTerminator())
      return {};
    const Instr &T = terminator();
    switch (T.Op) {
    case Opcode::Br:
      return SuccRange(T.TargetA);
    case Opcode::CondBr:
      return SuccRange(T.TargetA, T.TargetB);
    default:
      return {};
    }
  }
};

//===----------------------------------------------------------------------===
// Declarations
//===----------------------------------------------------------------------===

struct FieldDecl {
  std::string Name;
  Type Ty;
};

struct ClassDecl {
  std::string Name;
  std::vector<FieldDecl> Fields;

  /// Returns the field index or -1.
  int fieldIndex(std::string_view FieldName) const {
    for (std::size_t I = 0; I < Fields.size(); ++I)
      if (Fields[I].Name == FieldName)
        return static_cast<int>(I);
    return -1;
  }
};

struct LocalDecl {
  std::string Name;
  Type Ty;
};

//===----------------------------------------------------------------------===
// Function
//===----------------------------------------------------------------------===

class CfgInfo;

class Function {
public:
  Function(std::string Name, int Id);
  ~Function();

  std::string Name;
  int Id;
  Type ReturnTy = Type::makeVoid();
  /// True for transactional clones (name$tx): the whole body executes
  /// inside the caller's transaction, without explicit region markers.
  bool IsAllAtomic = false;
  unsigned NumParams = 0;   ///< the first NumParams locals are parameters
  std::vector<LocalDecl> Locals;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;

  /// Register metadata. RegNames/RegTypes are parallel; RegTypes is filled
  /// by the type checker (TypeKind::Void until then).
  std::vector<std::string> RegNames;
  std::vector<Type> RegTypes;

  int numRegs() const { return static_cast<int>(RegNames.size()); }

  /// Creates a new register; Name may be empty (auto-named by index).
  int addReg(std::string Name, Type Ty = Type::makeVoid()) {
    RegNames.push_back(std::move(Name));
    RegTypes.push_back(Ty);
    return numRegs() - 1;
  }

  BasicBlock *addBlock(std::string BlockName) {
    Blocks.push_back(std::make_unique<BasicBlock>(
        std::move(BlockName), static_cast<int>(Blocks.size())));
    return Blocks.back().get();
  }

  BasicBlock *entry() {
    assert(!Blocks.empty() && "function has no blocks");
    return Blocks.front().get();
  }

  int localIndex(std::string_view LocalName) const {
    for (std::size_t I = 0; I < Locals.size(); ++I)
      if (Locals[I].Name == LocalName)
        return static_cast<int>(I);
    return -1;
  }

  /// Predecessor lists, computed afresh on every call.
  std::vector<std::vector<int>> computePredecessors() const;

  /// The function's CFG analyses (predecessors, block order, dominators,
  /// loops, atomic regions), built on first use and shared by every pass
  /// until invalidateCfg(). A pass that adds, removes or reorders blocks,
  /// changes a terminator or moves a region marker to another block must
  /// call invalidateCfg() before the next query. Not thread-safe: the
  /// first query builds the cache.
  const CfgInfo &cfg() const;
  void invalidateCfg();

private:
  mutable std::unique_ptr<CfgInfo> Cfg;
};

//===----------------------------------------------------------------------===
// Module
//===----------------------------------------------------------------------===

class Module {
public:
  std::vector<ClassDecl> Classes;
  std::vector<std::unique_ptr<Function>> Functions;

  int classIndex(std::string_view Name) const {
    auto It = ClassIndex.find(Name);
    return It == ClassIndex.end() ? -1 : It->second;
  }

  int functionIndex(std::string_view Name) const {
    auto It = FunctionIndex.find(Name);
    return It == FunctionIndex.end() ? -1 : It->second;
  }

  ClassDecl *classById(int Id) {
    assert(Id >= 0 && Id < static_cast<int>(Classes.size()));
    return &Classes[Id];
  }

  Function *functionByName(std::string_view Name) {
    int Idx = functionIndex(Name);
    return Idx < 0 ? nullptr : Functions[Idx].get();
  }

  int addClass(ClassDecl Decl) {
    int Id = static_cast<int>(Classes.size());
    ClassIndex[Decl.Name] = Id;
    Classes.push_back(std::move(Decl));
    return Id;
  }

  Function *addFunction(const std::string &Name) {
    int Id = static_cast<int>(Functions.size());
    FunctionIndex[Name] = Id;
    Functions.push_back(std::make_unique<Function>(Name, Id));
    return Functions.back().get();
  }

private:
  /// Lets the name maps be searched with a std::string_view.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>()(S);
    }
  };
  using NameMap = std::unordered_map<std::string, int, NameHash,
                                     std::equal_to<>>;

  NameMap ClassIndex;
  NameMap FunctionIndex;
};

//===----------------------------------------------------------------------===
// Printing (round-trips through the parser)
//===----------------------------------------------------------------------===

std::string printModule(const Module &M);
std::string printFunction(const Module &M, const Function &F);
std::string printInstr(const Module &M, const Function &F, const Instr &I);

} // namespace tmir
} // namespace otm

#endif // OTM_TMIR_IR_H
