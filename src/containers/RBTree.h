//===- containers/RBTree.h - Transactional red-black tree ------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A red-black tree (int64 key → value map) templated over a
/// synchronization policy (CLRS layout: parent pointers plus a single nil
/// sentinel). The tree is the workload where the read-to-update upgrade
/// optimization matters (experiment E6): the descent phase only reads
/// nodes, but an insert's rebalancing then re-opens part of the same path
/// for update — naive placement pays both barriers, upgraded placement
/// acquires once.
///
/// Barrier discipline follows the optimized placement: one
/// Policy::openRead per node visit, one Policy::openWrite before a node's
/// fields are stored, with per-field undo logging inside Policy::store.
/// Under the naive policy the same code degenerates to one open per field
/// access, which is exactly the comparison the experiments make.
///
/// Under a boosted policy (DESIGN.md §3.10) point operations conflict on
/// the abstract key instead of on the rebalancing path — rotations near
/// the root are the tree's structural false-conflict hot spot. The CLRS
/// insert/erase bodies run unchanged as the sequential path; the semantic
/// inverse (erase the inserted key / re-insert the displaced pair) is
/// registered as the abort action.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_CONTAINERS_RBTREE_H
#define OTM_CONTAINERS_RBTREE_H

#include "containers/Policy.h"

#include <cstddef>
#include <cstdint>

namespace otm {
namespace containers {

template <typename Policy> class RBTree {
  using Ctx = typename Policy::Ctx;
  template <typename T> using Cell = typename Policy::template Cell<T>;

  static constexpr int64_t Black = 0;
  static constexpr int64_t Red = 1;

  struct Node : Policy::ObjBase {
    Node() = default;
    /// A fresh node starts as a black leaf on the sentinel, never with null
    /// links. The naive policy undo-logs a fresh node's initializing stores,
    /// so an abort puts these constructor values back while the node may
    /// still be reachable by a doomed reader through a since-undone link;
    /// that reader must find a well-formed leaf, not a null child.
    explicit Node(Node *Nil) : Left(Nil), Right(Nil), Parent(Nil) {}

    Cell<int64_t> Key;
    Cell<int64_t> Value;
    Cell<int64_t> Color;
    Cell<Node *> Left;
    Cell<Node *> Right;
    Cell<Node *> Parent;
  };

public:
  RBTree() {
    // The nil sentinel: black, self-linked. Its Parent field is scribbled
    // on during fixups, as in CLRS.
    Nil.Color.store(Black);
    Nil.Left.store(&Nil);
    Nil.Right.store(&Nil);
    Nil.Parent.store(&Nil);
    Root.store(&Nil);
  }

  RBTree(const RBTree &) = delete;
  RBTree &operator=(const RBTree &) = delete;

  ~RBTree() { destroySubtree(Root.load()); }

  /// Inserts \p Key (or updates its value); returns true if newly added.
  bool insert(int64_t Key, int64_t Value) {
    bool Inserted = false;
    Policy::run([&](Ctx &C) {
      if constexpr (kBoostedPolicy<Policy>) {
        C.boostAcquireKey(BoostId, static_cast<uint64_t>(Key));
        int64_t Displaced = 0;
        {
          std::lock_guard<std::mutex> Guard(BaseLock);
          Inserted = insertImpl(C, Key, Value, &Displaced);
        }
        if (Inserted)
          C.onAbort([this, Key] { undoInsert(Key); });
        else
          C.onAbort([this, Key, Displaced] { undoWrite(Key, Displaced); });
      } else {
        Inserted = insertImpl(C, Key, Value, nullptr);
      }
    });
    return Inserted;
  }

  /// Removes \p Key; returns true if it was present.
  bool erase(int64_t Key) {
    bool Erased = false;
    Policy::run([&](Ctx &C) {
      if constexpr (kBoostedPolicy<Policy>) {
        C.boostAcquireKey(BoostId, static_cast<uint64_t>(Key));
        int64_t Displaced = 0;
        {
          std::lock_guard<std::mutex> Guard(BaseLock);
          Erased = eraseImpl(C, Key, &Displaced);
        }
        if (Erased)
          C.onAbort([this, Key, Displaced] { undoWrite(Key, Displaced); });
      } else {
        Erased = eraseImpl(C, Key, nullptr);
      }
    });
    return Erased;
  }

  /// Looks up \p Key; returns true and fills \p Value if present.
  bool lookup(int64_t Key, int64_t &Value) {
    bool Found = false;
    Policy::run([&](Ctx &C) {
      if constexpr (kBoostedPolicy<Policy>) {
        C.boostAcquireKey(BoostId, static_cast<uint64_t>(Key));
        std::lock_guard<std::mutex> Guard(BaseLock);
        Found = lookupCore(C, Key, Value);
      } else {
        Found = lookupCore(C, Key, Value);
      }
    });
    return Found;
  }

  bool contains(int64_t Key) {
    int64_t Ignored;
    return lookup(Key, Ignored);
  }

  /// Transactional in-order sum of values (long read-only transaction). A
  /// whole-container operation has no per-key conflict footprint, so the
  /// boosted path falls back to the structural gate.
  int64_t sumValues() {
    int64_t Sum = 0;
    Policy::run([&](Ctx &C) {
      if constexpr (kBoostedPolicy<Policy>)
        C.boostAcquireStructural(BoostId);
      Sum = 0;
      sumSubtree(C, rootNode(C), Sum, 0);
    });
    return Sum;
  }

  //===--------------------------------------------------------------------===
  // Quiescent verification helpers (no synchronization)
  //===--------------------------------------------------------------------===

  std::size_t sizeSlow() const { return countSlow(Root.load()); }

  /// Checks the BST ordering and both red-black invariants.
  bool checkInvariantsSlow() const {
    if (Root.load()->Color.load() != Black)
      return false;
    int BlackHeight = -1;
    return checkSlow(Root.load(), INT64_MIN, INT64_MAX, 0, BlackHeight);
  }

private:
  //===--------------------------------------------------------------------===
  // Transactional accessors (optimized barrier placement)
  //===--------------------------------------------------------------------===

  Node *rootNode(Ctx &C) {
    Policy::openRead(C, &RootHolder);
    return Policy::load(C, &RootHolder, Root);
  }

  void setRoot(Ctx &C, Node *N) {
    Policy::openWrite(C, &RootHolder);
    Policy::store(C, &RootHolder, Root, N);
  }

  /// Walks from the root to the node with \p Key, or Nil. One open per
  /// visited node.
  Node *descend(Ctx &C, int64_t Key) {
    Node *Cur = rootNode(C);
    unsigned Steps = 0;
    while (Cur != &Nil) {
      Policy::openRead(C, Cur);
      int64_t CK = Policy::load(C, Cur, Cur->Key);
      if (CK == Key)
        return Cur;
      Cur = (Key < CK) ? Policy::load(C, Cur, Cur->Left)
                       : Policy::load(C, Cur, Cur->Right);
      if ((++Steps & 63) == 0)
        Policy::checkpoint(C);
    }
    return &Nil;
  }

  void rotateLeft(Ctx &C, Node *X) {
    Policy::openWrite(C, X);
    Node *Y = Policy::load(C, X, X->Right);
    Policy::openWrite(C, Y);
    Node *Beta = Policy::load(C, Y, Y->Left);
    Policy::store(C, X, X->Right, Beta);
    if (Beta != &Nil) {
      Policy::openWrite(C, Beta);
      Policy::store(C, Beta, Beta->Parent, X);
    }
    Node *P = Policy::load(C, X, X->Parent);
    Policy::store(C, Y, Y->Parent, P);
    if (P == &Nil) {
      setRoot(C, Y);
    } else {
      Policy::openWrite(C, P);
      if (Policy::load(C, P, P->Left) == X)
        Policy::store(C, P, P->Left, Y);
      else
        Policy::store(C, P, P->Right, Y);
    }
    Policy::store(C, Y, Y->Left, X);
    Policy::store(C, X, X->Parent, Y);
  }

  void rotateRight(Ctx &C, Node *X) {
    Policy::openWrite(C, X);
    Node *Y = Policy::load(C, X, X->Left);
    Policy::openWrite(C, Y);
    Node *Beta = Policy::load(C, Y, Y->Right);
    Policy::store(C, X, X->Left, Beta);
    if (Beta != &Nil) {
      Policy::openWrite(C, Beta);
      Policy::store(C, Beta, Beta->Parent, X);
    }
    Node *P = Policy::load(C, X, X->Parent);
    Policy::store(C, Y, Y->Parent, P);
    if (P == &Nil) {
      setRoot(C, Y);
    } else {
      Policy::openWrite(C, P);
      if (Policy::load(C, P, P->Right) == X)
        Policy::store(C, P, P->Right, Y);
      else
        Policy::store(C, P, P->Left, Y);
    }
    Policy::store(C, Y, Y->Right, X);
    Policy::store(C, X, X->Parent, Y);
  }

  /// Structural body shared by every policy; \p DisplacedOut (boosted
  /// callers only — null elsewhere so no extra barrier perturbs the
  /// non-boosted deterministic counts) receives the overwritten value.
  bool insertImpl(Ctx &C, int64_t Key, int64_t Value, int64_t *DisplacedOut) {
    // Descent phase (reads only).
    Node *Parent = &Nil;
    Node *Cur = rootNode(C);
    unsigned Steps = 0;
    while (Cur != &Nil) {
      Policy::openRead(C, Cur);
      int64_t CK = Policy::load(C, Cur, Cur->Key);
      if (CK == Key) {
        Policy::openWrite(C, Cur);
        if (DisplacedOut)
          *DisplacedOut = Policy::load(C, Cur, Cur->Value);
        Policy::store(C, Cur, Cur->Value, Value);
        return false;
      }
      Parent = Cur;
      Cur = (Key < CK) ? Policy::load(C, Cur, Cur->Left)
                       : Policy::load(C, Cur, Cur->Right);
      if ((++Steps & 63) == 0)
        Policy::checkpoint(C);
    }

    Node *Fresh = Policy::template create<Node>(C, &Nil);
    Policy::initStore(C, Fresh, Fresh->Key, Key);
    Policy::initStore(C, Fresh, Fresh->Value, Value);
    Policy::initStore(C, Fresh, Fresh->Color, Red);
    Policy::initStore(C, Fresh, Fresh->Left, &Nil);
    Policy::initStore(C, Fresh, Fresh->Right, &Nil);
    Policy::initStore(C, Fresh, Fresh->Parent, Parent);

    if (Parent == &Nil) {
      setRoot(C, Fresh);
    } else {
      Policy::openWrite(C, Parent);
      if (Key < Policy::load(C, Parent, Parent->Key))
        Policy::store(C, Parent, Parent->Left, Fresh);
      else
        Policy::store(C, Parent, Parent->Right, Fresh);
    }
    insertFixup(C, Fresh);
    return true;
  }

  void insertFixup(Ctx &C, Node *Z) {
    for (;;) {
      Policy::openRead(C, Z);
      Node *P = Policy::load(C, Z, Z->Parent);
      if (P == &Nil)
        break;
      Policy::openRead(C, P);
      if (Policy::load(C, P, P->Color) != Red)
        break;
      Node *G = Policy::load(C, P, P->Parent); // grandparent exists: P red
      Policy::openRead(C, G);
      if (Policy::load(C, G, G->Left) == P) {
        Node *Uncle = Policy::load(C, G, G->Right);
        Policy::openRead(C, Uncle);
        if (Uncle != &Nil && Policy::load(C, Uncle, Uncle->Color) == Red) {
          Policy::openWrite(C, P);
          Policy::store(C, P, P->Color, Black);
          Policy::openWrite(C, Uncle);
          Policy::store(C, Uncle, Uncle->Color, Black);
          Policy::openWrite(C, G);
          Policy::store(C, G, G->Color, Red);
          Z = G;
          continue;
        }
        if (Policy::load(C, P, P->Right) == Z) {
          Z = P;
          rotateLeft(C, Z);
          P = Policy::load(C, Z, Z->Parent);
        }
        Policy::openWrite(C, P);
        Policy::store(C, P, P->Color, Black);
        G = Policy::load(C, P, P->Parent);
        Policy::openWrite(C, G);
        Policy::store(C, G, G->Color, Red);
        rotateRight(C, G);
      } else {
        Node *Uncle = Policy::load(C, G, G->Left);
        Policy::openRead(C, Uncle);
        if (Uncle != &Nil && Policy::load(C, Uncle, Uncle->Color) == Red) {
          Policy::openWrite(C, P);
          Policy::store(C, P, P->Color, Black);
          Policy::openWrite(C, Uncle);
          Policy::store(C, Uncle, Uncle->Color, Black);
          Policy::openWrite(C, G);
          Policy::store(C, G, G->Color, Red);
          Z = G;
          continue;
        }
        if (Policy::load(C, P, P->Left) == Z) {
          Z = P;
          rotateRight(C, Z);
          P = Policy::load(C, Z, Z->Parent);
        }
        Policy::openWrite(C, P);
        Policy::store(C, P, P->Color, Black);
        G = Policy::load(C, P, P->Parent);
        Policy::openWrite(C, G);
        Policy::store(C, G, G->Color, Red);
        rotateLeft(C, G);
      }
    }
    Node *R = rootNode(C);
    Policy::openWrite(C, R);
    Policy::store(C, R, R->Color, Black);
  }

  /// Replaces subtree rooted at \p U with the one rooted at \p V.
  void transplant(Ctx &C, Node *U, Node *V) {
    Policy::openRead(C, U);
    Node *P = Policy::load(C, U, U->Parent);
    if (P == &Nil) {
      setRoot(C, V);
    } else {
      Policy::openWrite(C, P);
      if (Policy::load(C, P, P->Left) == U)
        Policy::store(C, P, P->Left, V);
      else
        Policy::store(C, P, P->Right, V);
    }
    Policy::openWrite(C, V);
    Policy::store(C, V, V->Parent, P);
  }

  Node *minimum(Ctx &C, Node *N) {
    unsigned Steps = 0;
    for (;;) {
      Policy::openRead(C, N);
      Node *L = Policy::load(C, N, N->Left);
      if (L == &Nil)
        return N;
      N = L;
      if ((++Steps & 63) == 0)
        Policy::checkpoint(C);
    }
  }

  bool eraseImpl(Ctx &C, int64_t Key, int64_t *DisplacedOut) {
    Node *Z = descend(C, Key);
    if (Z == &Nil)
      return false;

    Policy::openRead(C, Z);
    if (DisplacedOut)
      *DisplacedOut = Policy::load(C, Z, Z->Value);
    Node *Y = Z;
    int64_t YColor = Policy::load(C, Z, Z->Color);
    Node *X = &Nil;

    Node *ZL = Policy::load(C, Z, Z->Left);
    Node *ZR = Policy::load(C, Z, Z->Right);
    if (ZL == &Nil) {
      X = ZR;
      transplant(C, Z, ZR);
    } else if (ZR == &Nil) {
      X = ZL;
      transplant(C, Z, ZL);
    } else {
      Y = minimum(C, ZR);
      Policy::openRead(C, Y);
      YColor = Policy::load(C, Y, Y->Color);
      X = Policy::load(C, Y, Y->Right);
      if (Policy::load(C, Y, Y->Parent) == Z) {
        Policy::openWrite(C, X);
        Policy::store(C, X, X->Parent, Y);
      } else {
        transplant(C, Y, X);
        Policy::openWrite(C, Y);
        Node *NewRight = Policy::load(C, Z, Z->Right);
        Policy::store(C, Y, Y->Right, NewRight);
        Policy::openWrite(C, NewRight);
        Policy::store(C, NewRight, NewRight->Parent, Y);
      }
      transplant(C, Z, Y);
      Policy::openWrite(C, Y);
      Node *NewLeft = Policy::load(C, Z, Z->Left);
      Policy::store(C, Y, Y->Left, NewLeft);
      Policy::openWrite(C, NewLeft);
      Policy::store(C, NewLeft, NewLeft->Parent, Y);
      Policy::store(C, Y, Y->Color, Policy::load(C, Z, Z->Color));
    }
    if (YColor == Black)
      eraseFixup(C, X);
    Policy::destroy(C, Z);
    return true;
  }

  void eraseFixup(Ctx &C, Node *X) {
    unsigned Steps = 0;
    for (;;) {
      Policy::openRead(C, X);
      if (X == rootNode(C) || Policy::load(C, X, X->Color) == Red)
        break;
      if ((++Steps & 31) == 0)
        Policy::checkpoint(C);
      Node *P = Policy::load(C, X, X->Parent);
      Policy::openRead(C, P);
      if (Policy::load(C, P, P->Left) == X) {
        Node *W = Policy::load(C, P, P->Right);
        Policy::openRead(C, W);
        if (Policy::load(C, W, W->Color) == Red) {
          Policy::openWrite(C, W);
          Policy::store(C, W, W->Color, Black);
          Policy::openWrite(C, P);
          Policy::store(C, P, P->Color, Red);
          rotateLeft(C, P);
          W = Policy::load(C, P, P->Right);
          Policy::openRead(C, W);
        }
        Node *WL = Policy::load(C, W, W->Left);
        Node *WR = Policy::load(C, W, W->Right);
        Policy::openRead(C, WL);
        Policy::openRead(C, WR);
        bool LBlack = Policy::load(C, WL, WL->Color) == Black;
        bool RBlack = Policy::load(C, WR, WR->Color) == Black;
        if (LBlack && RBlack) {
          Policy::openWrite(C, W);
          Policy::store(C, W, W->Color, Red);
          X = P;
          continue;
        }
        if (RBlack) {
          Policy::openWrite(C, WL);
          Policy::store(C, WL, WL->Color, Black);
          Policy::openWrite(C, W);
          Policy::store(C, W, W->Color, Red);
          rotateRight(C, W);
          W = Policy::load(C, P, P->Right);
          Policy::openRead(C, W);
        }
        Policy::openWrite(C, W);
        Policy::store(C, W, W->Color, Policy::load(C, P, P->Color));
        Policy::openWrite(C, P);
        Policy::store(C, P, P->Color, Black);
        Node *WR2 = Policy::load(C, W, W->Right);
        Policy::openWrite(C, WR2);
        Policy::store(C, WR2, WR2->Color, Black);
        rotateLeft(C, P);
        break;
      } else {
        Node *W = Policy::load(C, P, P->Left);
        Policy::openRead(C, W);
        if (Policy::load(C, W, W->Color) == Red) {
          Policy::openWrite(C, W);
          Policy::store(C, W, W->Color, Black);
          Policy::openWrite(C, P);
          Policy::store(C, P, P->Color, Red);
          rotateRight(C, P);
          W = Policy::load(C, P, P->Left);
          Policy::openRead(C, W);
        }
        Node *WL = Policy::load(C, W, W->Left);
        Node *WR = Policy::load(C, W, W->Right);
        Policy::openRead(C, WL);
        Policy::openRead(C, WR);
        bool LBlack = Policy::load(C, WL, WL->Color) == Black;
        bool RBlack = Policy::load(C, WR, WR->Color) == Black;
        if (LBlack && RBlack) {
          Policy::openWrite(C, W);
          Policy::store(C, W, W->Color, Red);
          X = P;
          continue;
        }
        if (LBlack) {
          Policy::openWrite(C, WR);
          Policy::store(C, WR, WR->Color, Black);
          Policy::openWrite(C, W);
          Policy::store(C, W, W->Color, Red);
          rotateLeft(C, W);
          W = Policy::load(C, P, P->Left);
          Policy::openRead(C, W);
        }
        Policy::openWrite(C, W);
        Policy::store(C, W, W->Color, Policy::load(C, P, P->Color));
        Policy::openWrite(C, P);
        Policy::store(C, P, P->Color, Black);
        Node *WL2 = Policy::load(C, W, W->Left);
        Policy::openWrite(C, WL2);
        Policy::store(C, WL2, WL2->Color, Black);
        rotateRight(C, P);
        break;
      }
    }
    Policy::openWrite(C, X);
    Policy::store(C, X, X->Color, Black);
  }

  bool lookupCore(Ctx &C, int64_t Key, int64_t &Value) {
    Node *N = descend(C, Key);
    if (N == &Nil)
      return false;
    Value = Policy::load(C, N, N->Value);
    return true;
  }

  // Semantic inverses (abort handlers; abstract key lock still held). They
  // operate by key, never through a retained node pointer — erase-then-
  // rebalance may have moved or unlinked the node the forward op touched.
  void undoInsert(int64_t Key) {
    Ctx &C = stm::TxManager::current();
    std::lock_guard<std::mutex> Guard(BaseLock);
    eraseImpl(C, Key, nullptr);
  }

  /// Restores \p Key to \p OldValue — the inverse of both an update (store
  /// back the displaced value) and an erase (re-insert the displaced pair;
  /// the tree shape may differ from the pre-erase shape, but red-black
  /// invariants and the key→value map are restored, which is the semantic
  /// contract).
  void undoWrite(int64_t Key, int64_t OldValue) {
    Ctx &C = stm::TxManager::current();
    std::lock_guard<std::mutex> Guard(BaseLock);
    insertImpl(C, Key, OldValue, nullptr);
  }

  void sumSubtree(Ctx &C, Node *N, int64_t &Sum, unsigned Depth) {
    if (N == &Nil || Depth > 128)
      return;
    Policy::openRead(C, N);
    Sum += Policy::load(C, N, N->Value);
    sumSubtree(C, Policy::load(C, N, N->Left), Sum, Depth + 1);
    sumSubtree(C, Policy::load(C, N, N->Right), Sum, Depth + 1);
  }

  //===--------------------------------------------------------------------===
  // Quiescent helpers
  //===--------------------------------------------------------------------===

  void destroySubtree(Node *N) {
    if (N == &Nil)
      return;
    destroySubtree(N->Left.load());
    destroySubtree(N->Right.load());
    delete N;
  }

  std::size_t countSlow(Node *N) const {
    if (N == &Nil)
      return 0;
    return 1 + countSlow(N->Left.load()) + countSlow(N->Right.load());
  }

  bool checkSlow(Node *N, int64_t Lo, int64_t Hi, int Blacks,
                 int &ExpectedBlacks) const {
    if (N == &Nil) {
      if (ExpectedBlacks < 0)
        ExpectedBlacks = Blacks;
      return Blacks == ExpectedBlacks;
    }
    int64_t K = N->Key.load();
    if (K <= Lo || K >= Hi)
      return false;
    int64_t Color = N->Color.load();
    if (Color == Red) {
      if (N->Left.load()->Color.load() == Red ||
          N->Right.load()->Color.load() == Red)
        return false;
    } else {
      ++Blacks;
    }
    return checkSlow(N->Left.load(), Lo, K, Blacks, ExpectedBlacks) &&
           checkSlow(N->Right.load(), K, Hi, Blacks, ExpectedBlacks);
  }

  /// Holder object giving the root pointer its own STM word.
  struct RootHolderType : Policy::ObjBase {
  } RootHolder;
  Cell<Node *> Root;
  Node Nil;

  /// Boosting state; inert under non-boosted policies.
  const uint64_t BoostId = txn::AbstractLockTable::nextContainerId();
  std::mutex BaseLock;
};

} // namespace containers
} // namespace otm

#endif // OTM_CONTAINERS_RBTREE_H
