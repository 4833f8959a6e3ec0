//===- passes/DataflowUtil.cpp - Barrier dataflow helpers -----------------===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "passes/DataflowUtil.h"

#include <algorithm>

using namespace otm;
using namespace otm::passes;

void FactTable::build(int NumRegs, std::vector<uint64_t> &Found) {
  std::sort(Found.begin(), Found.end());
  Found.erase(std::unique(Found.begin(), Found.end()), Found.end());
  Keys = std::move(Found);
  if (Keys.empty())
    return;

  // Open addressing at load factor <= 1/2.
  std::size_t Capacity = 8;
  Shift = 61;
  while (Capacity < 2 * Keys.size()) {
    Capacity *= 2;
    --Shift;
  }
  Slots.assign(Capacity, 0);
  SlotBits.assign(Capacity, -1);
  for (std::size_t Bit = 0; Bit < Keys.size(); ++Bit) {
    std::size_t S = slotOf(Keys[Bit]);
    while (Slots[S] != 0)
      S = (S + 1) & (Capacity - 1);
    Slots[S] = Keys[Bit];
    SlotBits[S] = static_cast<int>(Bit);
  }

  // Per-register kill masks: the registers a fact mentions are its object
  // field and, for an undo of an element at a register index, that index.
  MaskOf.assign(static_cast<std::size_t>(NumRegs), -1);
  auto Mention = [&](uint64_t Reg, std::size_t Bit) {
    if (Reg >= MaskOf.size())
      return;
    if (MaskOf[Reg] < 0) {
      MaskOf[Reg] = static_cast<int>(Masks.size());
      Masks.push_back(BitVector(Keys.size()));
    }
    Masks[MaskOf[Reg]].set(Bit);
  };
  for (std::size_t Bit = 0; Bit < Keys.size(); ++Bit) {
    FactKind Kind = static_cast<FactKind>(Keys[Bit] >> 60);
    uint64_t A = (Keys[Bit] >> 40) & 0xfffff;
    uint64_t B = (Keys[Bit] >> 20) & 0xfffff;
    if (Kind == FactKind::FreshLocal)
      continue; // names a local slot, not a register
    Mention(A, Bit);
    if (Kind == FactKind::UndoElemReg)
      Mention(B, Bit);
  }
}
