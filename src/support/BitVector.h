//===- support/BitVector.h - Fixed-size bit vector --------------*- C++ -*-===//
//
// Part of the otm project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bit vector whose size is fixed at construction, for dataflow sets over
/// densely numbered items (registers, locals, barrier facts). Vectors of up
/// to 128 bits keep their words inline, so the small per-block sets of the
/// barrier passes never touch the heap; the default copy and move
/// operations are correct for both storage modes.
///
//===----------------------------------------------------------------------===//

#ifndef OTM_SUPPORT_BITVECTOR_H
#define OTM_SUPPORT_BITVECTOR_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace otm {

class BitVector {
public:
  BitVector() = default;
  explicit BitVector(std::size_t Bits)
      : NumWords(static_cast<uint32_t>((Bits + 63) / 64)) {
    if (NumWords > InlineWords)
      Heap.assign(NumWords, 0);
  }

  void set(std::size_t I) { words()[I / 64] |= uint64_t(1) << (I % 64); }
  void reset(std::size_t I) { words()[I / 64] &= ~(uint64_t(1) << (I % 64)); }
  bool test(std::size_t I) const { return (words()[I / 64] >> (I % 64)) & 1; }

  /// Clears every bit.
  void resetAll() {
    uint64_t *W = words();
    for (uint32_t I = 0; I < NumWords; ++I)
      W[I] = 0;
  }

  void unionWith(const BitVector &O) {
    uint64_t *W = words();
    const uint64_t *OW = O.words();
    for (uint32_t I = 0; I < NumWords; ++I)
      W[I] |= OW[I];
  }

  void intersectWith(const BitVector &O) {
    uint64_t *W = words();
    const uint64_t *OW = O.words();
    for (uint32_t I = 0; I < NumWords; ++I)
      W[I] &= OW[I];
  }

  /// Clears every bit set in \p Mask.
  void subtract(const BitVector &Mask) {
    uint64_t *W = words();
    const uint64_t *MW = Mask.words();
    for (uint32_t I = 0; I < NumWords; ++I)
      W[I] &= ~MW[I];
  }

  bool operator==(const BitVector &O) const {
    if (NumWords != O.NumWords)
      return false;
    const uint64_t *W = words();
    const uint64_t *OW = O.words();
    for (uint32_t I = 0; I < NumWords; ++I)
      if (W[I] != OW[I])
        return false;
    return true;
  }
  bool operator!=(const BitVector &O) const { return !(*this == O); }

private:
  static constexpr uint32_t InlineWords = 2;

  uint64_t *words() { return NumWords > InlineWords ? Heap.data() : Inline; }
  const uint64_t *words() const {
    return NumWords > InlineWords ? Heap.data() : Inline;
  }

  uint32_t NumWords = 0;
  uint64_t Inline[InlineWords] = {0, 0};
  std::vector<uint64_t> Heap; ///< used only above InlineWords words
};

} // namespace otm

#endif // OTM_SUPPORT_BITVECTOR_H
