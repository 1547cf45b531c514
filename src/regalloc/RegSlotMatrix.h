//===- regalloc/RegSlotMatrix.h - Register x slot value facts -*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value facts of the spill-code cleanups on physical code: which of the
/// k registers hold the current value of which spill slot. The Figure 6
/// peephole keeps one per basic block; the dataflow cleanup keeps one per
/// block entry and exit.
///
/// Each register owns a row of slot bits padded to whole 64-bit words, so
/// killing a register and copying one register's slots to another are word
/// operations, and killing a slot clears one bit in each of the k rows. The
/// padding bits are always zero.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_REGALLOC_REGSLOTMATRIX_H
#define RAP_REGALLOC_REGSLOTMATRIX_H

#include "ir/Instr.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace rap {

class RegSlotMatrix {
public:
  RegSlotMatrix() = default;
  /// An empty matrix over registers [0, \p K) and slots [0, \p NumSlots).
  RegSlotMatrix(unsigned K, unsigned NumSlots)
      : K(K), NumSlots(NumSlots), RowWords((NumSlots + 63) / 64),
        Words(static_cast<size_t>(K) * RowWords, 0) {}

  /// No register holds any slot.
  void clear() { std::fill(Words.begin(), Words.end(), 0); }

  /// Every register holds every slot (the top of the dataflow lattice).
  void setAll() {
    if (RowWords == 0)
      return;
    uint64_t Last = NumSlots % 64 ? (uint64_t(1) << (NumSlots % 64)) - 1
                                  : ~uint64_t(0);
    for (unsigned R = 0; R != K; ++R) {
      uint64_t *Row = row(R);
      std::fill(Row, Row + RowWords - 1, ~uint64_t(0));
      Row[RowWords - 1] = Last;
    }
  }

  bool holds(Reg R, int Slot) const {
    return (row(R)[word(Slot)] >> bit(Slot)) & 1;
  }

  /// The lowest register holding \p Slot, or NoReg.
  Reg lowestHolder(int Slot) const {
    for (Reg R = 0; R != K; ++R)
      if (holds(R, Slot))
        return R;
    return NoReg;
  }

  /// Applies \p I's effect on the facts: a load or a store leaves the slot
  /// in that one register, a copy copies, any other definition kills.
  void transfer(const Instr *I) {
    switch (I->Op) {
    case Opcode::LdSpill:
      killReg(I->Dst);
      add(I->Dst, I->Slot);
      return;
    case Opcode::StSpill:
      killSlot(I->Slot);
      add(I->Src[0], I->Slot);
      return;
    case Opcode::Mv:
      copy(I->Dst, I->Src[0]);
      return;
    default:
      if (I->hasDef())
        killReg(I->Dst);
      return;
    }
  }

  /// Intersection (the dataflow meet).
  void meet(const RegSlotMatrix &O) {
    assert(O.Words.size() == Words.size() && "matrices of different shape");
    for (size_t W = 0; W != Words.size(); ++W)
      Words[W] &= O.Words[W];
  }

  bool operator==(const RegSlotMatrix &O) const { return Words == O.Words; }

private:
  /// \p R holds \p Slot's value.
  void add(Reg R, int Slot) { row(R)[word(Slot)] |= uint64_t(1) << bit(Slot); }

  /// \p R was redefined: it holds no slot's value.
  void killReg(Reg R) { std::fill(row(R), row(R) + RowWords, 0); }

  /// \p Slot was overwritten: no register holds its value.
  void killSlot(int Slot) {
    uint64_t Mask = ~(uint64_t(1) << bit(Slot));
    for (size_t W = word(Slot); W < Words.size(); W += RowWords)
      Words[W] &= Mask;
  }

  /// `mv Dst, Src`: Dst now holds exactly the slots Src holds. A self-copy
  /// would leave the row as it is, but none reaches the cleanups:
  /// rewriteToPhysical deletes `mv r, r`, and no cleanup rewrite makes one
  /// (a load becomes a copy only from a register other than its target).
  void copy(Reg Dst, Reg Src) {
    std::copy(row(Src), row(Src) + RowWords, row(Dst));
  }

  uint64_t *row(Reg R) {
    assert(R < K && "register past k");
    return Words.data() + static_cast<size_t>(R) * RowWords;
  }
  const uint64_t *row(Reg R) const {
    assert(R < K && "register past k");
    return Words.data() + static_cast<size_t>(R) * RowWords;
  }
  size_t word(int Slot) const {
    assert(Slot >= 0 && static_cast<unsigned>(Slot) < NumSlots &&
           "slot out of range");
    return static_cast<unsigned>(Slot) / 64;
  }
  static unsigned bit(int Slot) { return static_cast<unsigned>(Slot) % 64; }

  unsigned K = 0;
  unsigned NumSlots = 0;
  unsigned RowWords = 0;
  std::vector<uint64_t> Words; ///< row R is [R * RowWords, (R+1) * RowWords)
};

} // namespace rap

#endif // RAP_REGALLOC_REGSLOTMATRIX_H
