//===- interp/Decode.h - Pre-decoded ILOC for threaded dispatch -*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded-op execution format of the direct-threaded interpreter
/// (DESIGN.md §11). Each linearized function is translated once into a flat
/// buffer of fixed-size DecOps whose operand fields decodeFunction writes in
/// final form where it builds each op: registers, constants (interned into a
/// pool) and spill slots as byte offsets, branch targets as byte offsets
/// into the buffer, resolved from one fixup list once every op's position is
/// known. Common idioms are fused into superinstructions:
///
///   * cmp + cbr            (the branch shape every predicate emits)
///   * loadI + cmp + cbr    (bounded-loop exit tests)
///   * loadI + int op       (immediate operands)
///   * ldm + int op + stm   (the spill triple the allocators emit around
///                           memory-resident values)
///   * hot adjacent pairs   (mul+add address math, add+ldx, add+mv, mv+jmp
///                           loop latches, ldx/stx+loadI, loadI+ldm/stx,
///                           loadI+loadI, ldm+add/mul, ldx+ldx, ldx+stx,
///                           stx+stx — chosen from the dynamic digram
///                           profile of the Table 1 corpus)
///   * 3-4 instr chains     (loadI+add+mv+jmp loop latches,
///                           loadI+ldm+mul+add spill address math,
///                           mul+add+ldx indexed loads, add+mv+jmp,
///                           ldg+loadI+add+stg global increments,
///                           ldg+cmp+cbr global tests — the hottest
///                           decoded-op adjacencies; component results
///                           that later components consume stay in host
///                           registers instead of round-tripping through
///                           the frame)
///
/// Fusion never changes observable behavior: fused ops still perform every
/// component's register write, charge every component's cycle and memory
/// counters at the same point the unfused sequence would, and report traps
/// with the component instruction's own linear PC. An instruction sequence
/// is only fused when no label can target its interior.
///
/// Fuel bookkeeping is hoisted out of the per-op path: SuffixCycles gives,
/// for every op, the cycle cost from it through its stretch's terminator,
/// which is an op that writes a branch target, or a call, return or halt
/// (the decoder marks it where it writes the target or translates the
/// call, return or halt). The engine debits that cost in bulk at each
/// control transfer; when the remaining budget cannot cover a stretch, the
/// run is guaranteed to end inside it, and execution falls back to the
/// reference switch engine for an exactly-per-instruction finish.
///
/// Each DecodedFunc owns its buffers; they are built once per Interpreter
/// and never grow during execution.
///
//===----------------------------------------------------------------------===//

#ifndef RAP_INTERP_DECODE_H
#define RAP_INTERP_DECODE_H

#include "ir/IlocProgram.h"
#include "ir/Linearize.h"

#include <cstdint>
#include <vector>

namespace rap::interp {

/// Decoded opcodes, one row each: the enumerator and its stable mnemonic.
/// The X-macro is the one list of decoded ops; the enum, dopName and the
/// threaded engine's jump table all expand it, in one authoritative order.
#define RAP_DOP_LIST(X)                                                        \
  /* one-to-one translations of Opcode */                                      \
  X(LoadImm, "load_imm")                                                       \
  X(Mv, "mv")                                                                  \
  X(Add, "add")                                                                \
  X(Sub, "sub")                                                                \
  X(Mul, "mul")                                                                \
  X(Div, "div")                                                                \
  X(Mod, "mod")                                                                \
  X(Neg, "neg")                                                                \
  X(And, "and")                                                                \
  X(Or, "or")                                                                  \
  X(Not, "not")                                                                \
  X(FAdd, "fadd")                                                              \
  X(FSub, "fsub")                                                              \
  X(FMul, "fmul")                                                              \
  X(FDiv, "fdiv")                                                              \
  X(FNeg, "fneg")                                                              \
  X(CmpEQ, "cmp_eq")                                                           \
  X(CmpNE, "cmp_ne")                                                           \
  X(CmpLT, "cmp_lt")                                                           \
  X(CmpLE, "cmp_le")                                                           \
  X(CmpGT, "cmp_gt")                                                           \
  X(CmpGE, "cmp_ge")                                                           \
  X(I2F, "i2f")                                                                \
  X(F2I, "f2i")                                                                \
  X(LdSpill, "ldm")                                                            \
  X(StSpill, "stm")                                                            \
  X(LdGlob, "ldg")                                                             \
  X(StGlob, "stg")                                                             \
  X(LdIdx, "ldx")                                                              \
  X(StIdx, "stx")                                                              \
  X(Jmp, "jmp")                                                                \
  X(Cbr, "cbr")                                                                \
  X(Call, "call")                                                              \
  X(BadCall, "bad_call") /* arity mismatch: traps when executed */             \
  X(Ret, "ret")                                                                \
  X(Halt, "halt")                                                              \
  X(ImplicitRet, "implicit_ret") /* sentinel after the last op */              \
  /* superinstructions: cmp + cbr */                                           \
  X(CmpEQCbr, "cmp_eq_cbr")                                                    \
  X(CmpNECbr, "cmp_ne_cbr")                                                    \
  X(CmpLTCbr, "cmp_lt_cbr")                                                    \
  X(CmpLECbr, "cmp_le_cbr")                                                    \
  X(CmpGTCbr, "cmp_gt_cbr")                                                    \
  X(CmpGECbr, "cmp_ge_cbr")                                                    \
  /* superinstructions: loadI + int op */                                      \
  X(LoadIAdd, "loadi_add")                                                     \
  X(LoadISub, "loadi_sub")                                                     \
  X(LoadIMul, "loadi_mul")                                                     \
  X(LoadIDiv, "loadi_div")                                                     \
  X(LoadIMod, "loadi_mod")                                                     \
  /* superinstructions: ldm + int op + stm (spill triple) */                   \
  X(LdAddSt, "ld_add_st")                                                      \
  X(LdSubSt, "ld_sub_st")                                                      \
  X(LdMulSt, "ld_mul_st")                                                      \
  /* superinstructions: loadI + cmp + cbr (bounded-loop back edges) */         \
  X(LoadICmpEQCbr, "loadi_cmp_eq_cbr")                                         \
  X(LoadICmpNECbr, "loadi_cmp_ne_cbr")                                         \
  X(LoadICmpLTCbr, "loadi_cmp_lt_cbr")                                         \
  X(LoadICmpLECbr, "loadi_cmp_le_cbr")                                         \
  X(LoadICmpGTCbr, "loadi_cmp_gt_cbr")                                         \
  X(LoadICmpGECbr, "loadi_cmp_ge_cbr")                                         \
  /* superinstructions: hot adjacent pairs of the Table 1 corpus */            \
  X(MulAdd, "mul_add") /* mul feeding one add operand (array address math) */  \
  X(AddLdIdx, "add_ldx") /* add feeding an indexed load's offset */            \
  X(AddMv, "add_mv") /* add, then any register copy */                         \
  X(MvJmp, "mv_jmp") /* loop-latch copy + back edge; ends a stretch */         \
  X(LdIdxLoadI, "ldx_loadi") /* indexed load, then any immediate load */       \
  X(LoadILdSpill, "loadi_ldm") /* immediate load, then a spill reload */       \
  X(LoadIStIdx, "loadi_stx") /* immediate load, then an indexed store */       \
  X(StIdxLoadI, "stx_loadi") /* indexed store, then any immediate load */      \
  X(LoadImm2, "loadi_loadi") /* two adjacent immediate loads */                \
  X(LdSpillAdd, "ldm_add") /* spill reload, then an add */                     \
  X(LdSpillMul, "ldm_mul") /* spill reload, then a mul */                      \
  /* superinstructions: longer chains; intermediates stay in host registers */ \
  X(LoadIAddMvJmp, "loadi_add_mv_jmp") /* latch: i' = i + c; i = i'; jmp */    \
  X(LoadILdSpillMulAdd, "loadi_ldm_mul_add") /* c * spilled + base */          \
  X(MulAddLdIdx, "mul_add_ldx") /* a[i*w + j] indexed load */                  \
  X(AddMvJmp, "add_mv_jmp") /* add, copy, back edge; ends a stretch */         \
  X(LdGlobLoadIAddStGlob, "ldg_loadi_add_stg") /* g' = g + c */                \
  X(LdGlobCmpLTCbr, "ldg_cmp_lt_cbr") /* global load feeding a < test */       \
  X(LdIdx2, "ldx_ldx") /* two adjacent indexed loads */                        \
  X(LdIdxStIdx, "ldx_stx") /* indexed load, then indexed store */              \
  X(StIdx2, "stx_stx") /* two adjacent indexed stores */

enum class DOp : uint8_t {
#define RAP_DOP_ENUM(N, Mnemonic) N,
  RAP_DOP_LIST(RAP_DOP_ENUM)
#undef RAP_DOP_ENUM
};

/// Stable mnemonic ("cmp_lt_cbr", "ld_add_st", ...) for tests and dumps.
const char *dopName(DOp Op);

/// One decoded operation. Its operand fields (Dst, A, B, Aux, X, Y, Z) take
/// their roles per op: decodeFunction states each op's roles where it
/// builds the op, and the op's handler in Threaded.cpp where it reads them.
/// Every field holds one of:
///
///   register       byte offset of the register in the frame window
///   constant       byte offset of the constant in DecodedFunc::Consts
///   spill slot     byte offset of the slot in the frame's spill area
///   branch target  byte offset of the target op in DecodedFunc::Ops
///   global address cell index into global memory
///
/// so every operand access is one add, with no scaling on the address
/// path. The fields the reference engine shares stay plain indexes: Call's
/// return register, callee id, ArgPairs index and pair count; BadCall's
/// callee id and argument count; Ret's value register (NoReg for void).
struct DecOp {
  DOp Op = DOp::Halt;
  /// Original instructions this op covers (1..4; 0 for the sentinel).
  uint8_t NumInstrs = 0;
  uint32_t Dst = 0;
  uint32_t A = 0;
  uint32_t B = 0;
  uint32_t Aux = 0;
  int32_t X = 0;
  int32_t Y = 0;
  /// Seventh operand field, for the superinstructions that need it.
  int32_t Z = 0;
  /// Linear position of the first covered instruction (== LinearCode size
  /// for the sentinel). Traps report LinPos + component index; the fuel
  /// bail-out resumes the reference engine here.
  uint32_t LinPos = 0;
  /// Cycle cost from this op through its stretch's terminator, inclusive.
  uint32_t SuffixCycles = 0;
};

/// One function in decoded form.
struct DecodedFunc {
  /// Decoded ops, ending with the ImplicitRet sentinel.
  std::vector<DecOp> Ops;
  /// Interned LoadI/LoadF immediates, in decode order.
  std::vector<RtValue> Consts;
  /// Call argument marshalling plan: flattened (calleeReg, callerReg)
  /// pairs; params the callee never reads (NoReg) are already dropped.
  std::vector<uint32_t> ArgPairs;
};

/// Decodes \p Code, the linearization of one function of \p Prog. Callee
/// paramReg maps are resolved at decode time, so the program must not be
/// reallocated between decoding and execution (the Interpreter's contract).
DecodedFunc decodeFunction(const IlocProgram &Prog, const LinearCode &Code);

/// One cached function of the interpreter: the linearized stream (reference
/// engine, trap rendering) plus the decoded buffer (threaded engine) and
/// its frame-window geometry.
struct CachedFunc {
  const IlocFunction *F = nullptr;
  LinearCode Code;
  DecodedFunc Dec;
  /// Registers in a frame window (physical count once allocated).
  uint32_t RegCount = 0;
  /// Spill slots in a frame window; the window is RegCount + SpillCount
  /// cells, registers first.
  uint32_t SpillCount = 0;
};

} // namespace rap::interp

#endif // RAP_INTERP_DECODE_H
