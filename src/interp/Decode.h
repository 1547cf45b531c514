//===- interp/Decode.h - Pre-decoded ILOC for threaded dispatch -*- C++ -*-===//
//
// Part of the RAP reproduction of Norris & Pollock, PLDI 1994.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decoded-op execution format of the direct-threaded interpreter
/// (DESIGN.md §11). Each linearized function is translated once into a flat
/// buffer of fixed-size DecOps: operands resolved to register slots,
/// immediates interned into a constant pool, branch targets pre-mapped to
/// buffer indices, and common idioms fused into superinstructions:
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
/// for every op, the cycle cost from it through its stretch's terminator
/// (branch/call/ret/halt). The engine debits that in bulk at each control
/// transfer; when the remaining budget cannot cover a stretch, the run is
/// guaranteed to end inside it, and execution falls back to the reference
/// switch engine for an exactly-per-instruction finish.
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

/// Decoded opcodes. The X-macro keeps the enum and the threaded engine's
/// jump table in one authoritative order.
#define RAP_DOP_LIST(X)                                                        \
  /* one-to-one translations of Opcode */                                      \
  X(LoadImm)                                                                   \
  X(Mv)                                                                        \
  X(Add)                                                                       \
  X(Sub)                                                                       \
  X(Mul)                                                                       \
  X(Div)                                                                       \
  X(Mod)                                                                       \
  X(Neg)                                                                       \
  X(And)                                                                       \
  X(Or)                                                                        \
  X(Not)                                                                       \
  X(FAdd)                                                                      \
  X(FSub)                                                                      \
  X(FMul)                                                                      \
  X(FDiv)                                                                      \
  X(FNeg)                                                                      \
  X(CmpEQ)                                                                     \
  X(CmpNE)                                                                     \
  X(CmpLT)                                                                     \
  X(CmpLE)                                                                     \
  X(CmpGT)                                                                     \
  X(CmpGE)                                                                     \
  X(I2F)                                                                       \
  X(F2I)                                                                       \
  X(LdSpill)                                                                   \
  X(StSpill)                                                                   \
  X(LdGlob)                                                                    \
  X(StGlob)                                                                    \
  X(LdIdx)                                                                     \
  X(StIdx)                                                                     \
  X(Jmp)                                                                       \
  X(Cbr)                                                                       \
  X(Call)                                                                      \
  X(BadCall) /* call whose arity mismatches: traps when executed */            \
  X(Ret)                                                                       \
  X(Halt)                                                                      \
  X(ImplicitRet) /* sentinel appended after the last op: fell off the end */   \
  /* superinstructions: cmp + cbr */                                           \
  X(CmpEQCbr)                                                                  \
  X(CmpNECbr)                                                                  \
  X(CmpLTCbr)                                                                  \
  X(CmpLECbr)                                                                  \
  X(CmpGTCbr)                                                                  \
  X(CmpGECbr)                                                                  \
  /* superinstructions: loadI + int op */                                      \
  X(LoadIAdd)                                                                  \
  X(LoadISub)                                                                  \
  X(LoadIMul)                                                                  \
  X(LoadIDiv)                                                                  \
  X(LoadIMod)                                                                  \
  /* superinstructions: ldm + int op + stm (spill triple) */                   \
  X(LdAddSt)                                                                   \
  X(LdSubSt)                                                                   \
  X(LdMulSt)                                                                   \
  /* superinstructions: loadI + cmp + cbr (bounded-loop back edges) */         \
  X(LoadICmpEQCbr)                                                             \
  X(LoadICmpNECbr)                                                             \
  X(LoadICmpLTCbr)                                                             \
  X(LoadICmpLECbr)                                                             \
  X(LoadICmpGTCbr)                                                             \
  X(LoadICmpGECbr)                                                             \
  /* superinstructions: hot adjacent pairs of the Table 1 corpus */            \
  X(MulAdd)      /* mul feeding one add operand (array address math) */        \
  X(AddLdIdx)    /* add feeding an indexed load's offset */                    \
  X(AddMv)       /* add, then any register copy */                             \
  X(MvJmp)       /* loop-latch copy + back edge; ends a stretch */             \
  X(LdIdxLoadI)  /* indexed load, then any immediate load */                   \
  X(LoadILdSpill) /* immediate load, then a spill reload */                    \
  X(LoadIStIdx)  /* immediate load, then an indexed store */                   \
  X(StIdxLoadI)  /* indexed store, then any immediate load */                  \
  X(LoadImm2)    /* two adjacent immediate loads */                            \
  X(LdSpillAdd)  /* spill reload, then an add */                               \
  X(LdSpillMul)  /* spill reload, then a mul */                                \
  /* superinstructions: longer chains; intermediates stay in host registers */ \
  X(LoadIAddMvJmp)     /* loop latch: i' = i + c ; i = i' ; jmp head */        \
  X(LoadILdSpillMulAdd) /* addr math: c * spilled ; + base */                  \
  X(MulAddLdIdx)       /* a[i*w + j] indexed load */                           \
  X(AddMvJmp)          /* add, copy, back edge; ends a stretch */              \
  X(LdGlobLoadIAddStGlob) /* global increment: g' = g + c */                   \
  X(LdGlobCmpLTCbr)    /* global load feeding a < test; ends a stretch */      \
  X(LdIdx2)            /* two adjacent indexed loads */                        \
  X(LdIdxStIdx)        /* indexed load, then indexed store */                  \
  X(StIdx2)            /* two adjacent indexed stores */

enum class DOp : uint8_t {
#define RAP_DOP_ENUM(N) N,
  RAP_DOP_LIST(RAP_DOP_ENUM)
#undef RAP_DOP_ENUM
};

/// Stable mnemonic ("cmp_lt_cbr", "ld_add_st", ...) for tests and dumps.
const char *dopName(DOp Op);

/// One decoded operation. Field roles by opcode (unlisted fields unused):
///
///   LoadImm        Dst; Aux = constant-pool index
///   unary ops      Dst, A
///   binary ops     Dst, A, B
///   LdSpill        Dst; X = slot          StSpill   A; X = slot
///   LdGlob         Dst; X = addr          StGlob    A; X = addr
///   LdIdx          Dst, A = index; X = addr
///   StIdx          A = index, B = value; X = addr
///   Jmp            Aux = target
///   Cbr            A = cond; Aux = true target, B = false target
///   Call           Dst = return dst; X = callee id; Aux = arg-pair offset,
///                  B = arg-pair count
///   BadCall        X = callee id; B = argument count (for the message)
///   Ret            A = value reg, or NoReg for void
///   CmpXXCbr       Dst, A, B (the compare); Aux = true target, X = false
///                  target
///   LoadIOpXX      Dst, A, B (the op); Aux = constant-pool index,
///                  X = the loadI's dst reg
///   LdOpStXX       Dst, A, B (the op); Aux = the ldm's dst reg,
///                  X = load slot, Y = store slot
///   LoadICmpXXCbr  Dst = cmp dst, A = non-constant cmp operand; Aux = true
///                  target, B = false target; X = the loadI's dst reg
///                  (holds the constant operand), Y = constant-pool index.
///                  Decode normalizes the constant to the right operand,
///                  mirroring the compare (LT<->GT, LE<->GE) when needed.
///   MulAdd         Dst = add dst; A, B = mul operands; X = mul dst,
///                  Y = the add's other operand
///   AddLdIdx       Dst = load dst; A, B = add operands; X = addr,
///                  Y = add dst (the load's offset)
///   AddMv          Dst = mv dst; A, B = add operands; X = add dst,
///                  Aux = mv src
///   MvJmp          Dst, A (the mv); Aux = target
///   LdIdxLoadI     Dst, A = index; X = addr; Y = loadI dst,
///                  Aux = constant-pool index
///   LoadILdSpill   Dst = ldm dst; X = slot; Y = loadI dst,
///                  Aux = constant-pool index
///   LoadIStIdx     A = index, B = value; X = addr; Y = loadI dst,
///                  Aux = constant-pool index
///   StIdxLoadI     A = index, B = value; X = addr; Y = loadI dst,
///                  Aux = constant-pool index
///   LoadImm2       Dst; Aux = constant-pool index (first load);
///                  Y = second dst, B = second constant-pool index
///   LdSpillOpXX    Dst, A, B (the op); Aux = the ldm's dst reg, X = slot
///   LoadIAddMvJmp  Aux = constant-pool index, X = loadI dst; A = the add's
///                  other operand (the add must use the loadI dst),
///                  Dst = add dst; Y = mv dst (mv src == add dst);
///                  B = jump target
///   LoadILdSpillMulAdd
///                  Aux = constant-pool index, X = loadI dst; B = spill
///                  slot, Z = ldm dst; Y = mul dst (mul operands are
///                  exactly {loadI dst, ldm dst}, which must differ);
///                  A = the add's other operand, Dst = add dst
///   MulAddLdIdx    A, B = mul operands, X = mul dst; Y = the add's other
///                  operand, Z = add dst (the load's offset); Aux = addr,
///                  Dst = load dst
///   AddMvJmp       A, B = add operands, X = add dst; Aux = mv src,
///                  Dst = mv dst; Z = jump target
///   LdGlobLoadIAddStGlob
///                  X = ldg address, Z = ldg dst; Aux = constant-pool
///                  index, Y = loadI dst; Dst = add dst (add operands are
///                  exactly {ldg dst, loadI dst}, which must differ);
///                  B = stg address (stg src == add dst)
///   LdGlobCmpLTCbr Y = ldg address, Z = ldg dst; Dst, A, B (the compare);
///                  Aux = true target, X = false target
///   LdIdx2         Dst, A (off), X (addr) = first load;
///                  Y, B (off), Aux (addr) = second load
///   LdIdxStIdx     Dst, A (off), X (addr) = the load;
///                  B (off), Z (value), Aux (addr) = the store
///   StIdx2         A (off), B (value), X (addr) = first store;
///                  Y (off), Z (value), Aux (addr) = second store
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
  /// Seventh operand field, used only by the four-instruction chains and
  /// MulAddLdIdx/AddMvJmp above.
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
  /// Interned LoadI/LoadF immediates (DecOp::Aux indexes).
  std::vector<RtValue> Consts;
  /// Call argument marshalling plan: flattened (calleeReg, callerReg)
  /// pairs; params the callee never reads (NoReg) are already dropped.
  std::vector<uint32_t> ArgPairs;
};

/// Decodes \p Code (the linearization of \p F under \p Prog).
/// The program must outlive the decoded form; callee paramReg maps are
/// resolved at decode time, so the program must not be reallocated between
/// decoding and execution (the Interpreter's existing contract).
DecodedFunc decodeFunction(const IlocProgram &Prog, const IlocFunction &F,
                           const LinearCode &Code);

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
