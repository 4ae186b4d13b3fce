//===- interp/PreparedModule.h - Basic-block discovery ----------*- C++ -*-===//
///
/// \file
/// Code preparation for the direct-threaded-inlining dispatch model
/// (paper section 3.1, following Piumarta & Riccardi and SableVM): every
/// method is partitioned into basic blocks, and the block interpreter
/// dispatches one block at a time. Blocks end at any control-transfer
/// instruction -- branches, jumps, switches, calls, returns, halt -- or
/// where the next instruction is a branch target (fallthrough into a
/// leader). Block ids are globally unique across the module.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_PREPAREDMODULE_H
#define JTC_INTERP_PREPAREDMODULE_H

#include "bytecode/Program.h"
#include "interp/TraceProofMemo.h"
#include "support/Ids.h"

#include <cassert>
#include <ostream>
#include <vector>

namespace jtc {

/// One basic block: the half-open instruction range [StartPc, EndPc) of a
/// method. The block's last instruction either transfers control or falls
/// through into the leader at EndPc.
struct BasicBlock {
  uint32_t MethodId = 0;
  uint32_t StartPc = 0;
  uint32_t EndPc = 0;
  // Resolved once, for the block executor:
  /// The block led by EndPc -- the fallthrough, not-taken or call
  /// continuation successor -- or InvalidBlockId past the method's end.
  BlockId Next = InvalidBlockId;
  /// The branch or goto target block, or InvalidBlockId.
  BlockId Taken = InvalidBlockId;

  uint32_t numInstructions() const { return EndPc - StartPc; }
};

/// A verified Module plus its discovered basic blocks and the leader maps
/// needed to turn (method, pc) control transfers into block transitions.
///
/// Sessions share a PreparedModule through const references, concurrently
/// in the serving layer. It is logically const: the one thing sessions
/// add to it is the proof memo, which is thread-safe, append-only and
/// never changes what a session computes (see TraceProofMemo).
class PreparedModule {
public:
  /// Prepares \p M. The module must outlive the PreparedModule and should
  /// already have passed the verifier (preparation asserts on structural
  /// errors instead of reporting them).
  explicit PreparedModule(const Module &M);

  const Module &module() const { return *M; }

  size_t numBlocks() const { return Blocks.size(); }

  const BasicBlock &block(BlockId B) const {
    assert(B < Blocks.size() && "invalid block id");
    return Blocks[B];
  }

  /// The block whose first instruction is (\p MethodId, \p Pc). \p Pc must
  /// be a leader: every pc that can be reached by a control transfer
  /// (branch target, call continuation, method entry) is one.
  BlockId blockStartingAt(uint32_t MethodId, uint32_t Pc) const {
    assert(MethodId < LeaderToBlock.size() && "invalid method");
    assert(Pc < LeaderToBlock[MethodId].size() && "pc out of range");
    BlockId B = LeaderToBlock[MethodId][Pc];
    assert(B != InvalidBlockId && "pc is not a block leader");
    return B;
  }

  /// Entry block of \p MethodId (its pc 0 block).
  BlockId methodEntryBlock(uint32_t MethodId) const {
    assert(MethodId < EntryBlocks.size() && "invalid method");
    return EntryBlocks[MethodId];
  }

  /// First instruction of \p MethodId's code.
  const Instruction *methodCode(uint32_t MethodId) const {
    assert(MethodId < MethodCode.size() && "invalid method");
    return MethodCode[MethodId];
  }

  /// Entry block of the module's entry method.
  BlockId entryBlock() const { return methodEntryBlock(M->EntryMethod); }

  /// Instruction count of block \p B, used when attributing executed
  /// instructions to traces.
  uint32_t blockSize(BlockId B) const { return block(B).numInstructions(); }

  /// Trace proofs shared by every session over this module.
  TraceProofMemo &proofs() const { return Proofs; }

  /// Dumps the block structure, one line per block.
  void dump(std::ostream &OS) const;

private:
  const Module *M;
  std::vector<BasicBlock> Blocks;
  /// Per method, per pc: block id if pc is a leader, else InvalidBlockId.
  std::vector<std::vector<BlockId>> LeaderToBlock;
  std::vector<BlockId> EntryBlocks;
  std::vector<const Instruction *> MethodCode;
  mutable TraceProofMemo Proofs;
};

} // namespace jtc

#endif // JTC_INTERP_PREPAREDMODULE_H
