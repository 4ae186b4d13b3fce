//===- runtime/Machine.h - Execution state and semantics --------*- C++ -*-===//
///
/// \file
/// The Machine owns all mutable execution state (operand stack, locals,
/// call frames, heap, output). execOne() is the reference semantics of
/// every opcode, one instruction at a time (the Fig. 1 dispatch model).
/// The block executor (interp/BlockStepper, the Fig. 2 model) runs whole
/// blocks directly on the same state; the differential tests and the
/// fuzz oracle hold the two to identical behaviour.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_RUNTIME_MACHINE_H
#define JTC_RUNTIME_MACHINE_H

#include "bytecode/Program.h"
#include "runtime/Heap.h"
#include "runtime/Trap.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace jtc {

/// How one executed instruction affects control.
enum class EffectKind : uint8_t {
  Next, ///< Fall through to the next instruction.
  Jump, ///< Transfer to instruction index Effect::Target.
  Call, ///< Push a frame for method Effect::Target, then run its pc 0.
  Ret,  ///< Pop the current frame (Effect::HasValue: push return value).
  Halt, ///< Stop the virtual machine.
  Trap, ///< A runtime trap fired; see Machine::trap().
};

struct Effect {
  EffectKind Kind = EffectKind::Next;
  uint32_t Target = 0;
  bool HasValue = false;
};

/// Execution state plus opcode semantics for one program run.
///
/// The operand stack and locals of all frames live in two shared arenas;
/// each frame records its base offsets, so calls do not allocate.
class Machine {
public:
  explicit Machine(const Module &M, size_t MaxFrames = 2048,
                   size_t MaxHeapCells = 1u << 22);

  /// Clears all state (stacks, frames, heap, output, trap).
  void reset();

  /// Pushes the initial frame for \p MethodIdx, which must take no
  /// arguments.
  void start(uint32_t MethodIdx);

  /// Executes one instruction of the current frame's method and reports
  /// its control effect. Call/Ret effects only *resolve* the transfer; the
  /// interpreter applies them with pushFrame()/popFrame() so it can track
  /// dispatch boundaries.
  Effect execOne(const Instruction &I);

  /// Pushes a frame for \p Callee, moving its arguments from the operand
  /// stack into the new locals. Returns false (and sets a StackOverflow
  /// trap) when the frame budget is exhausted.
  bool pushFrame(uint32_t Callee, uint32_t ReturnPc);

  struct PopInfo {
    bool BottomFrame = false; ///< The popped frame was the entry frame.
    uint32_t ReturnPc = 0;    ///< Caller pc to resume at (if !BottomFrame).
  };

  /// Pops the current frame; when \p HasValue, transfers the return value
  /// to the caller's operand stack.
  PopInfo popFrame(bool HasValue);

  /// Module method id of the frame on top of the call stack.
  uint32_t currentMethodId() const {
    assert(!Frames.empty() && "no active frame");
    return Frames.back().MethodId;
  }

  const Method &currentMethod() const {
    return TheModule.Methods[currentMethodId()];
  }

  bool hasFrames() const { return !Frames.empty(); }
  size_t frameDepth() const { return Frames.size(); }

  TrapKind trap() const { return TrapValue; }

  /// Values emitted by Iprint, in order; the observable output of a run.
  const std::vector<int64_t> &output() const { return Output; }

  Heap &heap() { return TheHeap; }
  const Module &module() const { return TheModule; }

  // Raw operand-stack and local access, used by tests and by the machine
  // itself. The verifier guarantees stack discipline, so these assert
  // rather than trap.
  void push(int64_t V) {
    reserveOperands(1);
    Operands[OperandTop++] = V;
  }
  int64_t pop() {
    assert(OperandTop > frameOperandBase() && "operand stack underflow");
    return Operands[--OperandTop];
  }
  size_t operandDepth() const { return OperandTop - frameOperandBase(); }

  int64_t local(uint32_t Idx) const {
    assert(!Frames.empty() && Idx < currentMethod().NumLocals);
    return Locals[Frames.back().LocalsBase + Idx];
  }
  void setLocal(uint32_t Idx, int64_t V) {
    assert(!Frames.empty() && Idx < currentMethod().NumLocals);
    Locals[Frames.back().LocalsBase + Idx] = V;
  }

  // Arena access for the template JIT (src/backend): generated code works
  // on the raw operand and locals arrays through base pointers, and its
  // runtime helpers replicate execOne's heap/trap/output semantics.
  // Pointers are invalidated by push/resizeOperandStack and by frame
  // operations (the arenas may reallocate); the JIT re-derives them per
  // trace run and never executes native code across such an operation.
  size_t operandStackSize() const { return OperandTop; }
  int64_t *operandStackData() { return Operands.data(); }
  /// Sets the operand-stack top to \p N, growing the arena when needed.
  void resizeOperandStack(size_t N) {
    if (N > Operands.size())
      growOperands(N);
    OperandTop = N;
  }
  int64_t *currentLocalsData() {
    assert(!Frames.empty() && "no active frame");
    return Locals.data() + Frames.back().LocalsBase;
  }
  void setTrap(TrapKind Kind) { TrapValue = Kind; }
  void appendOutput(int64_t V) { Output.push_back(V); }

private:
  // The block executor works on the arenas, frames and heap directly.
  friend class BlockStepper;

  struct Frame {
    uint32_t MethodId = 0;
    uint32_t LocalsBase = 0;
    uint32_t OperandBase = 0;
    uint32_t ReturnPc = 0;
  };

  size_t frameOperandBase() const {
    return Frames.empty() ? 0 : Frames.back().OperandBase;
  }

  /// Makes room for \p N more operands above the top.
  void reserveOperands(size_t N) {
    if (OperandTop + N > Operands.size())
      growOperands(OperandTop + N);
  }
  /// Grows the operand arena to at least \p Need slots (geometrically).
  void growOperands(size_t Need);

  Effect trapOut(TrapKind Kind) {
    TrapValue = Kind;
    return {EffectKind::Trap, 0, false};
  }

  const Module &TheModule;
  Heap TheHeap;
  // Operand and locals arenas: only [0, OperandTop) and [0, LocalsTop)
  // are live; the slots above are spare capacity, so pushes and frame
  // pushes do not reallocate on the common path.
  std::vector<int64_t> Operands;
  size_t OperandTop = 0;
  std::vector<int64_t> Locals;
  size_t LocalsTop = 0;
  std::vector<Frame> Frames;
  std::vector<int64_t> Output;
  TrapKind TrapValue = TrapKind::None;
  size_t MaxFrames;
};

} // namespace jtc

#endif // JTC_RUNTIME_MACHINE_H
