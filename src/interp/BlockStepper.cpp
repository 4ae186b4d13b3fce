//===- interp/BlockStepper.cpp --------------------------------------------===//

#include "interp/BlockStepper.h"

#include <limits>
#include <utility>

using namespace jtc;

BlockStepper::BlockStepper(const PreparedModule &PM, Machine &Mach)
    : PM(&PM), Mach(&Mach) {}

void BlockStepper::start() {
  Mach->start(PM->module().EntryMethod);
  Cur = PM->entryBlock();
  Instructions = 0;
}

namespace {

/// True when no opcode grows the operand stack by more than one slot, so
/// a block's instruction count bounds its pushes. (Calls consume their
/// arguments and end the block; the return value is pushed by popFrame.)
constexpr bool pushesAtMostOnePerInstruction() {
  for (unsigned I = 0; I < numOpcodes(); ++I) {
    const auto Op = static_cast<Opcode>(I);
    if (opPushes(Op) - (opPops(Op) < 0 ? 0 : opPops(Op)) > 1)
      return false;
  }
  return true;
}
static_assert(pushesAtMostOnePerInstruction(),
              "step() reserves one operand slot per instruction");

/// Which dynamic checks a heap access runs.
enum CheckLevel : uint8_t {
  CheckAll,  ///< Liveness/class and bounds checks.
  SkipLive,  ///< Bounds check only (MemElision::NullOnly).
  SkipAll,   ///< No checks (MemElision::Full).
};

/// Consumes the armed elision fact for the heap access at \p Pc, if there
/// is one, and credits the checks it skips to \p Elided: the
/// liveness/class check always, plus the bounds check under a Full fact
/// (ArrayLength has no bounds check to begin with). Facts are pc-ordered,
/// so one forward cursor serves the whole block.
CheckLevel consumeElision(const MemElision *&EF, const MemElision *EEnd,
                          uint32_t Pc, Opcode Op, uint64_t &Elided) {
  while (EF != EEnd && EF->Pc < Pc)
    ++EF;
  if (EF == EEnd || EF->Pc != Pc)
    return CheckAll;
  const bool Full = EF->Kind == MemElision::Full;
  ++EF;
  Elided += Full && Op != Opcode::ArrayLength ? 2 : 1;
  return Full ? SkipAll : SkipLive;
}

} // namespace

// The executor proper. Threaded dispatch over the block's instructions in
// the method code: every handler ends in an indirect goto through the
// opcode-indexed label table, so there is no central dispatch loop. The operand-stack top, the locals base and
// the heap live in locals for the whole block; the Machine sees them again
// only at the block's exit (jump, call, return, halt, trap or
// fallthrough). Trap checks run in Machine::execOne's order and with its
// trap kinds, and operands are popped exactly as execOne pops them.
BlockStepper::StepStatus BlockStepper::step() {
  assert(Cur != InvalidBlockId && "step() before start() or after finish");
  const BasicBlock &BB = PM->block(Cur);
  Machine &Mc = *Mach;
  Heap &H = Mc.TheHeap;
  const Module &Mod = PM->module();

  // Consume the one-shot elision span armed for this block (empty on the
  // vast majority of steps: one predictable branch per heap access).
  const MemElision *EF = Elide;
  const MemElision *const EEnd = Elide + ElideCount;
  Elide = nullptr;
  ElideCount = 0;

  // One capacity compare covers every push the block can make, so the
  // cached top stays valid until the block exits.
  Mc.reserveOperands(BB.numInstructions());
  int64_t *const Base = Mc.Operands.data();
  int64_t *Sp = Base + Mc.OperandTop;
  int64_t *const Lp = Mc.Locals.data() + Mc.Frames.back().LocalsBase;

  const Instruction *const First = PM->methodCode(BB.MethodId) + BB.StartPc;
  const Instruction *const End = First + BB.numInstructions();
  const Instruction *I = First;
  bool HasValue = false;

  // NOLINTBEGIN -- label-per-opcode engine.
  static const void *const Labels[] = {
#define JTC_OPCODE(Name, Mnemonic, Pops, Pushes, Kind) &&Op_##Name,
#include "bytecode/Opcodes.def"
  };

  // Only a non-transfer instruction can be a block's last, so only NEXT
  // checks for the end (the fallthrough into the leader at EndPc).
#define DISPATCH() goto *Labels[static_cast<unsigned>(I->Op)]
#define NEXT()                                                                 \
  do {                                                                         \
    if (++I == End)                                                            \
      EXIT_TO(BB.Next);                                                        \
    DISPATCH();                                                                \
  } while (0)
#define EXIT_TO(Target)                                                        \
  do {                                                                         \
    Cur = static_cast<BlockId>(Target);                                        \
    goto exit_block;                                                           \
  } while (0)
#define TRAP(Kind)                                                             \
  do {                                                                         \
    Mc.TrapValue = TrapKind::Kind;                                             \
    goto trapped;                                                              \
  } while (0)
#define CHECKS(Op)                                                             \
  (EF == EEnd ? CheckAll                                                       \
              : consumeElision(EF, EEnd,                                       \
                               BB.StartPc + static_cast<uint32_t>(I - First),  \
                               Opcode::Op, ChecksElided))
#define BINOP(Name, Expr)                                                      \
  Op_##Name : {                                                                \
    const int64_t B = *--Sp;                                                   \
    const int64_t A = Sp[-1];                                                  \
    Sp[-1] = (Expr);                                                           \
    NEXT();                                                                    \
  }
#define WRAP(Op)                                                               \
  static_cast<int64_t>(static_cast<uint64_t>(A) Op static_cast<uint64_t>(B))
#define IF1(Name, Cond)                                                        \
  Op_##Name : {                                                                \
    const int64_t V = *--Sp;                                                   \
    EXIT_TO((Cond) ? BB.Taken : BB.Next);                                      \
  }
#define IF2(Name, Cond)                                                        \
  Op_##Name : {                                                                \
    const int64_t B = *--Sp;                                                   \
    const int64_t A = *--Sp;                                                   \
    EXIT_TO((Cond) ? BB.Taken : BB.Next);                                      \
  }

  DISPATCH();

Op_Nop:
  NEXT();
Op_Iconst:
  *Sp++ = I->A;
  NEXT();
Op_Iload:
  *Sp++ = Lp[static_cast<uint32_t>(I->A)];
  NEXT();
Op_Istore:
  Lp[static_cast<uint32_t>(I->A)] = *--Sp;
  NEXT();
Op_Iinc: {
  int64_t &L = Lp[static_cast<uint32_t>(I->A)];
  L = static_cast<int64_t>(static_cast<uint64_t>(L) +
                           static_cast<uint64_t>(static_cast<int64_t>(I->B)));
  NEXT();
}
Op_Pop:
  --Sp;
  NEXT();
Op_Dup:
  *Sp = Sp[-1];
  ++Sp;
  NEXT();
Op_Swap:
  std::swap(Sp[-1], Sp[-2]);
  NEXT();

  BINOP(Iadd, WRAP(+))
  BINOP(Isub, WRAP(-))
  BINOP(Imul, WRAP(*))
  BINOP(Ishl, static_cast<int64_t>(static_cast<uint64_t>(A) << (B & 63)))
  BINOP(Ishr, A >> (B & 63))
  BINOP(Iushr, static_cast<int64_t>(static_cast<uint64_t>(A) >> (B & 63)))
  BINOP(Iand, A & B)
  BINOP(Ior, A | B)
  BINOP(Ixor, A ^ B)

Op_Idiv: {
  const int64_t B = *--Sp;
  const int64_t A = *--Sp;
  if (B == 0)
    TRAP(DivideByZero);
  // Define INT64_MIN / -1 as INT64_MIN instead of hardware UB.
  *Sp++ = A == std::numeric_limits<int64_t>::min() && B == -1 ? A : A / B;
  NEXT();
}
Op_Irem: {
  const int64_t B = *--Sp;
  const int64_t A = *--Sp;
  if (B == 0)
    TRAP(DivideByZero);
  *Sp++ = A == std::numeric_limits<int64_t>::min() && B == -1 ? 0 : A % B;
  NEXT();
}
Op_Ineg:
  Sp[-1] = static_cast<int64_t>(0 - static_cast<uint64_t>(Sp[-1]));
  NEXT();

Op_Goto:
  EXIT_TO(BB.Taken);
  IF1(IfEq, V == 0)
  IF1(IfNe, V != 0)
  IF1(IfLt, V < 0)
  IF1(IfGe, V >= 0)
  IF1(IfGt, V > 0)
  IF1(IfLe, V <= 0)
  IF2(IfIcmpEq, A == B)
  IF2(IfIcmpNe, A != B)
  IF2(IfIcmpLt, A < B)
  IF2(IfIcmpGe, A >= B)
  IF2(IfIcmpGt, A > B)
  IF2(IfIcmpLe, A <= B)
Op_Tableswitch: {
  const SwitchTable &T =
      Mod.Methods[BB.MethodId].SwitchTables[static_cast<uint32_t>(I->A)];
  const int64_t Off = *--Sp - T.Low;
  EXIT_TO(PM->blockStartingAt(
      BB.MethodId, Off >= 0 && Off < static_cast<int64_t>(T.Targets.size())
                       ? T.Targets[static_cast<size_t>(Off)]
                       : T.DefaultTarget));
}

Op_InvokeStatic: {
  const auto Callee = static_cast<uint32_t>(I->A);
  Mc.OperandTop = static_cast<size_t>(Sp - Base);
  Instructions += BB.numInstructions();
  if (!Mc.pushFrame(Callee, BB.EndPc)) {
    Cur = InvalidBlockId;
    return StepStatus::Trapped;
  }
  Cur = PM->methodEntryBlock(Callee);
  return StepStatus::Continue;
}
Op_InvokeVirtual: {
  const int64_t Receiver =
      Sp[-static_cast<ptrdiff_t>(Mod.Slots[I->A].ArgCount)];
  if (!H.isLive(Receiver))
    TRAP(NullReference);
  const uint32_t ClassId = H.classOf(Receiver);
  if (ClassId == Heap::ArrayClass)
    TRAP(BadVirtualDispatch);
  const uint32_t Callee =
      Mod.Classes[ClassId].Vtable[static_cast<uint32_t>(I->A)];
  if (Callee == InvalidMethod)
    TRAP(BadVirtualDispatch);
  Mc.OperandTop = static_cast<size_t>(Sp - Base);
  Instructions += BB.numInstructions();
  if (!Mc.pushFrame(Callee, BB.EndPc)) {
    Cur = InvalidBlockId;
    return StepStatus::Trapped;
  }
  Cur = PM->methodEntryBlock(Callee);
  return StepStatus::Continue;
}
Op_Ireturn:
  HasValue = true;
Op_Return: {
  Mc.OperandTop = static_cast<size_t>(Sp - Base);
  Instructions += BB.numInstructions();
  const Machine::PopInfo Info = Mc.popFrame(HasValue);
  if (Info.BottomFrame) {
    Cur = InvalidBlockId;
    return StepStatus::Finished;
  }
  Cur = PM->blockStartingAt(Mc.currentMethodId(), Info.ReturnPc);
  return StepStatus::Continue;
}
Op_Halt:
  Mc.OperandTop = static_cast<size_t>(Sp - Base);
  Instructions += BB.numInstructions();
  Cur = InvalidBlockId;
  return StepStatus::Finished;

Op_New: {
  const auto ClassId = static_cast<uint32_t>(I->A);
  const int64_t Ref = H.allocObject(ClassId, Mod.Classes[ClassId].NumFields);
  if (Ref == Heap::Null)
    TRAP(OutOfMemory);
  *Sp++ = Ref;
  NEXT();
}
Op_NewArray: {
  const int64_t Len = *--Sp;
  if (Len < 0)
    TRAP(NegativeArraySize);
  const int64_t Ref = H.allocArray(Len);
  if (Ref == Heap::Null)
    TRAP(OutOfMemory);
  *Sp++ = Ref;
  NEXT();
}
Op_GetField: {
  const CheckLevel C = CHECKS(GetField);
  const int64_t Ref = *--Sp;
  const auto Idx = static_cast<size_t>(I->A);
  if (C == CheckAll &&
      (!H.isLive(Ref) || H.classOf(Ref) == Heap::ArrayClass))
    TRAP(NullReference);
  if (C != SkipAll && Idx >= H.slotCount(Ref))
    TRAP(FieldBounds);
  *Sp++ = H.load(Ref, Idx);
  NEXT();
}
Op_PutField: {
  const CheckLevel C = CHECKS(PutField);
  const int64_t Value = *--Sp;
  const int64_t Ref = *--Sp;
  const auto Idx = static_cast<size_t>(I->A);
  if (C == CheckAll &&
      (!H.isLive(Ref) || H.classOf(Ref) == Heap::ArrayClass))
    TRAP(NullReference);
  if (C != SkipAll && Idx >= H.slotCount(Ref))
    TRAP(FieldBounds);
  H.store(Ref, Idx, Value);
  NEXT();
}
Op_Iaload: {
  const CheckLevel C = CHECKS(Iaload);
  const int64_t Idx = *--Sp;
  const int64_t Ref = *--Sp;
  if (C == CheckAll &&
      (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass))
    TRAP(NullReference);
  if (C != SkipAll &&
      (Idx < 0 || static_cast<size_t>(Idx) >= H.slotCount(Ref)))
    TRAP(ArrayBounds);
  *Sp++ = H.load(Ref, static_cast<size_t>(Idx));
  NEXT();
}
Op_Iastore: {
  const CheckLevel C = CHECKS(Iastore);
  const int64_t Value = *--Sp;
  const int64_t Idx = *--Sp;
  const int64_t Ref = *--Sp;
  if (C == CheckAll &&
      (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass))
    TRAP(NullReference);
  if (C != SkipAll &&
      (Idx < 0 || static_cast<size_t>(Idx) >= H.slotCount(Ref)))
    TRAP(ArrayBounds);
  H.store(Ref, static_cast<size_t>(Idx), Value);
  NEXT();
}
Op_ArrayLength: {
  const CheckLevel C = CHECKS(ArrayLength);
  const int64_t Ref = *--Sp;
  if (C == CheckAll &&
      (!H.isLive(Ref) || H.classOf(Ref) != Heap::ArrayClass))
    TRAP(NullReference);
  *Sp++ = static_cast<int64_t>(H.slotCount(Ref));
  NEXT();
}
Op_Iprint:
  Mc.Output.push_back(*--Sp);
  NEXT();

exit_block:
  Mc.OperandTop = static_cast<size_t>(Sp - Base);
  Instructions += BB.numInstructions();
  return StepStatus::Continue;

trapped:
  // The trapping instruction counts as executed, as in execOne.
  Mc.OperandTop = static_cast<size_t>(Sp - Base);
  Instructions += static_cast<uint64_t>(I - First) + 1;
  Cur = InvalidBlockId;
  return StepStatus::Trapped;

#undef DISPATCH
#undef NEXT
#undef EXIT_TO
#undef TRAP
#undef CHECKS
#undef BINOP
#undef WRAP
#undef IF1
#undef IF2
  // NOLINTEND
}

RunResult jtc::runBlocks(BlockStepper &Stepper, uint64_t MaxInstructions) {
  return runBlocksWithHook(Stepper, [](BlockId) {}, MaxInstructions);
}
