//===- tests/interp_test.cpp - Both dispatch models -----------------------===//

#include "interp/BlockStepper.h"
#include "interp/InstructionInterpreter.h"

#include "TestPrograms.h"
#include "bytecode/Verifier.h"
#include "text/AsmParser.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

using namespace jtc;

namespace {

std::vector<int64_t> runViaInstructions(const Module &M,
                                        RunStatus Expect = RunStatus::Finished) {
  Machine Mach(M);
  RunResult R = runInstructions(Mach);
  EXPECT_EQ(R.Status, Expect);
  return Mach.output();
}

std::vector<int64_t> runViaBlocks(const Module &M,
                                  RunStatus Expect = RunStatus::Finished) {
  PreparedModule PM(M);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  RunResult R = runBlocks(Stepper);
  EXPECT_EQ(R.Status, Expect);
  return Mach.output();
}

} // namespace

//===----------------------------------------------------------------------===//
// Instruction interpreter semantics
//===----------------------------------------------------------------------===//

TEST(InstructionInterpreterTest, CountingLoop) {
  EXPECT_EQ(runViaInstructions(testprog::countingLoop(10)),
            (std::vector<int64_t>{45}));
}

TEST(InstructionInterpreterTest, RecursiveFactorial) {
  EXPECT_EQ(runViaInstructions(testprog::recursiveFactorial(6)),
            (std::vector<int64_t>{720}));
}

TEST(InstructionInterpreterTest, VirtualDispatch) {
  EXPECT_EQ(runViaInstructions(testprog::virtualDispatch()),
            (std::vector<int64_t>{15, 14}));
}

TEST(InstructionInterpreterTest, TableSwitchIncludingDefault) {
  EXPECT_EQ(runViaInstructions(testprog::switchProgram()),
            (std::vector<int64_t>{100, 101, 102, 999, 999, 999}));
}

TEST(InstructionInterpreterTest, Arrays) {
  // sum of squares 0..7 = 140
  EXPECT_EQ(runViaInstructions(testprog::arraySquares(8)),
            (std::vector<int64_t>{140}));
}

TEST(InstructionInterpreterTest, TrapSurfacesWithKind) {
  Module M = testprog::divideByZero();
  Machine Mach(M);
  RunResult R = runInstructions(Mach);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::DivideByZero);
  EXPECT_TRUE(Mach.output().empty());
}

TEST(InstructionInterpreterTest, DispatchesEqualInstructions) {
  Module M = testprog::countingLoop(10);
  Machine Mach(M);
  RunResult R = runInstructions(Mach);
  EXPECT_EQ(R.Dispatches, R.Instructions)
      << "Fig. 1 model: one dispatch per instruction";
  EXPECT_GT(R.Instructions, 0u);
}

TEST(InstructionInterpreterTest, BudgetStopsTheRun) {
  Module M = testprog::countingLoop(1000000);
  Machine Mach(M);
  RunResult R = runInstructions(Mach, /*MaxInstructions=*/100);
  EXPECT_EQ(R.Status, RunStatus::BudgetExhausted);
  EXPECT_GE(R.Instructions, 100u);
  EXPECT_LE(R.Instructions, 101u);
}

//===----------------------------------------------------------------------===//
// Block stepper
//===----------------------------------------------------------------------===//

TEST(BlockStepperTest, AgreesWithInstructionInterpreter) {
  const Module Programs[] = {
      testprog::countingLoop(50),    testprog::recursiveFactorial(8),
      testprog::virtualDispatch(),   testprog::switchProgram(),
      testprog::arraySquares(16),    testprog::hotLoop(1000),
  };
  for (const Module &M : Programs) {
    Machine M1(M);
    RunResult R1 = runInstructions(M1);
    PreparedModule PM(M);
    Machine M2(M);
    BlockStepper Stepper(PM, M2);
    RunResult R2 = runBlocks(Stepper);
    EXPECT_EQ(R1.Status, R2.Status);
    EXPECT_EQ(M1.output(), M2.output());
    EXPECT_EQ(R1.Instructions, R2.Instructions)
        << "both models execute the same instruction stream";
  }
}

TEST(BlockStepperTest, FewerDispatchesThanInstructions) {
  Module M = testprog::countingLoop(100);
  PreparedModule PM(M);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  RunResult R = runBlocks(Stepper);
  EXPECT_LT(R.Dispatches, R.Instructions)
      << "Fig. 2 model: one dispatch per basic block";
  EXPECT_GT(R.Dispatches, 0u);
}

TEST(BlockStepperTest, TrapMidBlockStopsRun) {
  Module M = testprog::divideByZero();
  EXPECT_EQ(runViaBlocks(M, RunStatus::Trapped), (std::vector<int64_t>{}));
}

TEST(BlockStepperTest, HookSeesEveryExecutedBlockInOrder) {
  Module M = testprog::countingLoop(3);
  PreparedModule PM(M);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  std::vector<BlockId> Dispatched;
  RunResult R = runBlocksWithHook(
      Stepper, [&Dispatched](BlockId B) { Dispatched.push_back(B); });
  EXPECT_EQ(Dispatched.size(), R.Dispatches);
  ASSERT_FALSE(Dispatched.empty());
  EXPECT_EQ(Dispatched.front(), PM.entryBlock());
  // Re-execute with a fresh machine, checking the stepper reports the
  // same sequence via currentBlock().
  Machine Mach2(M);
  BlockStepper S2(PM, Mach2);
  S2.start();
  size_t I = 0;
  while (true) {
    ASSERT_LT(I, Dispatched.size());
    EXPECT_EQ(S2.currentBlock(), Dispatched[I]);
    ++I;
    if (S2.step() != BlockStepper::StepStatus::Continue)
      break;
  }
  EXPECT_EQ(I, Dispatched.size());
}

TEST(BlockStepperTest, StepperStateWalksCallsAndReturns) {
  Module M = testprog::recursiveFactorial(3);
  PreparedModule PM(M);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  Stepper.start();
  // The entry block belongs to main.
  EXPECT_EQ(PM.block(Stepper.currentBlock()).MethodId, M.EntryMethod);
  bool VisitedCallee = false;
  while (Stepper.step() == BlockStepper::StepStatus::Continue)
    if (Stepper.currentBlock() != InvalidBlockId &&
        PM.block(Stepper.currentBlock()).MethodId != M.EntryMethod)
      VisitedCallee = true;
  EXPECT_TRUE(VisitedCallee);
  EXPECT_EQ(Mach.output(), (std::vector<int64_t>{6}));
}

TEST(BlockStepperTest, InstructionCountMatchesBlockSizes) {
  Module M = testprog::switchProgram();
  PreparedModule PM(M);
  Machine Mach(M);
  BlockStepper Stepper(PM, Mach);
  uint64_t SizeSum = 0;
  RunResult R = runBlocksWithHook(
      Stepper, [&](BlockId B) { SizeSum += PM.blockSize(B); });
  EXPECT_EQ(SizeSum, R.Instructions)
      << "every dispatched block runs to its end";
}

TEST(BlockStepperTest, RandomProgramsAgreeAcrossModels) {
  for (uint64_t Seed = 100; Seed < 140; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    ASSERT_TRUE(isValid(M)) << "seed " << Seed;
    Machine M1(M);
    RunResult R1 = runInstructions(M1, 10000000);
    PreparedModule PM(M);
    Machine M2(M);
    BlockStepper Stepper(PM, M2);
    RunResult R2 = runBlocks(Stepper, 10000000);
    EXPECT_EQ(R1.Status, R2.Status) << "seed " << Seed;
    EXPECT_EQ(M1.output(), M2.output()) << "seed " << Seed;
    EXPECT_EQ(R1.Instructions, R2.Instructions) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Block executor parity
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p M under both dispatch models (each machine with \p MaxHeapCells
/// of heap) and requires full agreement: status, trap kind, instruction
/// count at the end, output and heap digest. Returns the block run.
RunResult expectModelsAgree(const Module &M,
                            size_t MaxHeapCells = 1u << 22) {
  EXPECT_TRUE(isValid(M));
  Machine M1(M, /*MaxFrames=*/2048, MaxHeapCells);
  RunResult R1 = runInstructions(M1);
  PreparedModule PM(M);
  Machine M2(M, /*MaxFrames=*/2048, MaxHeapCells);
  BlockStepper Stepper(PM, M2);
  RunResult R2 = runBlocks(Stepper);
  EXPECT_EQ(R1.Status, R2.Status);
  EXPECT_EQ(R1.Trap, R2.Trap);
  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_EQ(M1.output(), M2.output());
  EXPECT_EQ(heapDigest(M1.heap()), heapDigest(M2.heap()));
  return R2;
}

Module parse(const std::string &Text) {
  std::string Error;
  std::optional<Module> M = parseModule(Text, Error);
  EXPECT_TRUE(M.has_value()) << Error;
  return M ? std::move(*M) : Module();
}

} // namespace

TEST(BlockExecutorTest, MidBlockTrapsMatchTheInstructionInterpreter) {
  // Each body runs inside one block that has already written to the heap
  // and printed, and is followed by more work in the same block, so the
  // trap fires mid-block with state to compare. Local 3 holds a Box whose
  // never-written field is the null reference (a load, so the verifier
  // cannot prove it null).
  const std::string Prelude = R"(
.slot get args=1 returns=int
.class A fields=1
.class Wide fields=3
.class Box fields=1
.vtable A get A.get
.method A.get args=1 locals=1 returns=int
  iload 0
  getfield 0
  ireturn
.end
.method rec args=0 locals=0 returns=void
  invokestatic rec
  return
.end
.method main args=0 locals=4 returns=void
  iconst 7
  iprint
  new A
  istore 0
  iconst 4
  newarray
  istore 1
  new Wide
  istore 2
  new Box
  istore 3
  iload 0
  iconst 3
  putfield 0
  iload 1
  iconst 2
  iconst 8
  iastore
)";
  const std::string Epilogue = R"(
  iconst 99
  iprint
  halt
.end
.entry main
)";
  struct Case {
    const char *Name;
    const char *Body;
    TrapKind Expect;
  };
  const Case Cases[] = {
      {"idiv", "iconst 1\n iconst 0\n idiv\n pop", TrapKind::DivideByZero},
      {"irem", "iconst 1\n iconst 0\n irem\n pop", TrapKind::DivideByZero},
      {"getfield", "iload 3\n getfield 0\n getfield 0\n pop",
       TrapKind::NullReference},
      {"putfield", "iload 3\n getfield 0\n iconst 5\n putfield 0",
       TrapKind::NullReference},
      {"iaload", "iload 3\n getfield 0\n iconst 0\n iaload\n pop",
       TrapKind::NullReference},
      {"iastore", "iload 3\n getfield 0\n iconst 0\n iconst 1\n iastore",
       TrapKind::NullReference},
      {"arraylength", "iload 3\n getfield 0\n arraylength\n pop",
       TrapKind::NullReference},
      {"invokevirtual-null", "iload 3\n getfield 0\n invokevirtual get\n pop",
       TrapKind::NullReference},
      {"getfield-bounds", "iload 0\n getfield 2\n pop", TrapKind::FieldBounds},
      {"putfield-bounds", "iload 0\n iconst 1\n putfield 2",
       TrapKind::FieldBounds},
      {"iaload-bounds", "iload 1\n iconst 4\n iaload\n pop",
       TrapKind::ArrayBounds},
      {"iastore-negative", "iload 1\n iconst -1\n iconst 6\n iastore",
       TrapKind::ArrayBounds},
      {"newarray-negative", "iconst -3\n newarray\n pop",
       TrapKind::NegativeArraySize},
      {"invokevirtual-array", "iload 1\n invokevirtual get\n pop",
       TrapKind::BadVirtualDispatch},
      {"invokevirtual-unimplemented", "iload 2\n invokevirtual get\n pop",
       TrapKind::BadVirtualDispatch},
      {"stack-overflow", "invokestatic rec", TrapKind::StackOverflow},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    Module M = parse(Prelude + C.Body + Epilogue);
    RunResult R = expectModelsAgree(M);
    EXPECT_EQ(R.Status, RunStatus::Trapped);
    EXPECT_EQ(R.Trap, C.Expect);
  }

  // OutOfMemory: an allocation loop against a 16-cell heap budget.
  Module Oom = parse(Prelude + R"(
L0:
  new A
  pop
  iconst 5
  newarray
  pop
  goto L0
)" + Epilogue);
  RunResult R = expectModelsAgree(Oom, /*MaxHeapCells=*/16);
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::OutOfMemory);
}

TEST(BlockExecutorTest, ArmedElisionsSkipChecksAndCreditThem) {
  // One block; the armed facts are sound by construction (A's field 0
  // exists, the array has 3 elements), except that the NullOnly fact
  // keeps its bounds check, which the second run trips.
  auto Program = [](int Index) {
    return parse(R"(
.class A fields=1
.method main args=0 locals=2 returns=void
  new A
  istore 0
  iconst 3
  newarray
  istore 1
  iload 0
  getfield 0
  iprint
  iload 1
  arraylength
  iprint
  iload 1
  iconst )" + std::to_string(Index) + R"(
  iaload
  iprint
  halt
.end
.entry main
)");
  };
  const MemElision Facts[] = {
      {0, 6, MemElision::Full},      // getfield: liveness/class + bounds
      {0, 9, MemElision::Full},      // arraylength: liveness/class only
      {0, 13, MemElision::NullOnly}, // iaload: liveness/class only
  };
  for (int Index : {1, 7}) {
    SCOPED_TRACE(Index);
    Module M = Program(Index);
    PreparedModule PM(M);
    Machine Mach(M);
    BlockStepper Stepper(PM, Mach);
    Stepper.start();
    Stepper.setElisions(Facts, 3);
    BlockStepper::StepStatus S = Stepper.step();
    EXPECT_EQ(Stepper.checksElided(), 4u);
    if (Index == 1) {
      EXPECT_EQ(S, BlockStepper::StepStatus::Finished);
      EXPECT_EQ(Mach.output(), (std::vector<int64_t>{0, 3, 0}));
    } else {
      EXPECT_EQ(S, BlockStepper::StepStatus::Trapped);
      EXPECT_EQ(Mach.trap(), TrapKind::ArrayBounds);
      EXPECT_EQ(Mach.output(), (std::vector<int64_t>{0, 3}));
    }
    EXPECT_EQ(Stepper.instructions(), Index == 1 ? 16u : 14u);
  }
}

TEST(BlockExecutorTest, ArenaGrowthUnderDeepWideRecursion) {
  // rec(n) holds Width operands and a wide locals frame across its
  // recursive call, 2000 frames deep (the limit is 2048), and allocates
  // an array per level: the operand and locals arenas reallocate many
  // times while blocks run on cached pointers.
  const int Width = 24;
  std::string Text = R"(
.method rec args=1 locals=40 returns=int
  iload 0
  ifle Lbase
  iload 0
  istore 39
  iload 0
  newarray
  pop
)";
  for (int I = 0; I < Width; ++I)
    Text += "  iload 0\n  iconst " + std::to_string(I) + "\n  iadd\n";
  Text += "  iload 0\n  iconst 1\n  isub\n  invokestatic rec\n";
  for (int I = 0; I < Width; ++I)
    Text += "  iadd\n";
  Text += R"(  iload 39
  iadd
  ireturn
Lbase:
  iconst 0
  ireturn
.end
.method main args=0 locals=0 returns=void
  iconst 2000
  invokestatic rec
  iprint
  halt
.end
.entry main
)";
  Module M = parse(Text);
  RunResult R = expectModelsAgree(M);
  EXPECT_EQ(R.Status, RunStatus::Finished);

  // Trace execution steps elided heap accesses through the same
  // executor: the checks it credits are pinned per workload (scale 2).
  const std::pair<const char *, uint64_t> Elided[] = {
      {"compress", 0}, {"javac", 1856}, {"raytrace", 0},
      {"mpegaudio", 0}, {"soot", 0},    {"scimark", 0},
  };
  for (const auto &[Name, Expect] : Elided) {
    const WorkloadInfo *W = findWorkload(Name);
    ASSERT_NE(W, nullptr) << Name;
    Module WM = W->Build(2);
    PreparedModule PM(WM);
    TraceVM VM(PM, VmOptions().memElide(true));
    EXPECT_EQ(VM.run().Status, RunStatus::Finished) << Name;
    EXPECT_EQ(VM.stats().MemChecksElided, Expect) << Name;
  }
}
