//===- tests/property_test.cpp - Parameterized property tests -------------===//
///
/// Property-style sweeps over random seeds and parameter grids, using
/// TEST_P / INSTANTIATE_TEST_SUITE_P:
///
///  - semantic transparency: for random programs, instruction dispatch,
///    direct-threaded dispatch, trace dispatch and the NET baseline all
///    produce identical observable behaviour under every (threshold,
///    delay) combination;
///  - metric sanity: coverage/completion stay within [0, 1], counters
///    stay consistent;
///  - BCG probability laws: per-node successor probabilities sum to 1.
///
//===----------------------------------------------------------------------===//

#include "vm/TraceVM.h"

#include "TestPrograms.h"
#include "baseline/NetTraceVm.h"
#include "bytecode/Verifier.h"
#include "fuzz/Invariants.h"
#include "fuzz/Oracle.h"
#include "interp/InstructionInterpreter.h"
#include "interp/ThreadedInterpreter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

using namespace jtc;

//===----------------------------------------------------------------------===//
// Random-program transparency sweep
//===----------------------------------------------------------------------===//

class RandomProgramProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, uint32_t>> {
};

TEST_P(RandomProgramProperty, TraceDispatchIsSemanticallyTransparent) {
  auto [Seed, Threshold, Delay] = GetParam();
  testprog::RandomProgramBuilder Gen(Seed);
  Module M = Gen.build();
  ASSERT_TRUE(isValid(M)) << formatErrors(verifyModule(M));

  Machine Plain(M);
  RunResult R1 = runInstructions(Plain, 5000000);

  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions()
                     .completionThreshold(Threshold)
                     .startStateDelay(Delay)
                     .decayInterval(32) // small interval: evaluate aggressively
                     .maxInstructions(5000000));
  RunResult R2 = VM.run();

  EXPECT_EQ(R1.Status, R2.Status);
  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_EQ(Plain.output(), VM.machine().output());
  EXPECT_EQ(fuzz::heapDigest(Plain.heap()),
            fuzz::heapDigest(VM.machine().heap()));

  const VmStats &S = VM.stats();
  EXPECT_EQ(S.BlocksExecuted, S.BlockDispatches + S.BlocksInTraces);
  EXPECT_LE(S.completedCoverage(), 1.0 + 1e-12);
  EXPECT_LE(S.completionRate(), 1.0 + 1e-12);
  EXPECT_TRUE(fuzz::checkTraceVm(VM, R2.Status).empty())
      << fuzz::formatViolations(fuzz::checkTraceVm(VM, R2.Status));

  // The plain block executor agrees with the reference as well.
  ThreadedProgram TP(PM);
  ThreadedResult TR = TP.run(5000000);
  EXPECT_EQ(R1.Status, TR.Status);
  EXPECT_EQ(R1.Instructions, TR.Instructions);
  EXPECT_EQ(Plain.output(), TR.Output);

  // And so does the Dynamo-NET baseline.
  NetConfig NC;
  NC.MaxInstructions = 5000000;
  NetTraceVm Net(PM, NC);
  RunResult R3 = Net.run();
  EXPECT_EQ(R1.Status, R3.Status);
  EXPECT_EQ(R1.Instructions, R3.Instructions);
  EXPECT_EQ(Plain.output(), Net.machine().output());
  EXPECT_EQ(fuzz::heapDigest(Plain.heap()),
            fuzz::heapDigest(Net.machine().heap()));
  EXPECT_TRUE(fuzz::checkNetVm(Net).empty())
      << fuzz::formatViolations(fuzz::checkNetVm(Net));
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomProgramProperty,
    ::testing::Combine(::testing::Values(11ull, 22ull, 33ull, 44ull, 55ull,
                                         66ull, 77ull, 88ull),
                       ::testing::Values(1.0, 0.97, 0.9),
                       ::testing::Values(1u, 64u)));

//===----------------------------------------------------------------------===//
// Threshold monotonicity on a controlled program
//===----------------------------------------------------------------------===//

class ThresholdProperty : public ::testing::TestWithParam<double> {};

TEST_P(ThresholdProperty, InstalledTracesHonourTheThreshold) {
  double T = GetParam();
  Module M = testprog::hotLoop(200000);
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions().completionThreshold(T));
  VM.run();
  for (const Trace &Tr : VM.traceCache().traces())
    EXPECT_GE(Tr.ExpectedCompletion, T - 1e-9)
        << "trace " << Tr.Id << " violates the completion threshold";
}

TEST_P(ThresholdProperty, ActualCompletionTracksExpectation) {
  double T = GetParam();
  Module M = testprog::hotLoop(200000);
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions().completionThreshold(T));
  VM.run();
  const VmStats &S = VM.stats();
  if (S.TraceDispatches > 1000) {
    EXPECT_GE(S.completionRate(), T - 0.1)
        << "dynamic completion should stay near the design threshold";
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, ThresholdProperty,
                         ::testing::Values(1.0, 0.99, 0.98, 0.97, 0.95));

//===----------------------------------------------------------------------===//
// Delay sweep property
//===----------------------------------------------------------------------===//

class DelayProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(DelayProperty, DelayNeverBreaksSemantics) {
  uint32_t Delay = GetParam();
  Module M = testprog::hotLoop(100000);
  Machine Plain(M);
  runInstructions(Plain);
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions().startStateDelay(Delay));
  VM.run();
  EXPECT_EQ(Plain.output(), VM.machine().output());
}

TEST_P(DelayProperty, ColdCodeNeverEntersTraces) {
  // With a delay above the run's iteration count, nothing can be traced.
  uint32_t Delay = GetParam();
  Module M = testprog::hotLoop(200);
  PreparedModule PM(M);
  TraceVM VM(PM, VmOptions().startStateDelay(Delay));
  VM.run();
  if (Delay >= 4096) {
    EXPECT_EQ(VM.stats().TraceDispatches, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, DelayProperty,
                         ::testing::Values(1u, 64u, 4096u));

//===----------------------------------------------------------------------===//
// BCG probability laws over random streams
//===----------------------------------------------------------------------===//

class BcgLawProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BcgLawProperty, SuccessorProbabilitiesFormADistribution) {
  Prng Rng(GetParam());
  ProfilerConfig PC;
  PC.StartStateDelay = 1;
  PC.DecayInterval = 64;
  BranchCorrelationGraph G(PC);
  // A random walk over a small block alphabet.
  BlockId Cur = 0;
  for (unsigned I = 0; I < 20000; ++I) {
    Cur = (Cur + 1 + static_cast<BlockId>(Rng.nextBelow(4))) % 9;
    G.onBlockDispatch(Cur);
  }
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    const BranchNode &Node = G.node(N);
    if (Node.totalWeight() == 0)
      continue;
    double Sum = 0;
    uint32_t CountSum = 0;
    for (const Correlation &C : Node.correlations()) {
      double P = Node.probabilityOf(C.Succ);
      EXPECT_GE(P, 0.0);
      EXPECT_LE(P, 1.0 + 1e-12);
      Sum += P;
      CountSum += C.Count.value();
    }
    EXPECT_NEAR(Sum, 1.0, 1e-9) << "node " << N;
    EXPECT_EQ(CountSum, Node.totalWeight())
        << "maintained total must equal the sum of counts";
    // The instantaneous maximum over successors is at least the uniform
    // floor. (Node::maxProbability() reflects the *cached* maximum from
    // the last evaluation, which may lag between decay passes, so the
    // true maximum is recomputed here.)
    double TrueMax = 0;
    for (const Correlation &C : Node.correlations())
      TrueMax = std::max(TrueMax, Node.probabilityOf(C.Succ));
    EXPECT_GE(TrueMax + 1e-12,
              1.0 / static_cast<double>(Node.correlations().size()))
        << "the maximum cannot be below the uniform floor";
    EXPECT_LE(Node.maxProbability(), 1.0 + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BcgLawProperty,
                         ::testing::Values(3ull, 14ull, 159ull, 2653ull,
                                           58979ull));
