//===- tests/tracevm_test.cpp - The trace-dispatching VM ------------------===//

#include "vm/TraceVM.h"

#include "TestPrograms.h"
#include "analysis/Analysis.h"
#include "backend/JitBackend.h"
#include "bytecode/Verifier.h"
#include "interp/InstructionInterpreter.h"
#include "text/AsmParser.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <string>
#include <vector>

using namespace jtc;

namespace {

VmOptions defaultOptions() {
  return VmOptions().startStateDelay(64).completionThreshold(0.97);
}

} // namespace

TEST(TraceVmTest, SemanticsUnchangedByTraceDispatch) {
  // The trace cache is an execution accelerator; observable behaviour
  // must be identical to the plain interpreter.
  const Module Programs[] = {
      testprog::countingLoop(5000), testprog::recursiveFactorial(10),
      testprog::virtualDispatch(),  testprog::switchProgram(),
      testprog::arraySquares(64),   testprog::hotLoop(20000),
  };
  for (const Module &M : Programs) {
    Machine Plain(M);
    RunResult R1 = runInstructions(Plain);
    PreparedModule PM(M);
    TraceVM VM(PM, defaultOptions());
    RunResult R2 = VM.run();
    EXPECT_EQ(R1.Status, R2.Status);
    EXPECT_EQ(Plain.output(), VM.machine().output());
    EXPECT_EQ(R1.Instructions, R2.Instructions);
  }
}

TEST(TraceVmTest, HotLoopGetsTraced) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_GT(S.TraceDispatches, 0u);
  EXPECT_GT(S.TracesCompleted, 0u);
  EXPECT_GT(S.completedCoverage(), 0.5)
      << "a hot biased loop should mostly run from the trace cache";
  EXPECT_GT(S.avgCompletedTraceLength(), 2.0);
}

TEST(TraceVmTest, StatsIdentitiesHold) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  RunResult R = VM.run();
  const VmStats &S = VM.stats();

  EXPECT_EQ(R.Instructions, S.Instructions);
  EXPECT_LE(S.TracesCompleted, S.TraceDispatches);
  EXPECT_LE(S.BlocksInCompletedTraces, S.BlocksInTraces);
  EXPECT_LE(S.InstructionsInCompletedTraces, S.InstructionsInTraces);
  EXPECT_LE(S.InstructionsInTraces, S.Instructions);
  EXPECT_LE(S.BlocksInTraces, S.BlocksExecuted);
  EXPECT_LE(S.completedCoverage(), 1.0);
  EXPECT_LE(S.traceCoverage(), 1.0);
  EXPECT_GE(S.completionRate(), 0.0);
  EXPECT_LE(S.completionRate(), 1.0);
  // Every executed block was either dispatched individually or ran under
  // a trace dispatch.
  EXPECT_EQ(S.BlocksExecuted, S.BlockDispatches + S.BlocksInTraces);
  EXPECT_EQ(R.Dispatches, S.BlockDispatches + S.TraceDispatches);
}

TEST(TraceVmTest, TraceDispatchReducesDispatchCount) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);

  TraceVM V1(PM, defaultOptions().traces(false));
  RunResult R1 = V1.run();

  TraceVM V2(PM, defaultOptions());
  RunResult R2 = V2.run();

  EXPECT_EQ(R1.Instructions, R2.Instructions);
  EXPECT_LT(R2.Dispatches, R1.Dispatches)
      << "dispatching whole traces must reduce the dispatch count";
}

TEST(TraceVmTest, ProfilingDisabledMeansNoGraphNoTraces) {
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions().profiling(false));
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_EQ(S.Hooks, 0u);
  EXPECT_EQ(S.Signals, 0u);
  EXPECT_EQ(S.TraceDispatches, 0u);
  EXPECT_EQ(S.GraphNodes, 0u);
}

TEST(TraceVmTest, TracesDisabledStillProfiles) {
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions().traces(false));
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_GT(S.Hooks, 0u);
  EXPECT_GT(S.GraphNodes, 0u);
  EXPECT_EQ(S.TraceDispatches, 0u);
  EXPECT_EQ(S.TracesConstructed, 0u);
}

TEST(TraceVmTest, HooksOncePerDispatchNotPerBlock) {
  // Paper section 4.1.2: trace dispatch executes a single profiling
  // statement; inlined blocks carry none.
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_LT(S.Hooks, S.BlocksExecuted)
      << "in-trace blocks must not run profiler hooks";
  EXPECT_LE(S.Hooks, S.BlockDispatches + S.TraceDispatches);
}

TEST(TraceVmTest, PartialTraceExecutionsAreCounted) {
  // The hot loop's rare path (1/256) diverges from the loop trace, so
  // some trace executions must end early.
  Module M = testprog::hotLoop(200000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  VM.run();
  const VmStats &S = VM.stats();
  EXPECT_GT(S.TraceDispatches, S.TracesCompleted)
      << "rare paths should cause some partial executions";
  EXPECT_GE(S.completionRate(), 0.9);
}

TEST(TraceVmTest, InstructionBudgetStopsRun) {
  Module M = testprog::countingLoop(1000000000);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions().maxInstructions(50000));
  RunResult R = VM.run();
  EXPECT_EQ(R.Status, RunStatus::BudgetExhausted);
  EXPECT_GE(R.Instructions, 50000u);
  EXPECT_LT(R.Instructions, 51000u);
}

TEST(TraceVmTest, TrapInsideTraceSurfaces) {
  // A loop that eventually divides by zero: i counts down to 0 and the
  // program divides by i each iteration.
  Assembler Asm;
  uint32_t Main = Asm.declareMethod("main", 0, 2, false);
  MethodBuilder B = Asm.beginMethod(Main);
  Label Loop = B.newLabel(), Done = B.newLabel();
  B.iconst(30000);
  B.istore(0);
  B.bind(Loop);
  B.iload(0);
  B.branch(Opcode::IfLt, Done); // loops until i < 0, but traps at i == 0
  B.iconst(1000);
  B.iload(0);
  B.emit(Opcode::Idiv);
  B.istore(1);
  B.iinc(0, -1);
  B.branch(Opcode::Goto, Loop);
  B.bind(Done);
  B.halt();
  B.finish();
  Asm.setEntry(Main);
  Module M = Asm.build();

  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  RunResult R = VM.run();
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  EXPECT_EQ(R.Trap, TrapKind::DivideByZero);
}

TEST(TraceVmTest, DeterministicAcrossRuns) {
  Module M = testprog::hotLoop(80000);
  PreparedModule PM(M);
  TraceVM V1(PM, defaultOptions());
  V1.run();
  TraceVM V2(PM, defaultOptions());
  V2.run();
  const VmStats &A = V1.stats(), &B = V2.stats();
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.TraceDispatches, B.TraceDispatches);
  EXPECT_EQ(A.TracesCompleted, B.TracesCompleted);
  EXPECT_EQ(A.Signals, B.Signals);
  EXPECT_EQ(A.TracesConstructed, B.TracesConstructed);
}

TEST(TraceVmTest, RandomProgramsKeepSemanticsUnderTracing) {
  for (uint64_t Seed = 500; Seed < 540; ++Seed) {
    testprog::RandomProgramBuilder Gen(Seed);
    Module M = Gen.build();
    Machine Plain(M);
    RunResult R1 = runInstructions(Plain, 10000000);
    PreparedModule PM(M);
    TraceVM VM(PM, defaultOptions()
                       .startStateDelay(1) // trace aggressively
                       .maxInstructions(10000000));
    RunResult R2 = VM.run();
    EXPECT_EQ(R1.Status, R2.Status) << "seed " << Seed;
    EXPECT_EQ(Plain.output(), VM.machine().output()) << "seed " << Seed;
    EXPECT_EQ(R1.Instructions, R2.Instructions) << "seed " << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Single-shot contract
//===----------------------------------------------------------------------===//

TEST(TraceVmTest, RunIsSingleShot) {
  Module M = testprog::countingLoop(100);
  PreparedModule PM(M);
  TraceVM VM(PM, defaultOptions());
  RunResult First = VM.run();
  EXPECT_EQ(First.Status, RunStatus::Finished);
#ifdef NDEBUG
  // Release builds turn reuse into a trap instead of executing anything.
  RunResult Again = VM.run();
  EXPECT_EQ(Again.Status, RunStatus::Trapped);
  EXPECT_EQ(Again.Trap, TrapKind::VmReuse);
  EXPECT_EQ(Again.Instructions, 0u);
  // The first run's results are untouched.
  EXPECT_EQ(VM.stats().Instructions, First.Instructions);
#else
  EXPECT_DEATH(VM.run(), "single-shot");
#endif
}

//===----------------------------------------------------------------------===//
// Warm handoff seeds
//===----------------------------------------------------------------------===//

TEST(TraceVmTest, SeedRoundTripPreservesSemanticsAndSkipsWarmup) {
  Module M = testprog::hotLoop(50000);
  PreparedModule PM(M);

  TraceVM Donor(PM, defaultOptions());
  RunResult DonorRun = Donor.run();
  ASSERT_EQ(DonorRun.Status, RunStatus::Finished);
  ASSERT_GT(Donor.stats().LiveTraces, 0u);
  VmSeed Seed = Donor.exportSeed();
  EXPECT_FALSE(Seed.empty());
  EXPECT_EQ(Seed.Traces.size(), Donor.stats().LiveTraces);

  TraceVM Warm(PM, defaultOptions());
  Warm.importSeed(Seed);
  RunResult WarmRun = Warm.run();

  // Semantics are untouched by seeding.
  EXPECT_EQ(WarmRun.Status, DonorRun.Status);
  EXPECT_EQ(WarmRun.Instructions, DonorRun.Instructions);
  EXPECT_EQ(Warm.machine().output(), Donor.machine().output());

  // The warmup is gone: the donor's traces are installed (not rebuilt),
  // dispatched from the start, and the already-acknowledged profile
  // emits no state-change signals on this stationary workload.
  EXPECT_EQ(Warm.stats().TracesSeeded, Donor.stats().LiveTraces);
  EXPECT_EQ(Warm.stats().TracesConstructed, 0u);
  EXPECT_GT(Warm.stats().TraceDispatches, 0u);
  EXPECT_LT(Warm.stats().Signals, Donor.stats().Signals);
  // More of the run executes inside traces than the cold session managed.
  EXPECT_GE(Warm.stats().traceCoverage(), Donor.stats().traceCoverage());
}

TEST(TraceVmTest, SeedIgnoredWhenComponentsDisabled) {
  Module M = testprog::hotLoop(20000);
  PreparedModule PM(M);
  TraceVM Donor(PM, defaultOptions());
  Donor.run();
  VmSeed Seed = Donor.exportSeed();

  TraceVM NoProfile(PM, defaultOptions().profiling(false));
  NoProfile.importSeed(Seed);
  RunResult R = NoProfile.run();
  EXPECT_EQ(R.Status, RunStatus::Finished);
  EXPECT_EQ(NoProfile.stats().TracesSeeded, 0u);
  EXPECT_EQ(NoProfile.stats().GraphNodes, 0u);

  TraceVM NoTraces(PM, defaultOptions().traces(false));
  NoTraces.importSeed(Seed);
  RunResult R2 = NoTraces.run();
  EXPECT_EQ(R2.Status, RunStatus::Finished);
  EXPECT_EQ(NoTraces.stats().TracesSeeded, 0u);
  EXPECT_GT(NoTraces.stats().GraphNodes, 0u);
}

//===----------------------------------------------------------------------===//
// Trace-run accounting and observers
//===----------------------------------------------------------------------===//

namespace {

/// Records a session's block stream: the entry block, then the target of
/// every transition.
class RecordingSink : public BlockTransitionSink {
public:
  void onRunStart(BlockId Entry) override { Blocks.push_back(Entry); }
  void onTransition(BlockId From, BlockId To) override {
    if (From != Blocks.back())
      ++Discontinuities;
    Blocks.push_back(To);
    ++Transitions;
  }
  void onRunEnd(const RunResult &, const VmStats &) override {}

  std::vector<BlockId> Blocks;
  uint64_t Transitions = 0;
  uint64_t Discontinuities = 0;
};

/// The proof-memo counters: the only ones that may differ between two
/// sessions with identical behaviour, since they record what earlier
/// sessions over the module proved.
bool isProofMemoCounter(const VmStats::FieldInfo &F) {
  return F.Counter == &VmStats::ProofCacheHits ||
         F.Counter == &VmStats::ProofCacheMisses;
}

std::vector<backend::BackendKind> bothTiers() {
  std::vector<backend::BackendKind> Tiers = {backend::BackendKind::Interp};
  if (backend::jitSupportedHost())
    Tiers.push_back(backend::BackendKind::Jit);
  return Tiers;
}

void expectSameSeed(const VmSeed &A, const VmSeed &B, const std::string &Ctx) {
  ASSERT_EQ(A.Nodes.size(), B.Nodes.size()) << Ctx;
  for (size_t I = 0; I < A.Nodes.size(); ++I) {
    const BcgNodeSnapshot &X = A.Nodes[I];
    const BcgNodeSnapshot &Y = B.Nodes[I];
    EXPECT_TRUE(X.From == Y.From && X.To == Y.To &&
                X.StartDelayLeft == Y.StartDelayLeft &&
                X.SinceDecay == Y.SinceDecay && X.Execs == Y.Execs &&
                X.Corrs == Y.Corrs)
        << Ctx << ": BCG node " << I << " differs";
  }
  ASSERT_EQ(A.Traces.size(), B.Traces.size()) << Ctx;
  for (size_t I = 0; I < A.Traces.size(); ++I) {
    const TraceCache::TraceSeed &X = A.Traces[I];
    const TraceCache::TraceSeed &Y = B.Traces[I];
    EXPECT_TRUE(X.EntryFrom == Y.EntryFrom && X.Blocks == Y.Blocks &&
                X.ExpectedCompletion == Y.ExpectedCompletion &&
                X.Entered == Y.Entered && X.Completed == Y.Completed)
        << Ctx << ": live trace " << I << " differs";
  }
}

} // namespace

TEST(TraceVmTest, ObservedSessionMatchesUnobserved) {
  // TraceVM accounts each trace run's matched prefix in one step and
  // hands an attached sink the prefix transitions afterwards. Attaching a
  // sink must change nothing, the sink must see every transition, and
  // driving a fresh engine block by block over the recorded stream (what
  // btrace replay does) must land on the same statistics.
  for (const WorkloadInfo &W : allWorkloads()) {
    Module M = W.Build(W.DefaultScale / 4);
    for (backend::BackendKind Tier : bothTiers()) {
      std::string Ctx = std::string(W.Name) + "/" +
                        (Tier == backend::BackendKind::Jit ? "jit" : "interp");
      VmOptions Options = VmOptions().backend(Tier);

      // Each session over a module of its own, so the proof memo counters
      // compare too.
      PreparedModule PM(M);
      TraceVM Plain(PM, Options);
      RunResult PlainRun = Plain.run();
      RecordingSink Rec;
      PreparedModule ObservedPM(M);
      TraceVM Observed(ObservedPM, Options);
      Observed.setTransitionSink(&Rec);
      RunResult ObservedRun = Observed.run();

      const VmStats &S = Observed.stats();
      ASSERT_GT(S.TraceDispatches, 0u) << Ctx << ": no trace ever ran";
      EXPECT_EQ(PlainRun.Status, ObservedRun.Status) << Ctx;
      for (const VmStats::FieldInfo &F : VmStats::fields()) {
        if (F.Counter) {
          EXPECT_EQ(Plain.stats().*(F.Counter), S.*(F.Counter))
              << Ctx << ": observing changed counter " << F.Key;
        }
      }
      expectSameSeed(Plain.exportSeed(), Observed.exportSeed(), Ctx);

      EXPECT_EQ(Rec.Transitions, S.BlocksExecuted - 1)
          << Ctx << ": the sink must see one transition per block but the "
                    "last";
      EXPECT_EQ(Rec.Discontinuities, 0u) << Ctx;

      AdaptiveEngine Ref(PM, Observed.options());
      Ref.begin(Rec.Blocks[0]);
      Ref.executed(Rec.Blocks[0]);
      for (size_t I = 1; I < Rec.Blocks.size(); ++I) {
        Ref.transition(Rec.Blocks[I - 1], Rec.Blocks[I]);
        Ref.executed(Rec.Blocks[I]);
      }
      Ref.endRun();
      VmStats RefStats = Ref.snapshotStats(S.Instructions);
      EXPECT_EQ(RefStats.BlocksExecuted, S.BlocksExecuted) << Ctx;
      EXPECT_EQ(RefStats.BlocksInTraces, S.BlocksInTraces) << Ctx;
      EXPECT_EQ(RefStats.InstructionsInTraces, S.InstructionsInTraces) << Ctx;
      EXPECT_EQ(RefStats.digest(), S.digest()) << Ctx;
      expectSameSeed(Ref.exportSeed(), Observed.exportSeed(), Ctx);
    }
  }
}

namespace {

/// Per-kind event counts of a finished session.
std::array<uint64_t, NumEventKinds> eventCounts(const TraceVM &VM) {
  std::array<uint64_t, NumEventKinds> N{};
  VM.events().forEach(
      [&N](const Event &E) { ++N[static_cast<unsigned>(E.Kind)]; });
  return N;
}

} // namespace

TEST(TraceVmTest, ProofsReusedAcrossSessions) {
  // Validation verdicts and elision lists live in the PreparedModule's
  // proof memo. A session whose proofs all come from the memo must be
  // indistinguishable from the session that proved them and from one
  // over a fresh PreparedModule: every counter (the digest-excluded
  // validation, elision and JIT ones included), the exported profile and
  // the telemetry events -- and it computes no module facts at all.
  for (const WorkloadInfo &W : allWorkloads()) {
    Module M = W.Build(W.DefaultScale / 4);
    for (backend::BackendKind Tier : bothTiers()) {
      std::string Ctx = std::string(W.Name) + "/" +
                        (Tier == backend::BackendKind::Jit ? "jit" : "interp");
      VmOptions Options = VmOptions()
                              .backend(Tier)
                              .validate(ValidateMode::On)
                              .memElide(true)
                              .telemetry(true)
                              .telemetryCapacity(1u << 22);
      PreparedModule PM(M);
      TraceVM First(PM, Options);
      First.run();
      TraceVM Second(PM, Options);
      Second.run();
      PreparedModule FreshPM(M);
      TraceVM Fresh(FreshPM, Options);
      Fresh.run();

      const VmStats &A = First.stats();
      const VmStats &B = Second.stats();
      const VmStats &C = Fresh.stats();
      ASSERT_GT(A.TracesValidated, 0u) << Ctx;
      ASSERT_GT(A.ProofCacheMisses, 0u) << Ctx;
      EXPECT_EQ(B.ProofCacheMisses, 0u) << Ctx;
      EXPECT_EQ(B.ProofCacheHits, A.ProofCacheHits + A.ProofCacheMisses)
          << Ctx;
      EXPECT_EQ(C.ProofCacheMisses, A.ProofCacheMisses) << Ctx;
      for (const VmStats::FieldInfo &F : VmStats::fields()) {
        if (!F.Counter || isProofMemoCounter(F))
          continue;
        EXPECT_EQ(A.*(F.Counter), B.*(F.Counter))
            << Ctx << ": a remembered proof changed counter " << F.Key;
        EXPECT_EQ(A.*(F.Counter), C.*(F.Counter))
            << Ctx << ": a fresh module changed counter " << F.Key;
      }
      expectSameSeed(First.exportSeed(), Second.exportSeed(), Ctx);
      expectSameSeed(First.exportSeed(), Fresh.exportSeed(), Ctx);
      EXPECT_EQ(eventCounts(First), eventCounts(Second)) << Ctx;
      EXPECT_EQ(eventCounts(First), eventCounts(Fresh)) << Ctx;

      ASSERT_NE(First.moduleFacts(), nullptr) << Ctx;
      EXPECT_GT(First.moduleFacts()->methodsComputed(), 0u) << Ctx;
      EXPECT_EQ(Second.moduleFacts(), nullptr)
          << Ctx << ": every proof was remembered, yet facts were computed";
    }
  }

  // Nothing consumes facts: no validation, no annotation.
  const WorkloadInfo *W = findWorkload("javac");
  ASSERT_NE(W, nullptr);
  Module M = W->Build(W->DefaultScale / 4);
  PreparedModule PM(M);
  TraceVM Idle(PM, VmOptions().validate(ValidateMode::Off).memElide(false));
  Idle.run();
  ASSERT_GT(Idle.stats().TracesConstructed, 0u);
  EXPECT_EQ(Idle.stats().ProofCacheHits + Idle.stats().ProofCacheMisses, 0u);
  EXPECT_EQ(Idle.moduleFacts(), nullptr);
  EXPECT_EQ(PM.proofs().size(), 0u);
}

namespace {

/// Runs \p M once with validation and elision on, then checks that every
/// method whose facts the session computed on demand has exactly the
/// facts ModuleAnalysis::compute gives it. Returns the methods checked.
uint32_t expectOnDemandFactsMatch(const Module &M, VmOptions Options,
                                  const std::string &Ctx) {
  PreparedModule PM(M);
  TraceVM VM(PM, Options.validate(ValidateMode::On).memElide(true));
  VM.run();
  const analysis::ModuleAnalysis *Lazy = VM.moduleFacts();
  if (!Lazy)
    return 0;
  analysis::ModuleAnalysis Eager = analysis::ModuleAnalysis::compute(M);
  uint32_t Checked = 0;
  for (uint32_t F = 0; F < Lazy->numMethods(); ++F) {
    if (!Lazy->isComputed(F))
      continue;
    ++Checked;
    const analysis::MethodAnalysis *L = Lazy->method(F);
    const analysis::MethodAnalysis *E = Eager.method(F);
    EXPECT_EQ(L == nullptr, E == nullptr) << Ctx << ": method " << F;
    if (!L || !E)
      continue;
    EXPECT_EQ(L->Cfg.numBlocks(), E->Cfg.numBlocks()) << Ctx << ": " << F;
    if (L->Cfg.numBlocks() != E->Cfg.numBlocks())
      continue;
    for (uint32_t B = 0; B < L->Cfg.numBlocks(); ++B)
      EXPECT_TRUE(L->Values.blockEntry(B) == E->Values.blockEntry(B))
          << Ctx << ": method " << F << " block " << B;
    for (uint32_t Pc = 0; Pc < M.Methods[F].Code.size(); ++Pc) {
      EXPECT_EQ(L->Values.decisionAt(Pc), E->Values.decisionAt(Pc))
          << Ctx << ": method " << F << " pc " << Pc;
      EXPECT_TRUE(L->Liveness.liveIn(Pc) == E->Liveness.liveIn(Pc))
          << Ctx << ": method " << F << " pc " << Pc;
    }
  }
  return Checked;
}

} // namespace

TEST(TraceVmTest, OnDemandFactsEqualEagerFacts) {
  // A session computes facts only for the methods its proofs touch; each
  // must be exactly what the whole-module analysis computes.
  for (const WorkloadInfo &W : allWorkloads()) {
    Module M = W.Build(W.DefaultScale);
    uint32_t Checked = expectOnDemandFactsMatch(M, VmOptions(), W.Name);
    EXPECT_GT(Checked, 0u) << W.Name;
    EXPECT_LT(Checked, M.Methods.size()) << W.Name;
  }
  std::vector<std::string> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(JTC_CORPUS_DIR))
    if (Entry.path().extension() == ".jasm")
      Files.push_back(Entry.path().string());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  uint32_t CorpusChecked = 0;
  for (const std::string &Path : Files) {
    std::string Err;
    std::optional<Module> M = parseModuleFile(Path, Err);
    ASSERT_TRUE(M) << Path << ": " << Err;
    ASSERT_TRUE(verifyModule(*M).empty()) << Path;
    // The fuzz oracle's eager grid point: traces from the first signals.
    CorpusChecked += expectOnDemandFactsMatch(
        *M,
        VmOptions().startStateDelay(1).decayInterval(32).maxInstructions(
            20'000'000),
        Path);
  }
  EXPECT_GT(CorpusChecked, 0u);
}
