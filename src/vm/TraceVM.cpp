//===- vm/TraceVM.cpp -----------------------------------------------------===//

#include "vm/TraceVM.h"

#include <cassert>
#include <type_traits>

using namespace jtc;

static_assert(!std::is_copy_constructible_v<TraceVM> &&
                  !std::is_move_constructible_v<TraceVM> &&
                  !std::is_move_assignable_v<TraceVM>,
              "the stepper, engine and backend point into the session");

TraceVM::TraceVM(const PreparedModule &PM, VmOptions Options)
    : PM(&PM), Options(Options), Mach(PM.module()), Stepper(PM, Mach),
      Engine(PM, this->Options),
      Backend(backend::makeBackend(this->Options.backend(), PM,
                                   this->Options.backendConfig())) {
#ifdef JTC_TELEMETRY
  if (this->Options.telemetry()) {
    Ring = EventRing(this->Options.telemetryCapacity(),
                     &Engine.stats().BlocksExecuted);
    Telem = &Ring;
    Engine.setTelemetry(&Ring);
    Backend->setTelemetry(&Ring);
    Sampler = PhaseSampler<VmStats>(this->Options.sampleInterval());
  }
#endif
}

void TraceVM::importSeed(const VmSeed &Seed) {
  assert(!Ran && "importSeed must precede run()");
  Engine.importSeed(Seed);
}

RunResult TraceVM::run() {
  // Single-shot contract: executing again over the dirty machine, graph
  // and cache state would silently produce garbage, so a reuse surfaces
  // as a distinct trap (and an assertion failure in checked builds).
  if (Ran) {
    assert(!Ran && "TraceVM::run is single-shot; construct a fresh VM");
    RunResult R;
    R.Status = RunStatus::Trapped;
    R.Trap = TrapKind::VmReuse;
    return R;
  }
  Ran = true;

  RunResult R;
  Stepper.start();
  BlockId Cur = Stepper.currentBlock();

  Engine.begin(Cur);
  if (Sink)
    Sink->onRunStart(Cur);

  VmStats &Stats = Engine.stats();
  while (true) {
    // A trace-cache hit hands the whole trace to the backend; this is the
    // only place a dispatched trace executes. Everything below the check
    // is the plain single-block path.
    if (const Trace *T = Engine.activeTrace()) {
      if (!runActiveTrace(*T, R))
        break;
      Cur = Stepper.currentBlock();
      continue;
    }

    BlockStepper::StepStatus S = Stepper.step(); // executes Cur
    Engine.executed(Cur);
    sampleIfDue();

    if (S != BlockStepper::StepStatus::Continue) {
      Engine.endRun();
      R.Status = S == BlockStepper::StepStatus::Finished ? RunStatus::Finished
                                                         : RunStatus::Trapped;
      R.Trap = Mach.trap();
      break;
    }
    if (Stepper.instructions() >= Options.maxInstructions()) {
      Engine.endRun();
      R.Status = RunStatus::BudgetExhausted;
      break;
    }

    BlockId Next = Stepper.currentBlock();
    if (Sink)
      Sink->onTransition(Cur, Next);
    Engine.transition(Cur, Next);
    Cur = Next;
  }

  Stats = currentStats();
  R.Instructions = Stats.Instructions;
  R.Dispatches = Stats.totalDispatches();
  if (Sink)
    Sink->onRunEnd(R, Stats);
  return R;
}

bool TraceVM::runActiveTrace(const Trace &T, RunResult &R) {
  // The main loop only reaches here with budget remaining, so the
  // subtraction cannot underflow.
  backend::TraceRunContext Ctx{*PM, Mach, Stepper,
                               Options.maxInstructions() -
                                   Stepper.instructions()};
  backend::TraceRunResult TR = Backend->run(T, Ctx);
  assert(TR.BlocksRun >= 1 && "a dispatched trace executes at least a block");

  // Every block before the last ran to its end and passed control to its
  // recorded successor; the engine accounts that prefix in one step. The
  // last block takes the live loop's per-block path, whose engine calls
  // are the only ones that can change the cache: T stays valid until
  // executed(Last) below, and every read of it happens before.
  const uint32_t Prefix = TR.BlocksRun - 1;
  Engine.advanceInTrace(Prefix);
  if (Sink)
    for (uint32_t I = 0; I < Prefix; ++I)
      Sink->onTransition(T.Blocks[I], T.Blocks[I + 1]);

  BlockId Last = T.Blocks[Prefix];
  Engine.executed(Last); // completes the trace when TR.End == Completed
  sampleIfDue();         // once per trace run, after its last block

  switch (TR.End) {
  case backend::TraceRunEnd::Finished:
  case backend::TraceRunEnd::Trapped:
    Engine.endRun();
    R.Status = TR.End == backend::TraceRunEnd::Finished ? RunStatus::Finished
                                                        : RunStatus::Trapped;
    R.Trap = Mach.trap();
    return false;
  case backend::TraceRunEnd::Budget:
    Engine.endRun();
    R.Status = RunStatus::BudgetExhausted;
    return false;
  case backend::TraceRunEnd::Completed:
  case backend::TraceRunEnd::Diverged:
    // The live loop checks the budget after executing a block and before
    // its outgoing transition; a run that ends exactly on the budget at a
    // completion/divergence boundary must end the same way here.
    if (Stepper.instructions() >= Options.maxInstructions()) {
      Engine.endRun();
      R.Status = RunStatus::BudgetExhausted;
      return false;
    }
    if (Sink)
      Sink->onTransition(Last, TR.NextBlock);
    Engine.transition(Last, TR.NextBlock);
    Stepper.resumeAt(TR.NextBlock);
    return true;
  }
  return true; // unreachable
}

VmStats TraceVM::currentStats() const {
  VmStats S = Engine.snapshotStats(Stepper.instructions());
  S.EventsDropped = Ring.dropped();
  const backend::BackendStats &BS = Backend->stats();
  S.TracesJitCompiled = BS.TracesCompiled;
  S.TraceCompileFallbacks = BS.CompileFallbacks;
  S.TraceDispatchesJit = BS.CompiledDispatches;
  S.TraceDispatchesInterp = BS.InterpDispatches;
  S.JitCodeBytes = BS.CodeBytes;
  S.MemChecksElided = BS.MemChecksElided;
  return S;
}
