//===- vm/AdaptiveEngine.h - The adaptive state machine ---------*- C++ -*-===//
///
/// \file
/// The profiler + trace-cache state machine of TraceVM, factored out of
/// the execution loop so it can be driven by *any* source of block
/// transitions: the live BlockStepper (TraceVM::run) or a decoded btrace
/// stream (btrace replay). Both drivers make the same calls in the same
/// order -- begin(entry), then executed(block) / transition(from, to) per
/// step, then endRun() -- so a replayed session recomputes bit-identical
/// profiler, trace-cache and VmStats state from nothing but the recorded
/// control flow. That determinism is what makes a captured production
/// stream a reproducible benchmark.
///
/// The engine owns everything adaptive (branch correlation graph, trace
/// cache, statistics, active-trace tracking); it knows nothing about the
/// Machine, the Stepper, or instruction execution. The live driver may
/// also account the matched prefix of a dispatched trace in one
/// advanceInTrace() call instead of executed/transition per block; the
/// result is identical, and btrace replay (which always drives block by
/// block) is the reference it is checked against.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_VM_ADAPTIVEENGINE_H
#define JTC_VM_ADAPTIVEENGINE_H

#include "interp/PreparedModule.h"
#include "profile/BranchCorrelationGraph.h"
#include "telemetry/EventRing.h"
#include "trace/TraceCache.h"
#include "vm/VmOptions.h"
#include "vm/VmStats.h"

#include <cassert>
#include <memory>
#include <vector>

namespace jtc {

namespace analysis {
class ModuleAnalysis;
} // namespace analysis

/// Portable profiler + trace-cache state captured from a mature session
/// (the donor) and imported into a fresh session over the same
/// PreparedModule, so the new session skips the start-state delay and the
/// trace-construction warmup the paper measures. Block ids are module-
/// relative, so a seed is only meaningful for an identically prepared
/// module.
struct VmSeed {
  std::vector<BcgNodeSnapshot> Nodes;
  std::vector<TraceCache::TraceSeed> Traces;

  bool empty() const { return Nodes.empty() && Traces.empty(); }
};

/// The adaptive half of one VM session, driven by a block-transition
/// stream. See the file comment for the driver contract.
class AdaptiveEngine {
public:
  /// \p PM and \p Options must outlive the engine.
  AdaptiveEngine(const PreparedModule &PM, const VmOptions &Options);
  ~AdaptiveEngine();

  // The cache hooks and the graph's signal sink point back into the
  // engine, so it stays where it was built.
  AdaptiveEngine(const AdaptiveEngine &) = delete;
  AdaptiveEngine &operator=(const AdaptiveEngine &) = delete;

  /// Attaches the telemetry ring (propagated to the profiler and cache);
  /// null detaches.
  void setTelemetry(EventRing *R);

  /// The entry block is about to execute: the initial block dispatch.
  void begin(BlockId Entry);

  /// \p Cur was just executed: trace accounting and completion detection.
  void executed(BlockId Cur) {
    ++Stats.BlocksExecuted;
    if (Active) {
      ++Stats.BlocksInTraces;
      Stats.InstructionsInTraces += PM->blockSize(Cur);
      if (TracePos + 1 == Active->Blocks.size())
        completeActiveTrace(); // the trace's last block just ran
    }
  }

  /// Control passed from \p Cur to \p Next: match against the active
  /// trace or run the profiler hook + trace-entry lookup.
  void transition(BlockId Cur, BlockId Next) {
    if (Active && Next == Active->Blocks[TracePos + 1]) {
      ++TracePos; // matched; stay inside the trace, no hook, no dispatch
      return;
    }
    transitionSlow(Cur, Next);
  }

  /// The next \p Blocks blocks of the active trace executed and each
  /// passed control to its recorded successor: exactly what that many
  /// executed()/transition() pairs would account, in O(1). The trace's
  /// final block is never part of such a prefix (it goes through
  /// executed(), which detects completion).
  void advanceInTrace(uint32_t Blocks) {
    assert(Active && TracePos + Blocks < Active->Blocks.size() &&
           "prefix must stop before the trace's last block");
    Stats.BlocksExecuted += Blocks;
    Stats.BlocksInTraces += Blocks;
    Stats.InstructionsInTraces += Active->InstrBefore[TracePos + Blocks] -
                                  Active->InstrBefore[TracePos];
    TracePos += Blocks;
  }

  /// The run ended (finish, trap or budget); an active trace is exited
  /// early.
  void endRun();

  /// The statistics with the live profiler and cache counters folded in;
  /// \p Instructions is supplied by the driver (the stepper's count, or
  /// the recorded count during replay).
  VmStats snapshotStats(uint64_t Instructions) const;

  /// Captures the session's profiler counters and live traces for warm
  /// handoff into a fresh session over the same PreparedModule.
  VmSeed exportSeed() const;

  /// Adopts a donor session's profile (see TraceVM::importSeed).
  void importSeed(const VmSeed &Seed);

  VmStats &stats() { return Stats; }
  const VmStats &stats() const { return Stats; }

  /// The trace the engine just entered (set by transition() on a trace-
  /// cache hit, cleared on completion/divergence). TraceVM consults this
  /// at the top of its loop to hand the whole trace to the TraceBackend
  /// instead of stepping block by block. The pointer is owned by the
  /// trace cache and is invalidated by the cache mutation at the end of
  /// the trace's execution -- callers must not hold it across
  /// completeActiveTrace / exitActiveTraceEarly.
  const Trace *activeTrace() const { return Active; }
  const BranchCorrelationGraph &graph() const { return Graph; }
  const TraceCache &traceCache() const { return Cache; }

  /// The module facts this session computed (null: none). Facts are
  /// computed per method, only for proofs the module's memo missed.
  const analysis::ModuleAnalysis *moduleFacts() const { return Facts.get(); }

private:
  /// transition() when no trace is active or \p Next leaves the active
  /// trace.
  void transitionSlow(BlockId Cur, BlockId Next);

  /// Handles the transition (\p Cur -> \p Next) when not inside a trace:
  /// profiler hook, then trace-entry lookup.
  void onNonTraceTransition(BlockId Cur, BlockId Next);

  /// Records completion of the active trace and leaves trace mode.
  void completeActiveTrace();

  /// Leaves trace mode after a divergence; \p BlocksRun blocks of the
  /// trace actually executed.
  void exitActiveTraceEarly(uint32_t BlocksRun);

  /// The TraceCache validation hook (--validate != off): re-runs the
  /// optimizer on \p T's linearized form and proves the result a sound
  /// refinement of the source bytecode (validate::validateTrace), unless
  /// the module's proof memo already holds the verdict. Under
  /// --validate=strict a rejection, proved or remembered, aborts the
  /// process.
  TraceCache::ValidationVerdict validateCandidate(const Trace &T);

  /// The TraceCache annotation hook (memElide on): records the heap
  /// accesses whose dynamic checks are provably redundant on \p T's path,
  /// for both execution tiers to skip -- from the module's proof memo, or
  /// by running the alias analysis over the block sequence
  /// (analysis::analyzeTraceMemory).
  void annotateCandidate(Trace &T);

  /// The session's module facts, created on the first proof the memo
  /// missed (never on the dispatch path).
  const analysis::ModuleAnalysis &facts();

  const PreparedModule *PM;
  const VmOptions *Options;
  BranchCorrelationGraph Graph;
  TraceCache Cache;
  VmStats Stats;
  EventRing *Telem = nullptr;
  /// Dataflow facts for validation and annotation, computed per method on
  /// first use.
  std::unique_ptr<analysis::ModuleAnalysis> Facts;
  /// Per trace id: the graph node of the trace's final block pair,
  /// resolved on its first completion. Nodes are never removed, so the id
  /// stays valid for the session and later completions skip the pair
  /// lookup when resynchronizing the profiler context.
  std::vector<NodeId> CompletionNode;

  // Active-trace state.
  const Trace *Active = nullptr;
  uint32_t TracePos = 0; ///< Index in Active->Blocks of the current block.
  /// Set after an early trace exit: the divergent transition is not
  /// profiled (see onNonTraceTransition).
  bool SkipHookOnce = false;
};

} // namespace jtc

#endif // JTC_VM_ADAPTIVEENGINE_H
