//===- interp/ThreadedInterpreter.h - Whole-run block engine ----*- C++ -*-===//
///
/// \file
/// A whole-run entry point over the block executor: ThreadedProgram runs a
/// prepared module from a fresh Machine through runBlocks (or
/// runBlocksWithHook, with the branch-correlation-graph hook at every
/// block dispatch) and returns the outcome together with the program's
/// output. It is what the wall-clock experiments (paper Tables VI and VII)
/// time, so they measure the block path TraceVM ships.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_THREADEDINTERPRETER_H
#define JTC_INTERP_THREADEDINTERPRETER_H

#include "interp/PreparedModule.h"
#include "interp/RunResult.h"
#include "profile/BranchCorrelationGraph.h"
#include "runtime/Trap.h"

#include <cstdint>
#include <vector>

namespace jtc {

/// Outcome of a threaded run.
struct ThreadedResult {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  uint64_t Instructions = 0;    ///< Instructions executed.
  uint64_t BlockDispatches = 0; ///< Block entries, as in the Fig. 2 model.
  std::vector<int64_t> Output;  ///< Iprint values, in order.
};

/// Runs a prepared module, each run() on a fresh Machine.
class ThreadedProgram {
public:
  /// The PreparedModule must outlive this object.
  explicit ThreadedProgram(const PreparedModule &PM) : PM(&PM) {}

  /// Runs to completion with no profiling.
  ThreadedResult run(uint64_t MaxInstructions = ~0ull) const;

  /// Runs with the branch-correlation-graph hook executed at every block
  /// dispatch (the paper's Table VI configuration).
  ThreadedResult runProfiled(BranchCorrelationGraph &Graph,
                             uint64_t MaxInstructions = ~0ull) const;

private:
  const PreparedModule *PM;
};

} // namespace jtc

#endif // JTC_INTERP_THREADEDINTERPRETER_H
