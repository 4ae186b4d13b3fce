//===- interp/ThreadedInterpreter.cpp -------------------------------------===//

#include "interp/ThreadedInterpreter.h"

#include "interp/BlockStepper.h"

using namespace jtc;

namespace {

template <typename HookT>
ThreadedResult runWith(const PreparedModule &PM, HookT &&OnDispatch,
                       uint64_t MaxInstructions) {
  Machine Mach(PM.module());
  BlockStepper Stepper(PM, Mach);
  RunResult R = runBlocksWithHook(Stepper, OnDispatch, MaxInstructions);
  ThreadedResult TR;
  TR.Status = R.Status;
  TR.Trap = R.Trap;
  TR.Instructions = R.Instructions;
  TR.BlockDispatches = R.Dispatches;
  TR.Output = Mach.output();
  return TR;
}

} // namespace

ThreadedResult ThreadedProgram::run(uint64_t MaxInstructions) const {
  return runWith(*PM, [](BlockId) {}, MaxInstructions);
}

ThreadedResult ThreadedProgram::runProfiled(BranchCorrelationGraph &Graph,
                                            uint64_t MaxInstructions) const {
  return runWith(
      *PM, [&Graph](BlockId B) { Graph.onBlockDispatch(B); },
      MaxInstructions);
}
