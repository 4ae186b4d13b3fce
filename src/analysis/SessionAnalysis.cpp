//===- analysis/SessionAnalysis.cpp ---------------------------------------===//

#include "analysis/SessionAnalysis.h"

#include "analysis/Analysis.h"

using namespace jtc;
using namespace jtc::analysis;

SessionAnalysis::SessionAnalysis(const Module &M) : M(&M) {}

SessionAnalysis::~SessionAnalysis() = default;

const ModuleAnalysis &SessionAnalysis::get() {
  if (!A) {
    A = std::make_unique<ModuleAnalysis>(ModuleAnalysis::compute(*M));
    ++Computes;
  }
  return *A;
}
