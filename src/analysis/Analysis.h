//===- analysis/Analysis.h - Umbrella + per-module bundle -------*- C++ -*-===//
///
/// \file
/// Convenience entry point: ModuleAnalysis computes and owns the CFG,
/// value facts and liveness for the methods of a module plus the
/// call-graph effect summaries, all at once or each method on first use.
/// Requires a module that already passed the structural + height verifier
/// pass (see bytecode/Verifier.h); building analyses over malformed code
/// is undefined.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_ANALYSIS_H
#define JTC_ANALYSIS_ANALYSIS_H

#include "analysis/Alias.h"
#include "analysis/Cfg.h"
#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "analysis/Liveness.h"
#include "analysis/Summaries.h"
#include "analysis/TypeCheck.h"
#include "analysis/Value.h"
#include "analysis/ValueAnalysis.h"

#include <cassert>
#include <memory>
#include <optional>
#include <vector>

namespace jtc {
namespace analysis {

/// All facts for one method. Owns the CFG the fact objects point into.
struct MethodAnalysis {
  explicit MethodAnalysis(const Module &M, uint32_t MethodId)
      : Cfg(M, MethodId), Values(MethodValueFacts::compute(Cfg)),
        Liveness(LivenessFacts::compute(Cfg)) {}

  MethodCfg Cfg;
  MethodValueFacts Values;
  LivenessFacts Liveness;
};

/// Facts for the methods of a module: all of them (compute), or each on
/// its first use (onDemand).
class ModuleAnalysis {
public:
  /// Every method's facts and the call-graph summaries, computed now.
  /// \p M must outlive the result and must be structurally verified. The
  /// result is immutable and may be read from any number of threads.
  static ModuleAnalysis compute(const Module &M) {
    ModuleAnalysis A(M);
    for (uint32_t F = 0; F < A.numMethods(); ++F)
      A.method(F);
    A.summaries();
    return A;
  }

  /// Nothing computed yet: method() and summaries() compute what they are
  /// asked for on first use, with results equal to compute()'s. Not
  /// thread-safe; one VM session owns one. Traces touch a small share of
  /// a module's methods, and only those pay for their facts.
  static ModuleAnalysis onDemand(const Module &M) { return ModuleAnalysis(M); }

  /// Null for (malformed) empty methods.
  const MethodAnalysis *method(uint32_t Id) const {
    assert(Id < Done.size() && "invalid method");
    if (!Done[Id]) {
      Done[Id] = true;
      if (!M->Methods[Id].Code.empty()) {
        PerMethod[Id] = std::make_unique<MethodAnalysis>(*M, Id);
        ++Computed;
      }
    }
    return PerMethod[Id].get();
  }
  uint32_t numMethods() const {
    return static_cast<uint32_t>(PerMethod.size());
  }
  const ModuleSummaries &summaries() const {
    if (!Effects)
      Effects = ModuleSummaries::compute(*M);
    return *Effects;
  }

  /// How many methods' facts have been computed so far.
  uint32_t methodsComputed() const { return Computed; }
  /// Whether method(\p Id) has run.
  bool isComputed(uint32_t Id) const { return Done[Id]; }

private:
  explicit ModuleAnalysis(const Module &Mod)
      : M(&Mod), PerMethod(Mod.Methods.size()), Done(Mod.Methods.size()) {}

  const Module *M;
  // Filled on first use, hence mutable. unique_ptr keeps each
  // MethodAnalysis at a stable address; the fact objects hold pointers
  // into their sibling Cfg.
  mutable std::vector<std::unique_ptr<MethodAnalysis>> PerMethod;
  mutable std::vector<bool> Done;
  mutable std::optional<ModuleSummaries> Effects;
  mutable uint32_t Computed = 0;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_ANALYSIS_H
