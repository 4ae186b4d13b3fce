//===- analysis/SessionAnalysis.h - One analysis per session ----*- C++ -*-===//
///
/// \file
/// The ModuleAnalysis of one VM session, computed on first use. Every
/// consumer in a session -- translation validation, elision annotation,
/// JIT lowering -- borrows the same holder, so the whole-module dataflow
/// runs at most once per session and only when some consumer needs it.
/// The holder sits below the vm and backend layers so both can borrow it
/// without depending on each other.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_ANALYSIS_SESSIONANALYSIS_H
#define JTC_ANALYSIS_SESSIONANALYSIS_H

#include <memory>

namespace jtc {

struct Module;

namespace analysis {

class ModuleAnalysis;

class SessionAnalysis {
public:
  /// \p M must outlive the holder and must be structurally verified.
  explicit SessionAnalysis(const Module &M);
  ~SessionAnalysis();

  // Consumers hold references to the holder.
  SessionAnalysis(const SessionAnalysis &) = delete;
  SessionAnalysis &operator=(const SessionAnalysis &) = delete;

  /// The module's analysis, computing it on the first call.
  const ModuleAnalysis &get();

  /// How many times get() ran the analysis (0 or 1).
  unsigned computeCount() const { return Computes; }

private:
  const Module *M;
  std::unique_ptr<ModuleAnalysis> A;
  unsigned Computes = 0;
};

} // namespace analysis
} // namespace jtc

#endif // JTC_ANALYSIS_SESSIONANALYSIS_H
