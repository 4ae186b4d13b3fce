//===- persist/SnapshotMerge.cpp ------------------------------------------===//

#include "persist/SnapshotMerge.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>

using namespace jtc;
using namespace jtc::persist;

bool persist::passesCompletionFilter(const TraceCache::TraceSeed &T,
                                     const TraceConfig &TC) {
  double Observed = T.Entered == 0
                        ? 1.0
                        : static_cast<double>(T.Completed) /
                              static_cast<double>(T.Entered);
  double Bar = TC.CompletionThreshold - TC.RetirementMargin;
  return !(T.Entered >= TC.RetirementCheckEntries && Observed < Bar);
}

namespace {

bool traceLess(const TraceCache::TraceSeed &A, const TraceCache::TraceSeed &B) {
  return std::tie(A.EntryFrom, A.Blocks, A.Entered, A.Completed,
                  A.ExpectedCompletion) <
         std::tie(B.EntryFrom, B.Blocks, B.Entered, B.Completed,
                  B.ExpectedCompletion);
}

} // namespace

SnapshotData persist::canonicalSnapshot(SnapshotData S) {
  for (BcgNodeSnapshot &N : S.Seed.Nodes)
    std::sort(N.Corrs.begin(), N.Corrs.end());
  std::sort(S.Seed.Nodes.begin(), S.Seed.Nodes.end(),
            [](const BcgNodeSnapshot &A, const BcgNodeSnapshot &B) {
              return std::tie(A.From, A.To) < std::tie(B.From, B.To);
            });
  std::sort(S.Seed.Traces.begin(), S.Seed.Traces.end(), traceLess);
  return S;
}

bool persist::mergeSnapshots(const std::vector<SnapshotData> &Inputs,
                             const TraceConfig &TC, SnapshotData &Out,
                             MergeReport &Report, PersistError &Err) {
  if (Inputs.empty()) {
    Err = PersistError::make(PersistErrorKind::Malformed,
                             "merge needs at least one snapshot");
    return false;
  }
  const uint64_t Fingerprint = Inputs.front().Fingerprint;
  for (const SnapshotData &S : Inputs)
    if (S.Fingerprint != Fingerprint) {
      std::ostringstream OS;
      OS << "snapshot fingerprints " << std::hex << Fingerprint << " and "
         << S.Fingerprint << " were captured over different modules";
      Err = PersistError::make(PersistErrorKind::FingerprintMismatch,
                               OS.str());
      return false;
    }

  Report = MergeReport();
  Report.Inputs = Inputs.size();

  // Node merge: element-wise max, most-mature-side scalar reconciliation.
  std::map<std::pair<BlockId, BlockId>, BcgNodeSnapshot> Nodes;
  for (const SnapshotData &S : Inputs) {
    for (const BcgNodeSnapshot &N : S.Seed.Nodes) {
      auto [It, Fresh] = Nodes.try_emplace({N.From, N.To}, N);
      if (Fresh)
        continue;
      BcgNodeSnapshot &M = It->second;
      M.StartDelayLeft = std::min(M.StartDelayLeft, N.StartDelayLeft);
      M.SinceDecay = std::max(M.SinceDecay, N.SinceDecay);
      M.Execs = std::max(M.Execs, N.Execs);
      std::map<BlockId, uint16_t> Corrs(M.Corrs.begin(), M.Corrs.end());
      for (const auto &[Target, Count] : N.Corrs) {
        uint16_t &Slot = Corrs[Target];
        Slot = std::max(Slot, Count);
      }
      M.Corrs.assign(Corrs.begin(), Corrs.end());
    }
  }

  // Trace dedup by structural fingerprint, history merged by max so a
  // doubly reported observation is counted once.
  std::map<uint64_t, TraceCache::TraceSeed> Traces;
  for (const SnapshotData &S : Inputs) {
    for (const TraceCache::TraceSeed &T : S.Seed.Traces) {
      auto [It, Fresh] =
          Traces.try_emplace(traceFingerprint(T.EntryFrom, T.Blocks), T);
      if (Fresh)
        continue;
      TraceCache::TraceSeed &M = It->second;
      ++Report.TracesDeduped;
      M.Entered = std::max(M.Entered, T.Entered);
      M.Completed = std::max(M.Completed, T.Completed);
      M.ExpectedCompletion = std::max(M.ExpectedCompletion,
                                      T.ExpectedCompletion);
    }
  }

  SnapshotData Merged;
  Merged.Fingerprint = Fingerprint;
  for (const SnapshotData &S : Inputs)
    Merged.DonorBlocks = std::max(Merged.DonorBlocks, S.DonorBlocks);
  Merged.Seed.Nodes.reserve(Nodes.size());
  for (auto &[Key, N] : Nodes)
    Merged.Seed.Nodes.push_back(std::move(N));
  Merged.Seed.Traces.reserve(Traces.size());
  for (auto &[Key, T] : Traces) {
    if (!passesCompletionFilter(T, TC)) {
      ++Report.TracesDroppedByCompletion;
      continue;
    }
    Merged.Seed.Traces.push_back(std::move(T));
  }

  Out = canonicalSnapshot(std::move(Merged));
  Report.Nodes = Out.Seed.Nodes.size();
  Report.Traces = Out.Seed.Traces.size();
  Report.Epoch = Out.DonorBlocks;
  return true;
}

bool persist::mergeSnapshotFiles(const std::vector<std::string> &InPaths,
                                 const std::string &OutPath,
                                 const TraceConfig &TC, MergeReport &Report,
                                 PersistError &Err) {
  std::vector<SnapshotData> Inputs;
  Inputs.reserve(InPaths.size());
  for (const std::string &Path : InPaths) {
    SnapshotData S;
    if (!loadSnapshotFile(Path, S, Err)) {
      Err.Detail = Path + ": " + Err.Detail;
      return false;
    }
    Inputs.push_back(std::move(S));
  }
  SnapshotData Out;
  if (!mergeSnapshots(Inputs, TC, Out, Report, Err))
    return false;
  return saveSnapshotFile(Out, OutPath, Err);
}
