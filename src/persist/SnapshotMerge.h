//===- persist/SnapshotMerge.h - Merging .jtcp profile snapshots -*- C++ -*-===//
///
/// \file
/// Deterministic merging of profile snapshots captured over the *same*
/// module by different sessions, processes or machines -- the primitive
/// under the fleet's profile-aggregation tier and the `jtcvm
/// --merge-profiles` CLI. A merged snapshot is what a freshly booted
/// shard loads so it starts disk-warm from the fleet's collective
/// profile rather than any single donor's.
///
/// Merge semantics are chosen so aggregation is safe to repeat, reorder
/// and re-apply (aggregators crash, shards double-report):
///
///  - BCG counters merge by element-wise MAX, keyed by (from, to) node
///    and per-successor correlation target. Max is commutative,
///    associative and idempotent, so merging a snapshot with itself is
///    the identity (up to canonical ordering) and the aggregation tier
///    can fold shard checkpoints in any order, any number of times.
///    Summing would double-count a shard that reported twice.
///  - Decay-epoch reconciliation: counters captured at different decay
///    phases are not directly comparable (an older capture has been
///    halved fewer times at a lower execution count). Each snapshot's
///    DonorBlocks is its decay epoch -- the donor's logical clock at
///    capture -- and the merged snapshot takes the MAX epoch; per-node
///    scalar state that cannot be averaged (start-delay remaining,
///    blocks since the last decay pass) reconciles toward the most
///    mature side: min(StartDelayLeft), max(SinceDecay), max(Execs).
///  - Traces dedup by fingerprint (entry pair + exact block sequence).
///    Duplicates keep the max of either side's Entered / Completed
///    history, and the persist layer's donor-completion filter then
///    drops traces whose merged history already failed the retirement
///    bar -- the same filter loadProfile applies on installation.
///
/// Output is canonical: nodes sorted by (from, to), correlations by
/// target block, traces by (entry, blocks). Two merges over the same
/// multiset of inputs are byte-identical however the inputs were
/// ordered.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_PERSIST_SNAPSHOTMERGE_H
#define JTC_PERSIST_SNAPSHOTMERGE_H

#include "persist/Snapshot.h"
#include "trace/TraceConfig.h"

#include <string>
#include <vector>

namespace jtc {
namespace persist {

/// The load-time donor-completion filter (shared by loadProfile and the
/// merge pipeline): true when \p T 's donor history does NOT already
/// prove it a retirement candidate under \p TC.
bool passesCompletionFilter(const TraceCache::TraceSeed &T,
                            const TraceConfig &TC);

/// Canonical ordering: nodes by (From, To) with correlations by target
/// block; traces by (EntryFrom, Blocks, Entered, Completed). merge
/// results are always canonical; canonicalizing is idempotent.
SnapshotData canonicalSnapshot(SnapshotData S);

/// What a merge did (for logs / JSON / CLI).
struct MergeReport {
  size_t Inputs = 0;
  size_t Nodes = 0;       ///< Distinct (from, to) nodes in the output.
  size_t Traces = 0;      ///< Traces kept in the output.
  size_t TracesDeduped = 0; ///< Duplicate observations folded away.
  size_t TracesDroppedByCompletion = 0;
  uint64_t Epoch = 0;     ///< Output DonorBlocks (max input epoch).
};

/// Merges \p Inputs (at least one) into \p Out under the semantics above.
/// All inputs must carry the same module fingerprint; a mismatch is a
/// typed FingerprintMismatch error and \p Out is untouched. \p TC drives
/// the donor-completion filter.
bool mergeSnapshots(const std::vector<SnapshotData> &Inputs,
                    const TraceConfig &TC, SnapshotData &Out,
                    MergeReport &Report, PersistError &Err);

/// File-level convenience: strictly loads every input .jtcp, merges, and
/// atomically writes \p OutPath. Any load failure is that file's typed
/// error with the path in the detail.
bool mergeSnapshotFiles(const std::vector<std::string> &InPaths,
                        const std::string &OutPath, const TraceConfig &TC,
                        MergeReport &Report, PersistError &Err);

} // namespace persist
} // namespace jtc

#endif // JTC_PERSIST_SNAPSHOTMERGE_H
