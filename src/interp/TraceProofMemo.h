//===- interp/TraceProofMemo.h - Per-module trace proof memo ----*- C++ -*-===//
///
/// \file
/// What a session proves about a trace depends only on the module and the
/// trace's shape, so sessions over one PreparedModule can share it. The
/// memo keeps two such proofs, each computed by the first session that
/// constructs (or is seeded with) the trace:
///
///  - the translation-validation verdict, keyed by (EntryFrom, Blocks,
///    optimizer configuration key): a verdict holds only for the
///    configuration it was proved under;
///  - the alias analysis' MemElision list, keyed by (EntryFrom, Blocks).
///
/// Lookups hash the trace fingerprint (traceFingerprint) and confirm exact
/// block equality. The memo is append-only and thread-safe: entries are
/// never changed or removed, so a returned pointer stays valid for the
/// memo's lifetime. It holds at most a fixed number of entries; past that
/// budget proofs are simply recomputed by each session that needs them.
/// A miss and a hit yield the same proof, so the memo never changes
/// behaviour, only cost.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_INTERP_TRACEPROOFMEMO_H
#define JTC_INTERP_TRACEPROOFMEMO_H

#include "trace/Trace.h" // header-only PODs; no link edge

#include <cstddef>
#include <cstdint>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace jtc {

/// A translation-validation verdict, with what a rejection reports.
/// ReasonCode is a validate::Reason, opaque below the validator.
struct ValidationProof {
  bool Accepted = true;
  uint32_t ReasonCode = 0;
  uint32_t SegmentIndex = 0; ///< First failing segment (rejections).
  std::string Detail;        ///< The validator's specifics (rejections).
};

class TraceProofMemo {
public:
  /// Entries (both maps together) every PreparedModule's memo may hold.
  static constexpr size_t ModuleBudget = size_t(1) << 15;

  explicit TraceProofMemo(size_t MaxEntries = ModuleBudget)
      : MaxEntries(MaxEntries) {}

  TraceProofMemo(const TraceProofMemo &) = delete;
  TraceProofMemo &operator=(const TraceProofMemo &) = delete;

  /// The stored verdict for the trace under configuration \p ConfigKey,
  /// or null.
  const ValidationProof *findValidation(BlockId EntryFrom,
                                        const std::vector<BlockId> &Blocks,
                                        uint64_t ConfigKey) const;

  /// Stores \p P unless an equal key is already present or the budget is
  /// spent.
  void addValidation(BlockId EntryFrom, const std::vector<BlockId> &Blocks,
                     uint64_t ConfigKey, ValidationProof P);

  /// The stored elision list for the trace, or null.
  const std::vector<MemElision> *
  findElisions(BlockId EntryFrom, const std::vector<BlockId> &Blocks) const;

  /// Stores \p E unless the trace is already present or the budget is
  /// spent.
  void addElisions(BlockId EntryFrom, const std::vector<BlockId> &Blocks,
                   std::vector<MemElision> E);

  /// Entries held, and the most it will hold.
  size_t size() const;
  size_t budget() const { return MaxEntries; }

private:
  struct ValidationEntry {
    BlockId EntryFrom;
    std::vector<BlockId> Blocks;
    uint64_t ConfigKey;
    ValidationProof Proof;
  };
  struct ElisionEntry {
    BlockId EntryFrom;
    std::vector<BlockId> Blocks;
    std::vector<MemElision> Elisions;
  };

  const size_t MaxEntries;
  mutable std::shared_mutex Mutex;
  // Node-based, so entries stay put across rehashes. Keyed by fingerprint.
  std::unordered_multimap<uint64_t, ValidationEntry> Validations;
  std::unordered_multimap<uint64_t, ElisionEntry> Elisions;
};

} // namespace jtc

#endif // JTC_INTERP_TRACEPROOFMEMO_H
