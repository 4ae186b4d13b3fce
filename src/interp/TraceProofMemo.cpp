//===- interp/TraceProofMemo.cpp ------------------------------------------===//

#include "interp/TraceProofMemo.h"

#include <mutex>

using namespace jtc;

namespace {

/// The entry of \p Map matching the trace, or null. \p Extra compares the
/// key fields beyond the block sequence.
template <typename MapT, typename ExtraFn>
const typename MapT::mapped_type *find(const MapT &Map, uint64_t Hash,
                                       BlockId EntryFrom,
                                       const std::vector<BlockId> &Blocks,
                                       ExtraFn Extra) {
  auto [Lo, Hi] = Map.equal_range(Hash);
  for (auto It = Lo; It != Hi; ++It)
    if (It->second.EntryFrom == EntryFrom && It->second.Blocks == Blocks &&
        Extra(It->second))
      return &It->second;
  return nullptr;
}

} // namespace

const ValidationProof *
TraceProofMemo::findValidation(BlockId EntryFrom,
                               const std::vector<BlockId> &Blocks,
                               uint64_t ConfigKey) const {
  uint64_t H = traceFingerprint(EntryFrom, Blocks);
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  const ValidationEntry *E =
      find(Validations, H, EntryFrom, Blocks, [ConfigKey](const auto &V) {
        return V.ConfigKey == ConfigKey;
      });
  return E ? &E->Proof : nullptr;
}

void TraceProofMemo::addValidation(BlockId EntryFrom,
                                   const std::vector<BlockId> &Blocks,
                                   uint64_t ConfigKey, ValidationProof P) {
  uint64_t H = traceFingerprint(EntryFrom, Blocks);
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  // Two sessions may prove the same trace concurrently; the proofs are
  // equal, so the first one stored wins.
  if (Validations.size() + Elisions.size() >= MaxEntries ||
      find(Validations, H, EntryFrom, Blocks, [ConfigKey](const auto &V) {
        return V.ConfigKey == ConfigKey;
      }))
    return;
  Validations.emplace(H,
                      ValidationEntry{EntryFrom, Blocks, ConfigKey, std::move(P)});
}

const std::vector<MemElision> *
TraceProofMemo::findElisions(BlockId EntryFrom,
                             const std::vector<BlockId> &Blocks) const {
  uint64_t H = traceFingerprint(EntryFrom, Blocks);
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  const ElisionEntry *E =
      find(Elisions, H, EntryFrom, Blocks, [](const auto &) { return true; });
  return E ? &E->Elisions : nullptr;
}

void TraceProofMemo::addElisions(BlockId EntryFrom,
                                 const std::vector<BlockId> &Blocks,
                                 std::vector<MemElision> E) {
  uint64_t H = traceFingerprint(EntryFrom, Blocks);
  std::unique_lock<std::shared_mutex> Lock(Mutex);
  if (Validations.size() + Elisions.size() >= MaxEntries ||
      find(Elisions, H, EntryFrom, Blocks, [](const auto &) { return true; }))
    return;
  Elisions.emplace(H, ElisionEntry{EntryFrom, Blocks, std::move(E)});
}

size_t TraceProofMemo::size() const {
  std::shared_lock<std::shared_mutex> Lock(Mutex);
  return Validations.size() + Elisions.size();
}
