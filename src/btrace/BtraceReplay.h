//===- btrace/BtraceReplay.h - Deterministic stream replay ------*- C++ -*-===//
///
/// \file
/// Deterministic re-execution of a captured session's *adaptive*
/// behaviour from nothing but the .btc stream and the module. The
/// decoded block sequence drives an AdaptiveEngine block by block
/// (executed/transition per block) -- same options, same warm-start
/// seed, same transition order -- so the profiler, the trace cache and
/// every VmStats counter recompute bit-identically. The live TraceVM
/// accounts each trace run's matched prefix in one step instead; replay
/// is the per-block reference that shortcut must match. The replayed
/// stats digest is compared against the digest the encoder recorded at
/// run end: a match proves the stream captured everything the adaptive
/// machinery depended on; a mismatch means the stream, the module or the
/// engine diverged (which the fuzzer treats as a found bug).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BTRACE_BTRACEREPLAY_H
#define JTC_BTRACE_BTRACEREPLAY_H

#include "btrace/BtraceDecoder.h"
#include "vm/VmStats.h"

namespace jtc {
namespace btrace {

/// Outcome of a successful replay (decode + engine drive).
struct ReplayResult {
  BtraceHeader Header;
  BtraceEnd End;
  VmStats Stats;             ///< Recomputed by the replay engine.
  uint64_t ReplayDigest = 0; ///< Stats.digest().
  bool DigestMatch = false;  ///< ReplayDigest == End.StatsDigest.
  uint64_t BlocksWalked = 0;
  size_t SeedNodes = 0;  ///< Warm-start seed contents, when present.
  size_t SeedTraces = 0;
};

/// Replays \p Data over \p PM. Returns true with \p Out filled when the
/// stream decodes cleanly and the engine consumed it (DigestMatch still
/// reports whether the stats matched); false with a typed \p Err when
/// the stream is unusable (decode failure, or an embedded seed that does
/// not validate against \p PM).
bool replayBtrace(const uint8_t *Data, size_t Size, const PreparedModule &PM,
                  ReplayResult &Out, persist::PersistError &Err);

} // namespace btrace
} // namespace jtc

#endif // JTC_BTRACE_BTRACEREPLAY_H
