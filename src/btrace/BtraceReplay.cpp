//===- btrace/BtraceReplay.cpp --------------------------------------------===//

#include "btrace/BtraceReplay.h"

#include "persist/Snapshot.h"
#include "vm/AdaptiveEngine.h"

using namespace jtc;
using namespace jtc::btrace;
using persist::PersistError;
using persist::PersistErrorKind;

bool btrace::replayBtrace(const uint8_t *Data, size_t Size,
                          const PreparedModule &PM, ReplayResult &Out,
                          PersistError &Err) {
  // Parse the header first: the engine must exist (configured and
  // seeded) before the walk starts feeding it transitions.
  BtraceHeader H;
  size_t HeaderSize = 0;
  if (!decodeHeader(Data, Size, H, HeaderSize, Err))
    return false;

  VmOptions Options = H.toOptions();
  AdaptiveEngine Engine(PM, Options);

  ReplayResult R;
  if (H.hasSeed()) {
    persist::SnapshotData SD;
    if (!persist::decodeSnapshot(H.Seed.data(), H.Seed.size(), SD, Err))
      return false;
    if (SD.Fingerprint != H.Fingerprint) {
      Err = PersistError::make(
          PersistErrorKind::FingerprintMismatch,
          "embedded seed was captured over a different module");
      return false;
    }
    if (!persist::validateSeed(SD.Seed, PM, Err))
      return false;
    // Verbatim install: the capture exported exactly the state the live
    // session started from, so no completion filtering here -- filtering
    // again would diverge from the run being replayed.
    Engine.importSeed(SD.Seed);
    R.SeedNodes = SD.Seed.Nodes.size();
    R.SeedTraces = SD.Seed.Traces.size();
  }

  SuccessorTable ST(PM);
  bool First = true;
  BlockId Prev = InvalidBlockId;
  uint64_t Walked = 0;
  auto Drive = [&](BlockId B) {
    // The exact call sequence of TraceVM::run: begin(entry), then
    // executed(cur) before each transition(cur, next).
    if (First) {
      Engine.begin(B);
      First = false;
    } else {
      Engine.transition(Prev, B);
    }
    Engine.executed(B);
    Prev = B;
    ++Walked;
  };
  if (!decodeBtrace(Data, Size, PM, ST, R.Header, R.End, Drive, Err))
    return false;
  Engine.endRun();

  R.Stats = Engine.snapshotStats(R.End.Instructions);
  R.ReplayDigest = R.Stats.digest();
  R.DigestMatch = R.ReplayDigest == R.End.StatsDigest;
  R.BlocksWalked = Walked;
  Out = std::move(R);
  Err = PersistError();
  return true;
}
