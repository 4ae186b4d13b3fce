//===- jtcbench/HostProbe.cpp - Host-speed probe --------------------------===//
///
/// A fixed kernel that shares no code with the VM under test: a
/// switch-dispatched loop over 4096 opcodes drawn once from a fixed
/// xorshift seed, whose operations mix arithmetic, a data-dependent
/// branch and loads and stores into a 1 MiB table. Its dispatch, branch
/// and cache behaviour resembles the block interpreter's, so it slows down
/// with the same host contention (another tenant on the sibling hardware
/// thread, cache pressure), which is what moves a batch session's time
/// from one minute to the next on a shared host. A pure arithmetic loop
/// and a pointer chase tracked that contention less well.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdint>
#include <vector>

namespace {

constexpr size_t CodeSize = 4096;
constexpr size_t DataSize = size_t(1) << 18; ///< uint32 entries: 1 MiB.
constexpr int Rounds = 1000;

struct Kernel {
  std::vector<uint8_t> Code;
  std::vector<uint32_t> Data;

  Kernel() : Code(CodeSize), Data(DataSize) {
    uint64_t X = 88172645463325252ull;
    auto Next = [&X] {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
      return X;
    };
    for (uint8_t &C : Code)
      C = static_cast<uint8_t>(Next() % 8);
    for (uint32_t &D : Data)
      D = static_cast<uint32_t>(Next());
  }

  uint64_t run() {
    const size_t Mask = DataSize - 1;
    uint64_t A = 1, B = 2;
    for (int R = 0; R < Rounds; ++R) {
      for (size_t I = 0; I < CodeSize; ++I) {
        switch (Code[I]) {
        case 0: A += B; break;
        case 1: B ^= A >> 3; break;
        case 2: A = Data[(A ^ I) & Mask]; break;
        case 3: B = (A & 1) ? B + 7 : B - 3; break;
        case 4: Data[B & Mask] = static_cast<uint32_t>(A); break;
        case 5: A *= 2654435761u; break;
        case 6: B = A + I; break;
        default: A ^= B; break;
        }
      }
    }
    return A + B;
  }
};

volatile uint64_t Sink;

} // namespace

double jtcbench::hostProbe() {
  static Kernel K;
  double T0 = threadCpuSeconds();
  Sink = K.run();
  return threadCpuSeconds() - T0;
}
