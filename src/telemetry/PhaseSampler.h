//===- telemetry/PhaseSampler.h - Stats time-series sampling ----*- C++ -*-===//
///
/// \file
/// Periodic snapshots of a counter-bearing stats struct, making program
/// phases visible: warmup (trace construction, signal bursts) vs. steady
/// state (near-pure trace dispatch) show up as changing per-interval
/// deltas. The sampler is a template over the stats type so the telemetry
/// library does not depend on the VM layer above it; the VM instantiates
/// PhaseSampler<VmStats>.
///
/// The stats type must expose a static fields() table whose entries carry
/// a nullable `Counter` pointer-to-member (VmStats::fields() is the model;
/// non-counter entries are ignored). Each sample stores both the
/// cumulative snapshot and the per-interval delta of every counter;
/// derived-metric methods evaluated on the delta snapshot yield
/// per-interval rates (e.g. coverage within the window).
///
//===----------------------------------------------------------------------===//

#ifndef JTC_TELEMETRY_PHASESAMPLER_H
#define JTC_TELEMETRY_PHASESAMPLER_H

#include <cstdint>
#include <vector>

namespace jtc {

template <typename StatsT> struct PhaseSample {
  uint64_t Clock = 0;     ///< Logical clock (blocks executed) at the sample.
  StatsT Cumulative{};    ///< Snapshot at the sample point.
  StatsT Delta{};         ///< Counter changes since the previous sample.
};

template <typename StatsT> class PhaseSampler {
public:
  /// A default-constructed (or interval-0) sampler is disabled.
  PhaseSampler() = default;
  explicit PhaseSampler(uint64_t Interval)
      : Interval(Interval), NextAt(Interval) {}

  bool enabled() const { return Interval != 0; }
  uint64_t interval() const { return Interval; }

  /// The clock value at (or past) which the next sample is due; the VM
  /// compares BlocksExecuted against this after every block it steps and
  /// after every trace run, so a sample can land past this point by up to
  /// one trace's length.
  uint64_t nextSampleAt() const { return NextAt; }

  /// Takes one sample. \p Cur must be a complete snapshot (the VM
  /// assembles one with live profiler/cache counters folded in).
  void sample(uint64_t Clock, const StatsT &Cur) {
    PhaseSample<StatsT> S;
    S.Clock = Clock;
    S.Cumulative = Cur;
    S.Delta = Cur;
    for (const auto &F : StatsT::fields())
      if (F.Counter)
        S.Delta.*(F.Counter) = Cur.*(F.Counter) - Prev.*(F.Counter);
    Prev = Cur;
    Samples.push_back(S);
    NextAt = Clock + Interval;
  }

  const std::vector<PhaseSample<StatsT>> &samples() const { return Samples; }
  bool empty() const { return Samples.empty(); }

private:
  uint64_t Interval = 0;
  uint64_t NextAt = 0;
  StatsT Prev{};
  std::vector<PhaseSample<StatsT>> Samples;
};

} // namespace jtc

#endif // JTC_TELEMETRY_PHASESAMPLER_H
