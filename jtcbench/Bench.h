//===- jtcbench/Bench.h - jtc-bench shared declarations ---------*- C++ -*-===//
///
/// \file
/// The pieces the three workloads share: command-line arguments, the
/// metric report printed as the benchmark's last line, the program set
/// and its scales, the reference digests every session is checked
/// against, and small statistics helpers.
///
/// Every timing in this benchmark is taken from outside the layer it
/// measures: the benchmark calls a layer's public entry point and times the
/// call. Nothing here reaches into src/ internals.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BENCH_BENCH_H
#define JTC_BENCH_BENCH_H

#include "workloads/Workloads.h"

#include <chrono>
#include <ctime>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace jtcbench {

class Spans;

/// The command line: `--workload W --seed N --seconds S --trace 0|1`.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Reference; ///< reference.tsv path.
  std::string SpanOut;   ///< Where the traced run writes its spans.
};

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run prints as its final JSON line.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems; ///< First few failure descriptions.

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  /// Counts one failed operation and keeps its description.
  void fail(const std::string &Why);
  bool correct() const { return Failed == 0 && Attempted > 0; }
};

/// A program at the scale one workload runs it.
struct Program {
  const jtc::WorkloadInfo *Info = nullptr;
  uint32_t Scale = 0;
  const char *name() const { return Info->Name; }
};

/// The six registry programs at registry default scale (batch) or at 2%
/// of it (serve), in registry order.
std::vector<Program> programs(bool ServeScale);

/// Expected results of one program at one scale, produced by the plain
/// instruction interpreter (runInstructions on a Machine) -- never by the
/// TraceVM under test -- plus the tier-independent VmStats digest both
/// TraceVM tiers must reproduce for a cold session.
struct Expected {
  uint64_t Instructions = 0;
  uint64_t OutputDigest = 0;
  uint64_t HeapDigest = 0;
  uint64_t StatsDigest = 0;
};

class References {
public:
  /// Loads reference.tsv; false with \p Err when unreadable or malformed.
  bool load(const std::string &Path, std::string &Err);
  /// Null when the file has no row for (\p Name, \p Scale).
  const Expected *find(const std::string &Name, uint32_t Scale) const;

private:
  std::map<std::pair<std::string, uint32_t>, Expected> Rows;
};

/// Computes every row of reference.tsv (both scales) and writes it.
int writeReferences(const std::string &Path);

/// FNV-1a over the printed values, byte by byte (little-endian) -- the
/// digest the fleet protocol reports for a session's output.
uint64_t outputDigest(const std::vector<int64_t> &Output);

//===--- Time and statistics --------------------------------------------===//

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// CPU time of the calling thread in seconds. The kernel leaves out the
/// time a virtual CPU was stolen by the host, which wall time counts.
inline double threadCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// Median (mean of the middle two for even sizes); 0 when empty.
double median(std::vector<double> V);

/// Mean of the middle half of the sorted values (for fewer than four,
/// the median); 0 when empty.
double interquartileMean(std::vector<double> V);

/// Nearest-rank percentile, \p P in (0, 1]; 0 when empty.
double percentile(std::vector<double> V, double P);

/// Peak resident set of process \p Pid in MiB (VmHWM), 0 if unreadable.
double peakRssMb(int Pid);

//===--- Host-speed probe -----------------------------------------------===//

/// Runs a fixed interpreter-like kernel that shares no code with the VM
/// and returns its thread CPU seconds. A batch session's CPU time times
/// HostProbeNominal over the probe's time around it is the session's time
/// at the reference host's speed; that takes out most of the minute-scale
/// slowdowns a shared host imposes on everything that runs on it.
double hostProbe();

/// hostProbe()'s median on the reference host (4-vCPU Xeon VM, g++ 12.2,
/// RelWithDebInfo), so normalized times stay close to seconds there.
constexpr double HostProbeNominal = 0.045;

//===--- Workloads --------------------------------------------------------===//

/// batch-interp / batch-jit: closed-loop passes over the six programs.
void runBatch(const Args &A, bool Jit, const References &Ref, Report &R,
              Spans *Trace);

/// The batch pass order: a seeded Fisher-Yates shuffle with its own
/// index draw, so it depends on the seed alone, not the standard library.
void shuffle(std::vector<size_t> &V, std::mt19937_64 &Rng);

/// serve-mix: open-loop rate ladder against a two-shard jtc-fleet.
void runServe(const Args &A, const References &Ref, Report &R, Spans *Trace);

/// The per-layer probes every traced run adds: set-up layers, the Table
/// VI/VII split, btrace replay, optimize/validate/lower, module analysis
/// and (serve) seed import, each timed around its public entry point.
void probeLayers(const std::vector<Program> &Progs, bool Jit, bool Serve,
                 Report &R, Spans &Trace);

/// FNV-1a digest of serve-mix's whole operation sequence for \p Seed.
uint64_t serveScheduleDigest(uint64_t Seed);

/// serve-mix's fixed rate ladder, latency rung, latency limit and
/// re-submit cadence as a JSON object (spec.json must agree).
std::string serveLadderJson();

/// Deterministic counters of one cold session per program in the
/// workload's configuration, plus the seed-dependent input order, as one
/// JSON object on stdout (the self-test compares these across runs).
int printCounters(const Args &A);

} // namespace jtcbench

#endif // JTC_BENCH_BENCH_H
