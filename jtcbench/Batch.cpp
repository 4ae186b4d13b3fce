//===- jtcbench/Batch.cpp - batch-interp and batch-jit workloads ----------===//
///
/// Closed loop, one client: passes over the six programs at registry
/// default scale, one cold TraceVM session at a time, in a pass order
/// drawn from the workload seed. Every session is checked against the
/// reference digests (output, heap, instruction count and the
/// tier-independent VmStats digest).
///
/// A session's time is its thread CPU time (TraceVM construct + run) at
/// the reference host's speed: each session sits between two runs of the
/// host-speed probe, and its CPU time is scaled by HostProbeNominal over
/// their mean. run_s.<program> is the interquartile mean of those times,
/// guest_mips the median over passes of instructions per normalized
/// second.
///
/// Set-up (timed apart as setup_s, normalized the same way) builds,
/// verifies and prepares the six modules; it is repeated and its median
/// reported.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "bytecode/Verifier.h"
#include "interp/PreparedModule.h"
#include "runtime/Heap.h"
#include "vm/TraceVM.h"

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <numeric>
#include <random>

using namespace jtc;
using namespace jtcbench;

namespace {

constexpr int SetupRounds = 15;

struct Loaded {
  Program P;
  Module M;
  std::unique_ptr<PreparedModule> PM;
};

/// One set-up round: build, verify and prepare every program.
std::vector<std::unique_ptr<Loaded>> setUp(const std::vector<Program> &Progs,
                                           uint64_t Round, Report &R,
                                           Spans *Trace) {
  ScopedSpan Root(Trace, "setup", Round);
  std::vector<std::unique_ptr<Loaded>> Out;
  for (const Program &P : Progs) {
    auto L = std::make_unique<Loaded>();
    L->P = P;
    {
      ScopedSpan S(Trace, "workloads.build", Round, Root.id());
      L->M = P.Info->Build(P.Scale);
    }
    {
      ScopedSpan S(Trace, "bytecode.verify", Round, Root.id());
      if (!verifyModule(L->M).empty())
        R.fail(std::string(P.name()) + ": module fails verification");
    }
    {
      ScopedSpan S(Trace, "interp.prepare", Round, Root.id());
      L->PM = std::make_unique<PreparedModule>(L->M);
    }
    Out.push_back(std::move(L));
  }
  return Out;
}

/// Checks one finished session against its reference row.
void checkSession(const Program &P, TraceVM &VM, const RunResult &RR,
                  const References &Ref, Report &R) {
  const Expected *E = Ref.find(P.name(), P.Scale);
  if (!E) {
    R.fail(std::string(P.name()) + ": no reference row");
  } else if (RR.Status != RunStatus::Finished ||
             RR.Instructions != E->Instructions ||
             outputDigest(VM.machine().output()) != E->OutputDigest ||
             heapDigest(VM.machine().heap()) != E->HeapDigest) {
    R.fail(std::string(P.name()) + ": result differs from reference");
  } else if (VM.stats().digest() != E->StatsDigest) {
    R.fail(std::string(P.name()) +
           ": VmStats digest differs from the reference tier digest");
  }
}

} // namespace

void jtcbench::shuffle(std::vector<size_t> &V, std::mt19937_64 &Rng) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[Rng() % I]);
}

void jtcbench::runBatch(const Args &A, bool Jit, const References &Ref,
                        Report &R, Spans *Trace) {
  std::vector<Program> Progs = programs(/*ServeScale=*/false);
  VmOptions Opts = VmOptions().backend(Jit ? backend::BackendKind::Jit
                                           : backend::BackendKind::Interp);

  // Every timed step sits between two probe runs (the probe after one
  // step is the probe before the next) and its CPU time is scaled by the
  // nominal probe time over their mean.
  std::vector<double> Probes{hostProbe()};
  auto Normalize = [&Probes](double Cpu) {
    Probes.push_back(hostProbe());
    return Cpu * HostProbeNominal /
           ((Probes[Probes.size() - 2] + Probes.back()) / 2);
  };

  std::vector<double> SetupTimes;
  std::vector<std::unique_ptr<Loaded>> Mods;
  for (int Round = 0; Round < SetupRounds; ++Round) {
    double Cpu0 = threadCpuSeconds();
    Mods = setUp(Progs, Round, R, Trace);
    SetupTimes.push_back(Normalize(threadCpuSeconds() - Cpu0));
  }

  // A traced run spends half the time on passes that alternate untraced
  // and traced after an untraced warm-up pass, which yields the tracing
  // overhead; the layer probes follow.
  double Budget = Trace ? A.Seconds / 2 : A.Seconds;
  std::mt19937_64 Rng(A.Seed);
  std::vector<size_t> Order(Mods.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::vector<std::vector<double>> PerProgram(Mods.size());
  std::vector<std::vector<double>> Traced(Mods.size()), Untraced(Mods.size());
  std::vector<double> PassMips;
  std::vector<std::vector<double>> WallTimes(Mods.size());
  uint64_t SessionId = 0;
  Clock::time_point Start = Clock::now();
  // Whole passes only, and none that would overrun the budget at the
  // last pass's pace (a traced run makes at least one of each kind).
  double LastPass = 0;
  for (unsigned Pass = 0;
       Pass == 0 || secondsSince(Start) + LastPass <= Budget ||
       (Trace && Pass < 3);
       ++Pass) {
    Clock::time_point PassStart = Clock::now();
    Spans *PassTrace = (Trace && Pass % 2 == 1) ? Trace : nullptr;
    shuffle(Order, Rng);
    double PassSeconds = 0;
    uint64_t PassInstructions = 0;
    for (size_t I : Order) {
      Loaded &L = *Mods[I];
      ++R.Attempted;
      ++SessionId;
      double Cpu;
      uint64_t Instructions;
      {
        ScopedSpan Session(PassTrace, "session", SessionId);
        Clock::time_point T0 = Clock::now();
        double Cpu0 = threadCpuSeconds();
        std::unique_ptr<TraceVM> VM;
        {
          ScopedSpan S(PassTrace, "vm.construct", SessionId, Session.id());
          VM = std::make_unique<TraceVM>(*L.PM, Opts);
        }
        RunResult RR;
        {
          ScopedSpan S(PassTrace, "vm.run", SessionId, Session.id());
          RR = VM->run();
        }
        Cpu = threadCpuSeconds() - Cpu0;
        WallTimes[I].push_back(secondsSince(T0));
        Instructions = RR.Instructions;
        ScopedSpan Check(PassTrace, "check.digest", SessionId, Session.id());
        checkSession(L.P, *VM, RR, Ref, R);
      }
      // Outside the session span, so spans leave the probe out: the probe
      // Normalize runs closes this session's pair and opens the next one's.
      double Sec = Normalize(Cpu);
      PerProgram[I].push_back(Sec);
      if (Pass > 0)
        (PassTrace ? Traced : Untraced)[I].push_back(Sec);
      PassSeconds += Sec;
      PassInstructions += Instructions;
    }
    PassMips.push_back(static_cast<double>(PassInstructions) / PassSeconds /
                       1e6);
    LastPass = secondsSince(PassStart);
  }

  std::string Raw;
  for (size_t I = 0; I < Mods.size(); ++I)
    Raw += std::string(" ") + Mods[I]->P.name() + " " +
           std::to_string(median(WallTimes[I]));
  std::fprintf(stderr, "jtc-bench: host probe median %.2f ms (nominal %.2f);"
               " median session wall s:%s\n", median(Probes) * 1e3,
               HostProbeNominal * 1e3, Raw.c_str());

  if (Trace) {
    double TracedSum = 0, UntracedSum = 0;
    for (size_t I = 0; I < Mods.size(); ++I) {
      TracedSum += median(Traced[I]);
      UntracedSum += median(Untraced[I]);
    }
    R.add("bench.tracing_overhead", TracedSum / UntracedSum - 1, "ratio");
    probeLayers(Progs, Jit, /*Serve=*/false, R, *Trace);
    // The fleet is not exercised by a batch workload.
    static const std::pair<const char *, const char *> FleetLayers[] = {
        {"fleet.submit_ms", "ms"},       {"fleet.shard_run_ms", "ms"},
        {"fleet.warm_share", "ratio"},   {"fleet.overhead_ms_p50", "ms"},
        {"fleet.overhead_ms_p99", "ms"}, {"fleet.route_share_max", "ratio"},
        {"fleet.backpressure", "count"},
        {"net.protocol_errors", "count"}, {"loadgen.late_ms_p99", "ms"},
        {"serve.p50_ms", "ms"},           {"serve.p99_ms", "ms"},
        {"serve.max_rate_sps", "1/s"}};
    for (const auto &[Name, Unit] : FleetLayers)
      R.add(Name, 0, Unit);
    return;
  }

  R.add("setup_s", median(SetupTimes), "s");
  R.add("peak_rss_mb", peakRssMb(static_cast<int>(::getpid())), "MiB");
  R.add("guest_mips", median(PassMips), "Minstr/s");
  for (size_t I = 0; I < Mods.size(); ++I)
    R.add(std::string("run_s.") + Mods[I]->P.name(),
          interquartileMean(PerProgram[I]), "s");
}
