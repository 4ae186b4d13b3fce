//===- jtcbench/Layers.cpp - Per-layer probes of the traced run -----------===//
///
/// Each probe calls one layer's public entry point and records a span
/// around the call:
///
///  - set-up layers: buildX, parseModule, verifyModule, PreparedModule,
///    ModuleAnalysis::compute;
///  - the Table VI/VII split, from three TraceVM configurations run on
///    the workload's tier: profiling(false) (plain), traces(false)
///    (plain + profiler hook) and the full configuration;
///  - the adaptive engine alone: replayBtrace over a stream captured from
///    a full session, then optimizeTrace / validateTrace on every trace
///    that session constructed;
///  - the jit backend: lowerTrace on the same traces;
///  - the server: TraceVM::importSeed of a donor session's exportSeed;
///  - the host-speed probe batch times are normalized by.
///
/// Counters come from the full session's VmStats and repeat exactly from
/// run to run.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "analysis/Analysis.h"
#include "backend/TraceIR.h"
#include "btrace/BtraceEncoder.h"
#include "btrace/BtraceReplay.h"
#include "btrace/SuccessorTable.h"
#include "bytecode/Verifier.h"
#include "interp/PreparedModule.h"
#include "opt/TraceOptimizer.h"
#include "text/AsmParser.h"
#include "text/AsmWriter.h"
#include "validate/Validator.h"
#include "vm/ModuleFingerprint.h"
#include "vm/TraceVM.h"

#include <cstdio>
#include <memory>

using namespace jtc;
using namespace jtcbench;

namespace {

struct Split {
  std::vector<double> Plain, NoTraces, Full;
  VmStats PlainStats, NoTracesStats, FullStats;
};

double timedRun(const PreparedModule &PM, const VmOptions &O, Spans &Rec,
                const char *Name, uint64_t Session, VmStats &Stats) {
  TraceVM VM(PM, O);
  Clock::time_point T0 = Clock::now();
  {
    ScopedSpan S(&Rec, Name, Session);
    VM.run();
  }
  double Sec = secondsSince(T0);
  Stats = VM.stats();
  return Sec;
}

double perMillion(double Seconds, uint64_t Dispatches) {
  return Dispatches ? Seconds / (static_cast<double>(Dispatches) / 1e6) : 0;
}

} // namespace

void jtcbench::probeLayers(const std::vector<Program> &Progs, bool Jit,
                           bool Serve, Report &R, Spans &Rec) {
  VmOptions Full = VmOptions().backend(Jit ? backend::BackendKind::Jit
                                           : backend::BackendKind::Interp);
  VmOptions Plain = Full;
  Plain.profiling(false).traces(false);
  VmOptions NoTraces = Full;
  NoTraces.traces(false);
  const int SetupRounds = 7;
  const int SplitRounds = Serve ? 9 : 2;
  const int ImportRounds = 9;
  const uint64_t ProbeSession = 1000; // Span ids of probes start here.

  // Set-up layers, per round over all programs.
  std::vector<std::string> Texts;
  for (const Program &P : Progs)
    Texts.push_back(moduleToString(P.Info->Build(P.Scale)));
  std::vector<std::unique_ptr<Module>> Mods(Progs.size());
  for (int Round = 0; Round < SetupRounds; ++Round)
    for (size_t I = 0; I < Progs.size(); ++I) {
      uint64_t Id = ProbeSession + Round;
      {
        ScopedSpan S(&Rec, "workloads.build", Id);
        Mods[I] = std::make_unique<Module>(Progs[I].Info->Build(Progs[I].Scale));
      }
      std::string Err;
      {
        ScopedSpan S(&Rec, "text.parse", Id);
        if (!parseModule(Texts[I], Err))
          R.fail(std::string(Progs[I].name()) + ": parse: " + Err);
      }
      {
        ScopedSpan S(&Rec, "bytecode.verify", Id);
        if (!verifyModule(*Mods[I]).empty())
          R.fail(std::string(Progs[I].name()) + ": verify failed");
      }
      {
        ScopedSpan S(&Rec, "interp.prepare", Id);
        PreparedModule PM(*Mods[I]);
      }
      {
        ScopedSpan S(&Rec, "analysis.module", Id);
        analysis::ModuleAnalysis::compute(*Mods[I]);
      }
    }
  for (const char *Layer : {"workloads.build", "bytecode.verify",
                            "text.parse", "interp.prepare", "analysis.module"}) {
    std::vector<double> Rounds;
    for (const auto &[Round, Seconds] : Rec.perSession(Layer))
      Rounds.push_back(Seconds);
    R.add(std::string(Layer) + "_ms", median(Rounds) * 1e3, "ms");
  }

  VmStats Sum;
  uint64_t Lowered = 0, LowerAttempts = 0, Rejects = 0;
  std::vector<Split> Splits(Progs.size());
  for (size_t I = 0; I < Progs.size(); ++I) {
    const Module &M = *Mods[I];
    PreparedModule PM(M);
    analysis::ModuleAnalysis Facts = analysis::ModuleAnalysis::compute(M);
    uint64_t Id = ProbeSession + 100 * (I + 1);

    // The capture session: full configuration, transitions streamed to
    // memory in the btrace format.
    std::vector<uint8_t> Stream;
    btrace::BtraceHeader H = btrace::BtraceHeader::fromOptions(Full);
    H.Fingerprint = moduleFingerprint(PM);
    H.Spec = std::string("workload:") + Progs[I].name();
    H.Scale = Progs[I].Scale;
    btrace::SuccessorTable ST(PM);
    btrace::BtraceEncoder Enc(PM, ST, std::move(H),
                              [&Stream](const uint8_t *Data, size_t Size) {
                                Stream.insert(Stream.end(), Data, Data + Size);
                                return true;
                              });
    TraceVM Donor(PM, Full);
    Donor.setTransitionSink(&Enc);
    {
      ScopedSpan S(&Rec, "vm.capture", Id);
      Donor.run();
    }
    const VmStats &DS = Donor.stats();
    Sum.merge(DS);
    R.add(std::string("profile.hooks.") + Progs[I].name(),
          static_cast<double>(DS.Hooks), "count");
    R.add(std::string("profile.decay_passes.") + Progs[I].name(),
          static_cast<double>(DS.DecayPasses), "count");
    R.add(std::string("profile.signals.") + Progs[I].name(),
          static_cast<double>(DS.Signals), "count");
    R.add(std::string("vm.block_dispatches.") + Progs[I].name(),
          static_cast<double>(DS.BlockDispatches), "count");

    // The adaptive engine alone, replayed from the stream.
    btrace::ReplayResult Out;
    persist::PersistError PErr;
    bool Replayed;
    {
      ScopedSpan S(&Rec, "btrace.replay", Id);
      Replayed = btrace::replayBtrace(Stream.data(), Stream.size(), PM, Out,
                                      PErr);
    }
    R.add(std::string("btrace.replay_s.") + Progs[I].name(),
          Rec.perSession("btrace.replay")[Id], "s");
    if (!Replayed || !Out.DigestMatch)
      R.fail(std::string(Progs[I].name()) + ": btrace replay diverged");

    // Construction-time optimize and validate, and (jit) lowering, on
    // every trace the session constructed.
    for (const Trace &T : Donor.traceCache().traces()) {
      OptStats OS;
      {
        ScopedSpan S(&Rec, "opt.optimize", Id);
        optimizeTrace(PM, T, OS, false, &Facts, Full.optConfig());
      }
      {
        ScopedSpan S(&Rec, "validate.validate", Id);
        if (!validate::validateTrace(PM, T, Full.optConfig(), &Facts).Ok)
          ++Rejects;
      }
      if (!Jit)
        continue;
      ScopedSpan S(&Rec, "backend.lower", Id);
      ++LowerAttempts;
      if (backend::lowerTrace(PM, T, &Facts).ok())
        ++Lowered;
    }

    // The server's warm handoff: importing the donor's seed.
    if (Serve) {
      VmSeed Seed = Donor.exportSeed();
      for (int Round = 0; Round < ImportRounds; ++Round) {
        TraceVM Fresh(PM, Full);
        ScopedSpan S(&Rec, "server.seed_import", Id);
        Fresh.importSeed(Seed);
      }
    }

    // Table VI/VII: interleaved rounds of the three configurations.
    Split &Sp = Splits[I];
    for (int Round = 0; Round < SplitRounds; ++Round) {
      Sp.Plain.push_back(timedRun(PM, Plain, Rec, "split.plain", Id,
                                  Sp.PlainStats));
      Sp.NoTraces.push_back(timedRun(PM, NoTraces, Rec, "split.no_traces",
                                     Id, Sp.NoTracesStats));
      Sp.Full.push_back(timedRun(PM, Full, Rec, "split.full", Id,
                                 Sp.FullStats));
    }
  }

  std::printf("\nTables VI-VII, measured on TraceVM (%s tier, median of %d "
              "rounds)\n",
              Jit ? "jit" : "interp", SplitRounds);
  std::printf("%-10s %10s %10s %12s %11s %12s %11s %9s\n", "benchmark",
              "plain(s)", "hook(s)", "hook s/Mdisp", "trace d(s)",
              "trace s/Mdisp", "trace Mdisp", "overhead");
  for (size_t I = 0; I < Progs.size(); ++I) {
    const Split &Sp = Splits[I];
    std::string N = Progs[I].name();
    double PlainS = median(Sp.Plain);
    double HookS = median(Sp.NoTraces) - PlainS;
    double DeltaS = median(Sp.Full) - median(Sp.NoTraces);
    uint64_t PlainDisp = Sp.PlainStats.totalDispatches();
    uint64_t Hooks = Sp.NoTracesStats.Hooks;
    uint64_t FullDisp = Sp.FullStats.totalDispatches();
    R.add("interp.plain_s." + N, PlainS, "s");
    R.add("profile.hook_s." + N, HookS, "s");
    R.add("trace.dispatch_delta_s." + N, DeltaS, "s");
    R.add("interp.plain_s_per_mdisp." + N, perMillion(PlainS, PlainDisp),
          "s/Mdisp");
    R.add("profile.hook_s_per_mdisp." + N, perMillion(HookS, Hooks),
          "s/Mdisp");
    R.add("trace.dispatch_delta_s_per_mdisp." + N,
          perMillion(DeltaS, FullDisp), "s/Mdisp");
    std::printf("%-10s %10.4f %10.4f %12.5f %11.4f %12.5f %11.3f %8.1f%%\n",
                N.c_str(), PlainS, HookS, perMillion(HookS, Hooks), DeltaS,
                perMillion(DeltaS, FullDisp),
                static_cast<double>(FullDisp) / 1e6,
                PlainS > 0 ? (HookS + DeltaS) / PlainS * 100 : 0.0);
  }
  std::fflush(stdout);

  R.add("vm.instructions", static_cast<double>(Sum.Instructions), "count");
  R.add("btrace.replay_s", Rec.total("btrace.replay"), "s");
  R.add("opt.optimize_ms", Rec.total("opt.optimize") * 1e3, "ms");
  R.add("validate.validate_ms", Rec.total("validate.validate") * 1e3, "ms");
  R.add("validate.rejects", static_cast<double>(Rejects), "count");
  R.add("trace.constructed", static_cast<double>(Sum.TracesConstructed),
        "count");
  R.add("trace.completion_rate", Sum.completionRate(), "ratio");
  R.add("trace.coverage", Sum.traceCoverage(), "ratio");
  R.add("backend.lower_ms", Rec.total("backend.lower") * 1e3, "ms");
  R.add("backend.lowerable_share",
        LowerAttempts ? static_cast<double>(Lowered) /
                            static_cast<double>(LowerAttempts)
                      : 0.0,
        "ratio");
  R.add("backend.native_share",
        Sum.TraceDispatches ? static_cast<double>(Sum.TraceDispatchesJit) /
                                  static_cast<double>(Sum.TraceDispatches)
                            : 0.0,
        "ratio");
  R.add("backend.compile_fallbacks",
        static_cast<double>(Sum.TraceCompileFallbacks), "count");
  R.add("backend.code_bytes", static_cast<double>(Sum.JitCodeBytes), "bytes");
  // Mean import time per round, summed over the six programs.
  R.add("server.seed_import_ms",
        Rec.total("server.seed_import") * 1e3 / ImportRounds, "ms");

  // The host's speed while this run measured: batch times are scaled by
  // HostProbeNominal over this, so raw times can be recovered from it.
  std::vector<double> Probes;
  for (int I = 0; I < 9; ++I)
    Probes.push_back(hostProbe());
  R.add("bench.host_probe_ms", median(Probes) * 1e3, "ms");
}
