//===- bench/validate_overhead.cpp - Translation-validation overhead ------===//
///
/// Table VI methodology applied to the translation validator: each paper
/// workload runs under the default adaptive configuration with
/// --validate=off and with --validate=on, and each flavour is timed as the
/// fastest of N repeats to suppress scheduling noise.
///
/// Validation runs once per constructed (or seeded) trace, so its cost is
/// a construction-time tax, not a steady-state one: the overhead shrinks
/// as the run length grows and the warmup fraction falls. Proofs are
/// remembered per PreparedModule, so every off/on session runs over a
/// freshly prepared module and proves what it builds; the warm column is
/// a validated session over a module an earlier session already proved,
/// which takes every verdict from the memo. Reported per workload:
/// wall-clock overhead (%), the warm session's overhead, traces checked,
/// and rejections (which must be zero for the stock optimizer).
/// --json=<file> writes the CI artifact.
///
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"
#include "support/Json.h"
#include "support/TablePrinter.h"
#include "vm/TraceVM.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>

using namespace jtc;

namespace {

struct Sample {
  std::string Workload;
  double PlainSeconds = 0;
  double ValidatedSeconds = 0;
  double WarmSeconds = 0; ///< Validated, every proof from the memo.
  uint64_t TracesChecked = 0;
  uint64_t TracesRejected = 0;

  double overheadPercent(double Seconds) const {
    return PlainSeconds > 0 ? (Seconds - PlainSeconds) / PlainSeconds * 100.0
                            : 0.0;
  }
  double overheadPercent() const { return overheadPercent(ValidatedSeconds); }
};

double secondsOf(TraceVM &VM) {
  auto T0 = std::chrono::steady_clock::now();
  VM.run();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

Sample measure(const WorkloadInfo &W, int Repeats) {
  Sample S;
  S.Workload = W.Name;
  Module M = W.Build(W.DefaultScale);
  const VmOptions Off = VmOptions().validate(ValidateMode::Off);
  const VmOptions On = VmOptions().validate(ValidateMode::On);

  // Fastest of Repeats sessions, each over a freshly prepared module
  // unless \p Shared is given (preparation is outside the timing).
  auto Fastest = [&](const VmOptions &O, const PreparedModule *Shared) {
    double Best = 1e100;
    for (int I = 0; I < Repeats; ++I) {
      std::unique_ptr<PreparedModule> Own;
      if (!Shared)
        Own = std::make_unique<PreparedModule>(M);
      TraceVM VM(Shared ? *Shared : *Own, O);
      Best = std::min(Best, secondsOf(VM));
      const TraceCache::CacheStats &CS = VM.traceCache().stats();
      S.TracesChecked = CS.TracesValidated;
      S.TracesRejected = CS.ValidationRejects;
    }
    return Best;
  };
  S.PlainSeconds = Fastest(Off, nullptr);
  S.ValidatedSeconds = Fastest(On, nullptr);

  PreparedModule Proved(M);
  TraceVM(Proved, On).run();
  S.WarmSeconds = Fastest(On, &Proved);
  return S;
}

void writeJson(std::ostream &OS, const std::vector<Sample> &Samples) {
  JsonWriter W(OS);
  W.beginObject().field("table", "validate_overhead").key("records");
  W.beginArray();
  for (const Sample &S : Samples) {
    W.beginObject()
        .field("workload", S.Workload)
        .fieldReal("plain_seconds", S.PlainSeconds)
        .fieldReal("validated_seconds", S.ValidatedSeconds)
        .fieldReal("overhead_pct", S.overheadPercent())
        .fieldReal("warm_seconds", S.WarmSeconds)
        .fieldReal("warm_overhead_pct", S.overheadPercent(S.WarmSeconds))
        .fieldUInt("traces_checked", S.TracesChecked)
        .fieldUInt("traces_rejected", S.TracesRejected)
        .endObject();
  }
  W.endArray().endObject();
  OS << "\n";
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonOut = parseBenchJsonArg(argc, argv, "validate_overhead");
  std::cout << "Translation-validation overhead (Table VI methodology)\n"
            << "(--validate=off vs --validate=on; validation runs once per "
               "constructed trace; warm: on, over an already-proved "
               "module)\n\n";

  TablePrinter T({"benchmark", "off (s)", "on (s)", "overhead (%)",
                  "warm (s)", "warm overhead (%)", "traces checked",
                  "rejected"});
  std::vector<Sample> Samples;
  double TotalPlain = 0, TotalValidated = 0;
  uint64_t TotalChecked = 0, TotalRejected = 0;
  for (const WorkloadInfo &W : allWorkloads()) {
    std::cerr << "  timing " << W.Name << "...\n";
    Sample S = measure(W, /*Repeats=*/3);
    T.addRow({S.Workload, TablePrinter::fmt(S.PlainSeconds, 3),
              TablePrinter::fmt(S.ValidatedSeconds, 3),
              TablePrinter::fmtPercent(
                  (S.ValidatedSeconds - S.PlainSeconds) / S.PlainSeconds, 1),
              TablePrinter::fmt(S.WarmSeconds, 3),
              TablePrinter::fmtPercent(
                  (S.WarmSeconds - S.PlainSeconds) / S.PlainSeconds, 1),
              std::to_string(S.TracesChecked),
              std::to_string(S.TracesRejected)});
    TotalPlain += S.PlainSeconds;
    TotalValidated += S.ValidatedSeconds;
    TotalChecked += S.TracesChecked;
    TotalRejected += S.TracesRejected;
    Samples.push_back(std::move(S));
  }
  T.print(std::cout);
  std::cout << "\nacross all benchmarks: validation adds "
            << TablePrinter::fmtPercent(
                   (TotalValidated - TotalPlain) / TotalPlain, 1)
            << " wall-clock over " << TotalChecked << " checked traces ("
            << TotalRejected << " rejected)\n";

  if (!JsonOut.empty()) {
    std::ofstream OS(JsonOut);
    if (!OS) {
      std::cerr << "cannot open '" << JsonOut << "' for writing\n";
      return 1;
    }
    writeJson(OS, Samples);
    std::cerr << "wrote " << JsonOut << "\n";
  }
  return 0;
}
