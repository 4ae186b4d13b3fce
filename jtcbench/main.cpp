//===- jtcbench/main.cpp - jtc-bench entry point --------------------------===//
///
/// jtc-bench --workload batch-interp|batch-jit|serve-mix --seed N
///           --seconds S --trace 0|1 --reference FILE [--spans FILE]
///     Runs one workload. The last stdout line is one JSON object with
///     the keys correct, attempted, failed and metrics: the end-to-end
///     metrics untraced (--trace 0), the per-layer metrics traced
///     (--trace 1, spans written to --spans).
///
/// jtc-bench --counters --workload W --seed N
///     Deterministic counters of one cold session per program in W's
///     configuration, plus the seed-dependent input order (self-test).
///
/// jtc-bench --write-reference FILE
///     Regenerates reference.tsv from the plain instruction interpreter.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "interp/PreparedModule.h"
#include "vm/TraceVM.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>

using namespace jtc;
using namespace jtcbench;

namespace {

bool isBatch(const std::string &W) {
  return W == "batch-interp" || W == "batch-jit";
}

/// Prints \p R as the final JSON line, every value with all its digits.
void printReport(const Report &R) {
  std::string Out = "{\"correct\": ";
  Out += R.correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I < R.Metrics.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", R.Metrics[I].Value);
    Out += (I ? ", \"" : "\"") + R.Metrics[I].Name + "\": {\"value\": " +
           Buf + ", \"unit\": \"" + R.Metrics[I].Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
}

} // namespace

int jtcbench::printCounters(const Args &A) {
  bool Serve = A.Workload == "serve-mix";
  VmOptions O = VmOptions().backend(A.Workload == "batch-interp"
                                        ? backend::BackendKind::Interp
                                        : backend::BackendKind::Jit);
  std::printf("{\"workload\": \"%s\", \"seed\": %llu, ", A.Workload.c_str(),
              static_cast<unsigned long long>(A.Seed));
  if (Serve) {
    std::printf("\"ladder\": %s, \"order\": \"%016llx\", ",
                serveLadderJson().c_str(),
                static_cast<unsigned long long>(serveScheduleDigest(A.Seed)));
  } else {
    std::mt19937_64 Rng(A.Seed);
    std::vector<size_t> Order(allWorkloads().size());
    std::iota(Order.begin(), Order.end(), 0);
    std::string S;
    for (int Pass = 0; Pass < 4; ++Pass) {
      shuffle(Order, Rng);
      for (size_t I : Order)
        S += std::to_string(I);
      S += Pass < 3 ? "," : "";
    }
    std::printf("\"order\": \"%s\", ", S.c_str());
  }
  std::printf("\"programs\": {");
  bool First = true;
  for (const Program &P : programs(Serve)) {
    Module M = P.Info->Build(P.Scale);
    PreparedModule PM(M);
    TraceVM VM(PM, O);
    VM.run();
    const VmStats &S = VM.stats();
    std::printf("%s\"%s\": {\"instructions\": %llu, \"hooks\": %llu, "
                "\"block_dispatches\": %llu, \"traces_constructed\": %llu, "
                "\"trace_dispatches\": %llu, \"jit_dispatches\": %llu, "
                "\"code_bytes\": %llu, \"compile_fallbacks\": %llu, "
                "\"stats_digest\": \"%016llx\"}",
                First ? "" : ", ", P.name(),
                static_cast<unsigned long long>(S.Instructions),
                static_cast<unsigned long long>(S.Hooks),
                static_cast<unsigned long long>(S.BlockDispatches),
                static_cast<unsigned long long>(S.TracesConstructed),
                static_cast<unsigned long long>(S.TraceDispatches),
                static_cast<unsigned long long>(S.TraceDispatchesJit),
                static_cast<unsigned long long>(S.JitCodeBytes),
                static_cast<unsigned long long>(S.TraceCompileFallbacks),
                static_cast<unsigned long long>(S.digest()));
    First = false;
  }
  std::printf("}}\n");
  return 0;
}

int main(int Argc, char **Argv) {
  Args A;
  bool Counters = false;
  std::string WriteRef;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Value;
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg = Arg.substr(0, Eq);
    } else if (Arg != "--counters" && I + 1 < Argc) {
      Value = Argv[++I];
    }
    if (Arg == "--workload")
      A.Workload = Value;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Arg == "--trace")
      A.Trace = Value == "1";
    else if (Arg == "--reference")
      A.Reference = Value;
    else if (Arg == "--spans")
      A.SpanOut = Value;
    else if (Arg == "--counters")
      Counters = true;
    else if (Arg == "--write-reference")
      WriteRef = Value;
    else {
      std::cerr << "jtc-bench: unknown option " << Arg << "\n";
      return 2;
    }
  }
  if (!WriteRef.empty())
    return writeReferences(WriteRef);
  if (!isBatch(A.Workload) && A.Workload != "serve-mix") {
    std::cerr << "jtc-bench: --workload must be batch-interp, batch-jit "
                 "or serve-mix\n";
    return 2;
  }
  if (Counters)
    return printCounters(A);
  if (A.Seconds <= 0) {
    std::cerr << "jtc-bench: --seconds must be positive\n";
    return 2;
  }
  References Ref;
  std::string Err;
  if (!Ref.load(A.Reference, Err)) {
    std::cerr << "jtc-bench: " << Err << "\n";
    return 1;
  }
  std::signal(SIGPIPE, SIG_IGN);

  Report R;
  std::unique_ptr<Spans> Trace;
  if (A.Trace)
    Trace = std::make_unique<Spans>();
  if (isBatch(A.Workload))
    runBatch(A, A.Workload == "batch-jit", Ref, R, Trace.get());
  else
    runServe(A, Ref, R, Trace.get());
  if (!A.Trace)
    R.add("ok_share",
          R.Attempted ? static_cast<double>(R.Attempted - R.Failed) /
                            static_cast<double>(R.Attempted)
                      : 0.0,
          "ratio");
  for (const std::string &P : R.Problems)
    std::cerr << "jtc-bench: failure: " << P << "\n";
  if (Trace && !A.SpanOut.empty() && !Trace->write(A.SpanOut)) {
    std::cerr << "jtc-bench: cannot write " << A.SpanOut << "\n";
    return 1;
  }
  printReport(R);
  return 0;
}
