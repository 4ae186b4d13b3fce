//===- tools/jtc_fuzz.cpp - Differential fuzzing driver -------------------===//
///
/// The command-line front end for the differential fuzzing subsystem:
///
///   jtc-fuzz run [options]            run a fuzzing campaign
///   jtc-fuzz replay <file>... [options]  re-run the oracle on .jasm cases
///   jtc-fuzz gen [options]            emit one generated program as .jasm
///                                     (how the tests/corpus files are made)
///
/// Options:
///   --seed=<n|ci>        campaign seed; "ci" is a fixed well-known seed
///   --iterations=<n>     programs to generate            (default 1000)
///   --time=<seconds>     wall-clock bound (0 = none)
///   --max-failures=<n>   stop after n failures (0 = never; default 1)
///   --max-instr=<n>      per-engine instruction budget
///   --no-minimize        keep failing programs unreduced
///   --no-traps           generate total programs only
///   --no-net             skip the NET baseline engine
///   --no-threaded        skip the plain block-executor run
///   --inject=<fault>     deliberately break the trace cache and expect
///                        the oracle to notice: skip-invalidation or
///                        skip-retirement (self-test mode)
///   --validate=<mode>    trace validation in the grid VMs: off, on
///                        (default) or strict (abort on any rejection)
///   --no-validate-audit  skip the offline validator-vs-oracle audit
///   --no-backend-audit   skip the interp-vs-jit backend equivalence
///                        re-run of every grid point
///   --repro-dir=<dir>    write failing cases as .jasm reproducers
///   --json[=<file>]      campaign report as JSON (stdout if no file)
///   --features=<csv>     (gen) enable only the listed statement features:
///                        loops,calls,switches,virtual,fields,arrays,traps
///   --out=<file>         (gen) output path (stdout if omitted)
///   --comment=<text>     (gen) first-line "; <text>" header comment
///
/// Exit status: 0 clean, 1 failures found (or, under --inject, no
/// failure found), 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"
#include "fuzz/Fuzzer.h"
#include "support/ArgParse.h"
#include "support/Json.h"
#include "text/AsmWriter.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

using namespace jtc;
using namespace jtc::fuzz;

namespace {

/// The well-known seed CI smoke runs use, so failures seen in CI
/// reproduce locally with --seed=ci.
constexpr uint64_t CiSeed = 0x6A7463; // "jtc"

struct ToolOptions {
  std::string Command;
  std::vector<std::string> Files;
  FuzzOptions Fuzz;
  bool Json = false;
  std::string JsonOut;
  bool Inject = false;
  std::string GenOut;
  std::string GenComment;
};

int usage() {
  std::cerr
      << "usage: jtc-fuzz <run|replay> [files...] [options]\n"
         "  run options: --seed=N|ci --iterations=N --time=SECONDS\n"
         "               --max-failures=N --max-instr=N --no-minimize\n"
         "               --no-traps --no-net --no-threaded --no-refinement\n"
         "               --no-persist-audit --no-btrace-audit\n"
         "               --validate=off|on|strict --no-validate-audit\n"
         "               --no-backend-audit\n"
         "               --inject=skip-invalidation|skip-retirement\n"
         "               --repro-dir=DIR --json[=FILE]\n"
         "  replay options: --max-instr=N --no-net --no-threaded\n"
         "  gen options: --seed=N --features=loops,calls,switches,virtual,\n"
         "               fields,arrays,traps --out=FILE --comment=TEXT\n";
  return 2;
}

bool parseOptions(int Argc, char **Argv, ToolOptions &Opts) {
  if (Argc < 2)
    return false;
  Opts.Command = Argv[1];
  // Traps are part of normal fuzzing coverage; tests that need total
  // programs opt out with --no-traps.
  Opts.Fuzz.Gen.Features.Traps = true;
  bool NoMinimize = false, NoTraps = false, NoNet = false, NoThreaded = false;
  bool NoRefinement = false, NoPersistAudit = false, NoBtraceAudit = false;
  bool NoValidateAudit = false, NoBackendAudit = false;
  ArgParser P;
  P.positionals(&Opts.Files)
      .custom(
          "seed",
          [&Opts](const std::string &V) {
            Opts.Fuzz.Seed =
                V == "ci" ? CiSeed
                          : static_cast<uint64_t>(std::atoll(V.c_str()));
            return true;
          },
          /*ValueRequired=*/true)
      .uintOpt("iterations", &Opts.Fuzz.Iterations)
      .realOpt("time", &Opts.Fuzz.TimeLimitSeconds)
      .custom(
          "max-failures",
          [&Opts](const std::string &V) {
            Opts.Fuzz.MaxFailures =
                static_cast<unsigned>(std::atoi(V.c_str()));
            return true;
          },
          /*ValueRequired=*/true)
      .uintOpt("max-instr", &Opts.Fuzz.Oracle.MaxInstructions)
      .flag("no-minimize", &NoMinimize)
      .flag("no-traps", &NoTraps)
      .flag("no-net", &NoNet)
      .flag("no-threaded", &NoThreaded)
      .flag("no-refinement", &NoRefinement)
      .flag("no-persist-audit", &NoPersistAudit)
      .flag("no-btrace-audit", &NoBtraceAudit)
      .flag("no-validate-audit", &NoValidateAudit)
      .flag("no-backend-audit", &NoBackendAudit)
      .choice("validate",
              {{"off", ValidateMode::Off},
               {"on", ValidateMode::On},
               {"strict", ValidateMode::Strict}},
              &Opts.Fuzz.Oracle.Validate)
      .custom(
          "inject",
          [&Opts](const std::string &F) {
            if (F == "skip-invalidation")
              Opts.Fuzz.Oracle.Fault = CacheFault::SkipInvalidation;
            else if (F == "skip-retirement")
              Opts.Fuzz.Oracle.Fault = CacheFault::SkipRetirement;
            else {
              std::cerr << "unknown fault '" << F << "'\n";
              return false;
            }
            Opts.Inject = true;
            return true;
          },
          /*ValueRequired=*/true)
      .strOpt("repro-dir", &Opts.Fuzz.ReproDir)
      .custom(
          "features",
          [&Opts](const std::string &V) {
            GenFeatures F;
            F.Loops = F.Calls = F.Switches = F.VirtualCalls = F.Fields =
                F.Arrays = F.Traps = false;
            size_t Pos = 0;
            while (Pos <= V.size()) {
              size_t Comma = V.find(',', Pos);
              std::string Name = V.substr(
                  Pos, Comma == std::string::npos ? Comma : Comma - Pos);
              if (Name == "loops")
                F.Loops = true;
              else if (Name == "calls")
                F.Calls = true;
              else if (Name == "switches")
                F.Switches = true;
              else if (Name == "virtual")
                F.VirtualCalls = true;
              else if (Name == "fields")
                F.Fields = true;
              else if (Name == "arrays")
                F.Arrays = true;
              else if (Name == "traps")
                F.Traps = true;
              else {
                std::cerr << "unknown feature '" << Name << "'\n";
                return false;
              }
              if (Comma == std::string::npos)
                break;
              Pos = Comma + 1;
            }
            Opts.Fuzz.Gen.Features = F;
            return true;
          },
          /*ValueRequired=*/true)
      .strOpt("out", &Opts.GenOut)
      .strOpt("comment", &Opts.GenComment)
      .custom("json", [&Opts](const std::string &V) {
        Opts.Json = true;
        Opts.JsonOut = V;
        return true;
      });
  if (!P.parse(Argc, Argv, 2))
    return false;
  if (NoMinimize)
    Opts.Fuzz.Minimize = false;
  if (NoTraps)
    Opts.Fuzz.Gen.Features.Traps = false;
  if (NoNet)
    Opts.Fuzz.Oracle.IncludeNet = false;
  if (NoThreaded)
    Opts.Fuzz.Oracle.IncludeThreaded = false;
  if (NoRefinement)
    Opts.Fuzz.Oracle.CheckRefinement = false;
  if (NoPersistAudit)
    Opts.Fuzz.Oracle.CheckPersist = false;
  if (NoBtraceAudit)
    Opts.Fuzz.Oracle.CheckBtrace = false;
  if (NoValidateAudit)
    Opts.Fuzz.Oracle.CheckValidate = false;
  if (NoBackendAudit)
    Opts.Fuzz.Oracle.CheckBackends = false;
  return true;
}

void writeFindings(JsonWriter &W, const std::vector<OracleFinding> &Fs) {
  W.beginArray();
  for (const OracleFinding &F : Fs)
    W.beginObject()
        .field("engine", F.Engine)
        .field("rule", F.Rule)
        .field("detail", F.Detail)
        .endObject();
  W.endArray();
}

void writeReportJson(std::ostream &OS, const ToolOptions &Opts,
                     const FuzzReport &R) {
  JsonWriter W(OS);
  W.beginObject();
  W.fieldUInt("seed", Opts.Fuzz.Seed);
  W.fieldUInt("iterations", R.Iterations);
  W.fieldUInt("clean", R.CleanRuns);
  W.fieldUInt("skipped", R.SkippedRuns);
  W.fieldBool("ok", R.ok());
  W.fieldReal("seconds", R.Seconds);
  W.key("coverage").beginObject();
  for (unsigned I = 0; I < NumStmtKinds; ++I)
    W.fieldUInt(stmtKindName(static_cast<StmtKind>(I)), R.Coverage.Counts[I]);
  W.endObject();
  W.key("failures").beginArray();
  for (const FuzzFailure &F : R.Failures) {
    W.beginObject()
        .fieldUInt("seed", F.Seed)
        .fieldUInt("iteration", F.Iteration);
    if (!F.ReproPath.empty())
      W.field("repro", F.ReproPath);
    W.key("findings");
    writeFindings(W, F.Findings);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  OS << "\n";
}

int cmdRun(const ToolOptions &Opts) {
  FuzzReport R = runFuzzer(Opts.Fuzz);

  bool JsonToStdout = Opts.Json && Opts.JsonOut.empty();
  if (!JsonToStdout) {
    std::cerr << "jtc-fuzz: " << R.Iterations << " iterations, "
              << R.CleanRuns << " clean, " << R.SkippedRuns << " skipped, "
              << R.Failures.size() << " failing in " << R.Seconds << "s\n";
    for (const FuzzFailure &F : R.Failures) {
      std::cerr << "failure at iteration " << F.Iteration << " (seed "
                << F.Seed << ")";
      if (!F.ReproPath.empty())
        std::cerr << ", reproducer " << F.ReproPath;
      std::cerr << ":\n" << formatFindings(F.Findings);
    }
  }
  if (Opts.Json) {
    if (JsonToStdout) {
      writeReportJson(std::cout, Opts, R);
    } else {
      std::ofstream OS(Opts.JsonOut);
      if (!OS) {
        std::cerr << "cannot open '" << Opts.JsonOut << "' for writing\n";
        return 1;
      }
      writeReportJson(OS, Opts, R);
    }
  }

  // Self-test mode inverts the verdict: the injected bug MUST be caught.
  if (Opts.Inject) {
    if (R.ok()) {
      std::cerr << "jtc-fuzz: injected fault was NOT detected\n";
      return 1;
    }
    std::cerr << "jtc-fuzz: injected fault detected as expected\n";
    return 0;
  }
  return R.ok() ? 0 : 1;
}

int cmdReplay(const ToolOptions &Opts) {
  if (Opts.Files.empty()) {
    std::cerr << "replay requires at least one .jasm file\n";
    return 2;
  }
  int Failures = 0;
  for (const std::string &Path : Opts.Files) {
    OracleResult R = replayFile(Path, Opts.Fuzz.Oracle);
    if (R.Ok) {
      std::cout << Path << ": " << (R.Skipped ? "skipped" : "ok") << "\n";
    } else {
      ++Failures;
      std::cout << Path << ": FAIL\n" << formatFindings(R.Findings);
    }
  }
  return Failures == 0 ? 0 : 1;
}

/// Emits one generated program as textual assembly. This is the
/// reproducible path the checked-in tests/corpus files come from: the
/// header comment records seed and intent, and the module is verified
/// (including the typed pass) before it is written.
int cmdGen(const ToolOptions &Opts) {
  RandomProgramBuilder Gen(Opts.Fuzz.Seed, Opts.Fuzz.Gen);
  Module M = Gen.build();
  std::vector<VerifyError> Errors = verifyModule(M);
  if (!Errors.empty()) {
    std::cerr << "jtc-fuzz gen: generated module fails verification:\n"
              << formatErrors(Errors);
    return 1;
  }
  std::ofstream File;
  std::ostream *OS = &std::cout;
  if (!Opts.GenOut.empty()) {
    File.open(Opts.GenOut);
    if (!File) {
      std::cerr << "cannot open '" << Opts.GenOut << "' for writing\n";
      return 1;
    }
    OS = &File;
  }
  if (!Opts.GenComment.empty())
    *OS << "; " << Opts.GenComment << "\n\n";
  writeModule(*OS, M);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opts;
  if (!parseOptions(Argc, Argv, Opts))
    return usage();
  if (Opts.Command == "run")
    return cmdRun(Opts);
  if (Opts.Command == "replay")
    return cmdReplay(Opts);
  if (Opts.Command == "gen")
    return cmdGen(Opts);
  std::cerr << "unknown command '" << Opts.Command << "'\n";
  return usage();
}
