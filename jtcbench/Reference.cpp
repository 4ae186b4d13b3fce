//===- jtcbench/Reference.cpp - Reference digests and shared helpers ------===//
///
/// reference.tsv holds, per program and scale, what a correct session
/// produces. The output and heap digests come from the plain instruction
/// interpreter (the Fig. 1 model: runInstructions on a Machine), which
/// shares no dispatch, profiling, trace or backend code with TraceVM.
/// The VmStats digest is the tier-independent adaptive-state digest of a
/// cold interp-tier session; writing the file asserts the jit tier
/// reproduces it, and both batch workloads check every session against
/// it, so the two tiers are held equal program by program.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "interp/InstructionInterpreter.h"
#include "interp/PreparedModule.h"
#include "runtime/Heap.h"
#include "runtime/Machine.h"
#include "vm/TraceVM.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

using namespace jtc;
using namespace jtcbench;

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Problems.size() < 8)
    Problems.push_back(Why);
}

std::vector<Program> jtcbench::programs(bool ServeScale) {
  std::vector<Program> Out;
  for (const WorkloadInfo &W : allWorkloads()) {
    uint32_t Scale = W.DefaultScale;
    if (ServeScale)
      Scale = std::max<uint32_t>(1, W.DefaultScale * 2 / 100);
    Out.push_back({&W, Scale});
  }
  return Out;
}

uint64_t jtcbench::outputDigest(const std::vector<int64_t> &Output) {
  uint64_t H = 1469598103934665603ull;
  for (int64_t V : Output) {
    uint64_t U = static_cast<uint64_t>(V);
    for (int I = 0; I < 8; ++I) {
      H ^= (U >> (I * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  return H;
}

double jtcbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double jtcbench::interquartileMean(std::vector<double> V) {
  if (V.size() < 4)
    return median(std::move(V));
  std::sort(V.begin(), V.end());
  size_t Lo = V.size() / 4, Hi = V.size() - V.size() / 4;
  return std::accumulate(V.begin() + Lo, V.begin() + Hi, 0.0) /
         static_cast<double>(Hi - Lo);
}

double jtcbench::percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * static_cast<double>(V.size())));
  return V[std::clamp<size_t>(Rank, 1, V.size()) - 1];
}

double jtcbench::peakRssMb(int Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool References::load(const std::string &Path, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read " + Path;
    return false;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Name;
    uint32_t Scale = 0;
    Expected E;
    SS >> Name >> Scale >> E.Instructions >> std::hex >> E.OutputDigest >>
        E.HeapDigest >> E.StatsDigest;
    if (!SS) {
      Err = "malformed line in " + Path + ": " + Line;
      return false;
    }
    Rows[{Name, Scale}] = E;
  }
  if (Rows.empty()) {
    Err = "no rows in " + Path;
    return false;
  }
  return true;
}

const Expected *References::find(const std::string &Name,
                                 uint32_t Scale) const {
  auto It = Rows.find({Name, Scale});
  return It == Rows.end() ? nullptr : &It->second;
}

int jtcbench::writeReferences(const std::string &Path) {
  std::ostringstream Out;
  Out << "# jtc-bench reference results: program scale instructions "
         "output_digest heap_digest stats_digest\n"
         "# output/heap: plain instruction interpreter; stats: cold "
         "TraceVM session (interp == jit)\n";
  for (bool Serve : {false, true})
    for (const Program &P : programs(Serve)) {
      Module M = P.Info->Build(P.Scale);
      Machine Plain(M);
      RunResult R = runInstructions(Plain);
      if (R.Status != RunStatus::Finished) {
        std::cerr << "reference: " << P.name() << " did not finish\n";
        return 1;
      }
      Expected E;
      E.Instructions = R.Instructions;
      E.OutputDigest = outputDigest(Plain.output());
      E.HeapDigest = heapDigest(Plain.heap());
      PreparedModule PM(M);
      for (backend::BackendKind K :
           {backend::BackendKind::Interp, backend::BackendKind::Jit}) {
        TraceVM VM(PM, VmOptions().backend(K));
        RunResult VR = VM.run();
        if (VR.Status != RunStatus::Finished ||
            VR.Instructions != E.Instructions ||
            outputDigest(VM.machine().output()) != E.OutputDigest ||
            heapDigest(VM.machine().heap()) != E.HeapDigest) {
          std::cerr << "reference: TraceVM disagrees with the plain "
                       "interpreter on "
                    << P.name() << "\n";
          return 1;
        }
        if (K == backend::BackendKind::Interp)
          E.StatsDigest = VM.stats().digest();
        else if (VM.stats().digest() != E.StatsDigest) {
          std::cerr << "reference: stats digest differs between tiers on "
                    << P.name() << "\n";
          return 1;
        }
      }
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\t%u\t%" PRIu64 "\t%016" PRIx64 "\t%016" PRIx64
                    "\t%016" PRIx64 "\n",
                    P.name(), P.Scale, E.Instructions, E.OutputDigest,
                    E.HeapDigest, E.StatsDigest);
      Out << Buf;
      std::cerr << "reference: " << Buf;
    }
  std::ofstream File(Path);
  File << Out.str();
  return File.good() ? 0 : 1;
}
