//===- jtcbench/Spans.cpp - In-memory span recorder -----------------------===//

#include "Spans.h"

#include <cstdio>

using namespace jtcbench;

int64_t Spans::begin(const char *Name, uint64_t Session, int64_t Parent) {
  double Now = at(Clock::now());
  std::lock_guard<std::mutex> Lock(Mutex);
  Records.push_back({Name, Session, Parent, Now, Now});
  return static_cast<int64_t>(Records.size() - 1);
}

void Spans::end(int64_t Id) {
  double Now = at(Clock::now());
  std::lock_guard<std::mutex> Lock(Mutex);
  Records[static_cast<size_t>(Id)].End = Now;
}

int64_t Spans::add(const char *Name, uint64_t Session, int64_t Parent,
                   Clock::time_point Start, Clock::time_point End) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Records.push_back({Name, Session, Parent, at(Start), at(End)});
  return static_cast<int64_t>(Records.size() - 1);
}

double Spans::total(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  double Sum = 0;
  for (const Record &R : Records)
    if (R.Name == Name)
      Sum += R.End - R.Start;
  return Sum;
}

std::map<uint64_t, double> Spans::perSession(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::map<uint64_t, double> BySession;
  for (const Record &R : Records)
    if (R.Name == Name)
      BySession[R.Session] += R.End - R.Start;
  return BySession;
}

bool Spans::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Records.size(); ++I) {
    const Record &R = Records[I];
    std::fprintf(F,
                 "{\"id\":%zu,\"name\":\"%s\",\"session\":%llu,"
                 "\"parent\":%lld,\"start_s\":%.9f,\"end_s\":%.9f}%s\n",
                 I, R.Name.c_str(), static_cast<unsigned long long>(R.Session),
                 static_cast<long long>(R.Parent), R.Start, R.End,
                 I + 1 == Records.size() ? "" : ",");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}
