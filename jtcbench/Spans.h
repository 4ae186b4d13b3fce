//===- jtcbench/Spans.h - In-memory span recorder ---------------*- C++ -*-===//
///
/// \file
/// The traced run's spans: one per call into a layer, each with a name,
/// a start, an end, the span that caused it, and the id of the session
/// (or set-up round) it belongs to. Spans stay in memory and are written
/// out as one JSON document when the run ends. Per-layer metrics are
/// sums and medians of span durations by name.
///
/// A null Spans pointer means tracing is off: ScopedSpan then does
/// nothing, so untraced runs pay one branch per layer call.
///
//===----------------------------------------------------------------------===//

#ifndef JTC_BENCH_SPANS_H
#define JTC_BENCH_SPANS_H

#include "Bench.h"

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace jtcbench {

class Spans {
public:
  static constexpr int64_t NoParent = -1;

  struct Record {
    std::string Name;
    uint64_t Session = 0;
    int64_t Parent = NoParent;
    double Start = 0; ///< Seconds since the recorder was created.
    double End = 0;
  };

  Spans() : Origin(Clock::now()) {}

  /// Opens a span now; returns its id for end() and as a parent.
  int64_t begin(const char *Name, uint64_t Session, int64_t Parent);
  void end(int64_t Id);
  /// Records a span whose bounds were taken elsewhere.
  int64_t add(const char *Name, uint64_t Session, int64_t Parent,
              Clock::time_point Start, Clock::time_point End);

  /// Seconds spent in spans named \p Name.
  double total(const std::string &Name) const;
  /// Seconds spent in spans named \p Name, per session id.
  std::map<uint64_t, double> perSession(const std::string &Name) const;

  /// Writes every span as a JSON array; false on I/O failure.
  bool write(const std::string &Path) const;

private:
  double at(Clock::time_point T) const {
    return std::chrono::duration<double>(T - Origin).count();
  }

  const Clock::time_point Origin;
  mutable std::mutex Mutex; ///< Guards Records (the serve loadgen thread
                            ///< and the main thread both record).
  std::vector<Record> Records;
};

/// RAII span; a no-op when \p S is null.
class ScopedSpan {
public:
  ScopedSpan(Spans *S, const char *Name, uint64_t Session,
             int64_t Parent = Spans::NoParent)
      : S(S), Id(S ? S->begin(Name, Session, Parent) : Spans::NoParent) {}
  ~ScopedSpan() {
    if (S)
      S->end(Id);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int64_t id() const { return Id; }

private:
  Spans *S;
  int64_t Id;
};

} // namespace jtcbench

#endif // JTC_BENCH_SPANS_H
