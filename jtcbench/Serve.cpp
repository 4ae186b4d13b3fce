//===- jtcbench/Serve.cpp - serve-mix workload ----------------------------===//
///
/// A jtc-fleet with two shards of one worker each, on the jit tier
/// (JTC_BACKEND=jit, inherited by the shard processes). The six programs
/// are submitted as .jasm text at 2% of registry default scale.
///
/// Load is an open loop from one thread over two connections with
/// pipelined request ids: on each rung of a fixed rate ladder, a seeded
/// Poisson arrival schedule (a fixed number of arrivals, uniformly
/// placed over the rung's duration) with seeded session keys and
/// programs. One operation in fifty re-submits a program's text, as a
/// redeploy would, which drops that program's warm snapshot on every
/// shard. Latency runs from an operation's scheduled send to its reply;
/// each rung drains before the next starts. The ladder is fixed (about
/// 58 s of arrivals) and does not follow --seconds, so the latency rung
/// always holds enough sessions for its p99.
///
/// Every SessionDone is checked against the reference digests. A failure
/// is a trap, a digest mismatch, an Error frame, Backpressure or a
/// timeout.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "fleet/Supervisor.h"
#include "net/Protocol.h"
#include "text/AsmWriter.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <thread>

using namespace jtc;
using namespace jtcbench;

namespace {

/// The rate ladder (sessions per second) and arrivals per rung. The
/// middle rung carries the latency metrics and is long enough to leave
/// at least ten samples beyond its p99.
struct Rung {
  double Rate;
  unsigned Arrivals;
};
constexpr Rung Ladder[] = {{10, 10},  {15, 15},  {20, 1030},
                           {60, 90},  {90, 135}, {130, 195}};
constexpr size_t MidRung = 2;
/// serve_max_rate_sps: highest rate whose p99 stays within this limit
/// with no failures and no growing backlog.
constexpr double LatencyLimitMs = 300;
constexpr unsigned ResubmitEvery = 50;
constexpr int SetupRounds = 3;
constexpr double ReplyTimeoutSeconds = 20;

/// One scheduled operation and its outcome.
struct Op {
  bool Submit = false;
  size_t Prog = 0;
  std::string Key;
  double Due = 0; ///< Seconds after the rung starts.

  Clock::time_point Scheduled, Sent, Done;
  bool Replied = false;
  bool Ok = false;
  double ShardSeconds = 0;
  uint64_t Instructions = 0;
  uint32_t Shard = 0;
};

/// A non-blocking client connection speaking the JTCF protocol.
class Conn {
public:
  Conn() = default;
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  bool open(uint16_t Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd < 0)
      return false;
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(Port);
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
      return false;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK) == 0;
  }

  uint64_t send(net::MessageType Type, const std::vector<uint8_t> &Payload) {
    uint64_t Id = NextId++;
    std::vector<uint8_t> F = net::encodeFrame(Type, Id, Payload);
    Out.insert(Out.end(), F.begin(), F.end());
    flush();
    return Id;
  }

  bool flush() {
    while (OutOff < Out.size()) {
      ssize_t N = ::send(Fd, Out.data() + OutOff, Out.size() - OutOff,
                         MSG_NOSIGNAL);
      if (N < 0)
        return errno == EAGAIN || errno == EWOULDBLOCK;
      OutOff += static_cast<size_t>(N);
    }
    Out.clear();
    OutOff = 0;
    return true;
  }

  bool wantsWrite() const { return OutOff < Out.size(); }

  /// Reads what is available; false on EOF, a socket error or a framing
  /// error.
  bool read(std::vector<net::Frame> &Frames) {
    uint8_t Buf[65536];
    for (;;) {
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N == 0)
        return false;
      if (N < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK)
          break;
        return false;
      }
      Reader.feed(Buf, static_cast<size_t>(N));
    }
    net::Frame F;
    while (Reader.next(F))
      Frames.push_back(std::move(F));
    return !Reader.failed();
  }

  int fd() const { return Fd; }

private:
  int Fd = -1;
  net::FrameReader Reader;
  std::vector<uint8_t> Out;
  size_t OutOff = 0;
  uint64_t NextId = 1;
};

struct ServeProgram {
  Program P;
  std::string Name; ///< Name submitted under.
  std::string Jasm;
  const Expected *E = nullptr;
};

/// The load generator's side of one fleet: two connections and the
/// programs it submits.
class Client {
public:
  Client(const std::vector<ServeProgram> &Progs, Report &R, Spans *Trace)
      : Progs(Progs), R(R), Trace(Trace) {}

  bool connect(uint16_t Port) {
    return Conns[0].open(Port) && Conns[1].open(Port);
  }

  /// Runs \p Ops on their schedule from \p Start and waits for every
  /// reply (or the timeout); every operation left without a reply counts
  /// as failed. Returns false when a connection broke.
  bool run(std::vector<Op> &Ops, Clock::time_point Start, uint64_t SpanBase);

  /// Sends FetchStats and returns the fleet-summed counters.
  std::map<std::string, uint64_t> fetchStats();

  const std::vector<double> &submitLatencies() const { return SubmitMs; }
  uint64_t protocolErrors() const { return ProtocolErrors; }

private:
  void handle(Op &O, const net::Frame &F);

  const std::vector<ServeProgram> &Progs;
  Report &R;
  Spans *Trace;
  Conn Conns[2];
  std::vector<double> SubmitMs;
  uint64_t ProtocolErrors = 0;
};

void Client::handle(Op &O, const net::Frame &F) {
  O.Done = Clock::now();
  O.Replied = true;
  const ServeProgram &SP = Progs[O.Prog];
  net::NetError Err;
  if (O.Submit) {
    O.Ok = F.Type == net::MessageType::SubmitAck;
    SubmitMs.push_back(
        std::chrono::duration<double, std::milli>(O.Done - O.Sent).count());
    if (!O.Ok)
      R.fail(SP.Name + ": submit refused");
    return;
  }
  if (F.Type == net::MessageType::Backpressure) {
    R.fail(SP.Name + ": backpressure");
    return;
  }
  if (F.Type != net::MessageType::SessionDone) {
    net::ErrorMsg M;
    R.fail(SP.Name + ": " + net::messageTypeName(F.Type) + " reply" +
           (F.Type == net::MessageType::Error && M.decode(F.Payload, Err)
                ? ": " + M.Detail
                : ""));
    return;
  }
  net::SessionDoneMsg D;
  if (!D.decode(F.Payload, Err)) {
    ++ProtocolErrors;
    R.fail(SP.Name + ": undecodable SessionDone");
    return;
  }
  O.ShardSeconds = D.Seconds;
  O.Instructions = D.Instructions;
  O.Shard = D.Shard;
  if (!SP.E)
    R.fail(SP.Name + ": no reference row");
  else if (D.Status != static_cast<uint8_t>(RunStatus::Finished) ||
           D.Instructions != SP.E->Instructions ||
           D.OutputDigest != SP.E->OutputDigest ||
           D.HeapDigest != SP.E->HeapDigest)
    R.fail(SP.Name + ": result differs from reference");
  else
    O.Ok = true;
}

bool Client::run(std::vector<Op> &Ops, Clock::time_point Start,
                 uint64_t SpanBase) {
  std::map<std::pair<int, uint64_t>, size_t> Pending;
  size_t Next = 0;
  bool Healthy = true;
  auto dueAt = [&](size_t I) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(Ops[I].Due));
  };
  Clock::time_point Deadline =
      (Ops.empty() ? Start : dueAt(Ops.size() - 1)) +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(ReplyTimeoutSeconds));
  while (Healthy && (Next < Ops.size() || !Pending.empty())) {
    Clock::time_point Now = Clock::now();
    for (; Next < Ops.size() && dueAt(Next) <= Now; ++Next) {
      Op &O = Ops[Next];
      int C = static_cast<int>(Next % 2);
      O.Scheduled = dueAt(Next);
      O.Sent = Clock::now();
      uint64_t Id;
      if (O.Submit) {
        net::SubmitProgramMsg M;
        M.Name = Progs[O.Prog].Name;
        M.Jasm = Progs[O.Prog].Jasm;
        Id = Conns[C].send(net::MessageType::SubmitProgram, M.encode());
      } else {
        net::RunSessionMsg M;
        M.SessionKey = O.Key;
        M.Module = Progs[O.Prog].Name;
        Id = Conns[C].send(net::MessageType::RunSession, M.encode());
      }
      Pending[{C, Id}] = Next;
    }
    if (Now > Deadline)
      break;
    Clock::time_point WakeAt =
        Next < Ops.size() ? std::min(dueAt(Next), Deadline)
                          : std::min(Now + std::chrono::milliseconds(50),
                                     Deadline);
    auto Wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::max(WakeAt - Now, Clock::duration::zero()));
    timespec Ts{static_cast<time_t>(Wait.count() / 1000000000),
                static_cast<long>(Wait.count() % 1000000000)};
    pollfd Fds[2];
    for (int C = 0; C < 2; ++C)
      Fds[C] = {Conns[C].fd(),
                static_cast<short>(POLLIN |
                                   (Conns[C].wantsWrite() ? POLLOUT : 0)),
                0};
    if (::ppoll(Fds, 2, &Ts, nullptr) < 0 && errno != EINTR) {
      Healthy = false;
      break;
    }
    for (int C = 0; C < 2; ++C) {
      if (Fds[C].revents & POLLOUT)
        Healthy = Conns[C].flush() && Healthy;
      if (!(Fds[C].revents & (POLLIN | POLLERR | POLLHUP)))
        continue;
      std::vector<net::Frame> Frames;
      if (!Conns[C].read(Frames)) {
        ++ProtocolErrors;
        Healthy = false;
      }
      for (const net::Frame &F : Frames) {
        auto It = Pending.find({C, F.RequestId});
        if (It == Pending.end()) {
          ++ProtocolErrors;
          continue;
        }
        Op &O = Ops[It->second];
        handle(O, F);
        // Spans are recorded for every other operation only, so the two
        // halves of a rung give the tracing overhead.
        if (Trace && It->second % 2 == 0) {
          uint64_t Session = SpanBase + It->second;
          Trace->add("loadgen.wait", Session, Spans::NoParent, O.Scheduled,
                     O.Sent);
          Trace->add(O.Submit ? "jtcf.submit" : "jtcf.session", Session,
                     Spans::NoParent, O.Sent, O.Done);
        }
        Pending.erase(It);
      }
    }
  }
  for (const auto &[Where, I] : Pending)
    R.fail(Progs[Ops[I].Prog].Name + ": no reply (timeout)");
  for (; Next < Ops.size(); ++Next)
    R.fail(Progs[Ops[Next].Prog].Name + ": not sent (connection lost)");
  return Healthy;
}

std::map<std::string, uint64_t> Client::fetchStats() {
  std::map<std::string, uint64_t> Out;
  uint64_t Id = Conns[0].send(net::MessageType::FetchStats, {});
  Clock::time_point Deadline = Clock::now() + std::chrono::seconds(10);
  while (Clock::now() < Deadline) {
    pollfd Fd{Conns[0].fd(), POLLIN, 0};
    ::poll(&Fd, 1, 100);
    std::vector<net::Frame> Frames;
    if (!Conns[0].read(Frames))
      return Out;
    for (const net::Frame &F : Frames) {
      net::StatsReplyMsg M;
      net::NetError Err;
      if (F.RequestId == Id && F.Type == net::MessageType::StatsReply &&
          M.decode(F.Payload, Err)) {
        for (const auto &[Key, V] : M.Counters)
          Out[Key] = V;
        return Out;
      }
    }
  }
  return Out;
}

/// The seeded schedule of one rung: \p Arrivals sorted uniform arrival
/// times over Arrivals / Rate seconds (a Poisson process conditioned on
/// its count). Programs come in equal shares in a seeded order, with
/// seeded session keys; every ResubmitEvery-th operation (from a seeded
/// offset) re-submits the next program of a seeded rotation instead.
std::vector<Op> schedule(const Rung &G, size_t NumProgs,
                         std::mt19937_64 &Rng) {
  std::vector<Op> Ops(G.Arrivals);
  double Span = G.Arrivals / G.Rate;
  std::vector<double> Times;
  for (unsigned I = 0; I < G.Arrivals; ++I)
    Times.push_back(static_cast<double>(Rng() >> 11) * 0x1.0p-53 * Span);
  std::sort(Times.begin(), Times.end());
  std::vector<size_t> Mix(G.Arrivals);
  for (unsigned I = 0; I < G.Arrivals; ++I)
    Mix[I] = I % NumProgs;
  shuffle(Mix, Rng);
  unsigned Offset = static_cast<unsigned>(Rng() % ResubmitEvery);
  size_t Rotation = static_cast<size_t>(Rng() % NumProgs);
  for (unsigned I = 0; I < G.Arrivals; ++I) {
    Op &O = Ops[I];
    O.Due = Times[I];
    O.Submit = I % ResubmitEvery == Offset;
    O.Prog = O.Submit ? Rotation++ % NumProgs : Mix[I];
    char Key[32];
    std::snprintf(Key, sizeof(Key), "k%016llx",
                  static_cast<unsigned long long>(Rng()));
    O.Key = Key;
  }
  return Ops;
}

/// Latency in ms of every session in \p Ops, from its scheduled send.
std::vector<double> sessionLatencies(const std::vector<Op> &Ops) {
  std::vector<double> Out;
  for (const Op &O : Ops)
    if (!O.Submit && O.Replied)
      Out.push_back(std::chrono::duration<double, std::milli>(O.Done -
                                                              O.Scheduled)
                        .count());
  return Out;
}

struct RungResult {
  double P99Ms = 0;
  bool Pass = false;
};

/// A rung passes when p99 stays within the limit, nothing failed, and
/// the backlog drained within the limit after the last arrival.
RungResult judge(const std::vector<Op> &Ops, uint64_t FailedBefore,
                 uint64_t FailedAfter) {
  RungResult G;
  G.P99Ms = percentile(sessionLatencies(Ops), 0.99);
  Clock::time_point LastDone = Ops.front().Done, LastDue = Ops.back().Scheduled;
  bool AllReplied = true;
  for (const Op &O : Ops) {
    LastDone = std::max(LastDone, O.Done);
    AllReplied = AllReplied && O.Replied;
  }
  double DrainMs =
      std::chrono::duration<double, std::milli>(LastDone - LastDue).count();
  G.Pass = AllReplied && FailedAfter == FailedBefore &&
           G.P99Ms <= LatencyLimitMs && DrainMs <= LatencyLimitMs;
  return G;
}

/// The highest passing rung's rate, refined toward the next (failing)
/// rung by interpolating log(p99) to the limit, so the figure moves with
/// capacity continuously instead of by whole rungs. Below a failing
/// first rung it scales that rung's rate by limit / p99.
double maxRate(const std::vector<RungResult> &Rungs) {
  size_t N = Rungs.size();
  size_t Best = N;
  for (size_t I = 0; I < N; ++I)
    if (Rungs[I].Pass)
      Best = I;
  if (Best == N)
    return Ladder[0].Rate * LatencyLimitMs / std::max(Rungs[0].P99Ms, 1e-9);
  if (Best + 1 == N)
    return Ladder[Best].Rate;
  double Lo = std::log(std::max(Rungs[Best].P99Ms, 1e-9));
  double Hi = std::log(std::max(Rungs[Best + 1].P99Ms, 1e-9));
  double F = Hi > Lo ? (std::log(LatencyLimitMs) - Lo) / (Hi - Lo) : 0;
  return Ladder[Best].Rate +
         (Ladder[Best + 1].Rate - Ladder[Best].Rate) * std::clamp(F, 0.0, 1.0);
}

/// Runs \p Body on a thread while this thread polls the supervisor.
template <typename Fn> void whilePolling(fleet::FleetSupervisor &Fleet, Fn Body) {
  std::atomic<bool> Done{false};
  std::thread T([&] {
    Body();
    Done = true;
  });
  while (!Done)
    Fleet.poll(2);
  T.join();
}

} // namespace

std::string jtcbench::serveLadderJson() {
  std::string S = "{\"rungs\": [";
  for (size_t I = 0; I < std::size(Ladder); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%s[%g, %u]", I ? ", " : "",
                  Ladder[I].Rate, Ladder[I].Arrivals);
    S += Buf;
  }
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "], \"latency_rung\": %zu, \"latency_limit_ms\": %g, "
                "\"resubmit_every\": %u}",
                MidRung, LatencyLimitMs, ResubmitEvery);
  return S + Buf;
}

uint64_t jtcbench::serveScheduleDigest(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<int64_t> Sequence;
  for (const Rung &G : Ladder)
    for (const Op &O : schedule(G, allWorkloads().size(), Rng)) {
      Sequence.push_back(static_cast<int64_t>(O.Due * 1e9));
      Sequence.push_back(static_cast<int64_t>(O.Prog * 2 + O.Submit));
      Sequence.insert(Sequence.end(), O.Key.begin(), O.Key.end());
    }
  return outputDigest(Sequence);
}

void jtcbench::runServe(const Args &A, const References &Ref, Report &R,
                        Spans *Trace) {
  ::setenv("JTC_BACKEND", "jit", 1);
  std::vector<ServeProgram> Progs;
  for (const Program &P : programs(/*ServeScale=*/true))
    Progs.push_back({P, std::string(P.name()) + ".s" + std::to_string(P.Scale),
                     moduleToString(P.Info->Build(P.Scale)),
                     Ref.find(P.name(), P.Scale)});

  fleet::FleetOptions FO;
  FO.Shards = 2;
  FO.Workers = 1;
  FO.MaxQueueDepth = 1u << 16; // Queueing shows as latency, not refusals.
  FO.ShardBinary = JTC_FLEET_BIN;

  // Set-up: spawn the fleet, get all six programs acknowledged, run one
  // warm-up session per program. Repeated; the last fleet serves the
  // ladder.
  std::vector<double> SetupTimes;
  std::unique_ptr<fleet::FleetSupervisor> Fleet;
  std::unique_ptr<Client> Cl;
  for (int Round = 0; Round < SetupRounds; ++Round) {
    if (Fleet)
      Fleet->shutdown();
    Clock::time_point T0 = Clock::now();
    Fleet = std::make_unique<fleet::FleetSupervisor>(FO);
    std::string Err;
    if (!Fleet->start(Err)) {
      R.fail("fleet start: " + Err);
      return;
    }
    Cl = std::make_unique<Client>(Progs, R, Trace);
    bool Ok = true;
    whilePolling(*Fleet, [&] {
      if (!Cl->connect(Fleet->frontPort())) {
        Ok = false;
        return;
      }
      std::vector<Op> Submits(Progs.size()), Warmups(Progs.size());
      for (size_t I = 0; I < Progs.size(); ++I) {
        Submits[I].Submit = true;
        Submits[I].Prog = Warmups[I].Prog = I;
        Warmups[I].Key = "warmup-" + std::to_string(I);
      }
      R.Attempted += Submits.size() + Warmups.size();
      Ok = Cl->run(Submits, Clock::now(), 0) &&
           Cl->run(Warmups, Clock::now(), 0);
    });
    if (!Ok) {
      R.fail("fleet set-up failed");
      return;
    }
    SetupTimes.push_back(secondsSince(T0));
  }

  // The ladder.
  std::mt19937_64 Rng(A.Seed);
  std::vector<std::vector<Op>> Rungs;
  for (const Rung &G : Ladder)
    Rungs.push_back(schedule(G, Progs.size(), Rng));
  std::vector<RungResult> Results;
  std::map<std::string, uint64_t> FleetCounters;
  double ShardRssMb = 0;
  whilePolling(*Fleet, [&] {
    for (size_t I = 0; I < Rungs.size(); ++I) {
      uint64_t FailedBefore = R.Failed;
      R.Attempted += Rungs[I].size();
      Cl->run(Rungs[I], Clock::now() + std::chrono::milliseconds(20),
              100000 * (I + 1));
      Results.push_back(judge(Rungs[I], FailedBefore, R.Failed));
    }
    FleetCounters = Cl->fetchStats();
  });
  for (unsigned S = 0; S < Fleet->numShards(); ++S)
    ShardRssMb += peakRssMb(static_cast<int>(Fleet->shardPid(S)));
  uint64_t SupervisorProtocolErrors = Fleet->netCounters().ProtocolErrors;
  Fleet->shutdown();

  const std::vector<Op> &Mid = Rungs[MidRung];
  std::vector<double> MidLatencies = sessionLatencies(Mid);
  std::fprintf(stderr, "serve-mix ladder (limit %.0f ms):\n", LatencyLimitMs);
  for (size_t I = 0; I < Results.size(); ++I) {
    std::vector<double> L = sessionLatencies(Rungs[I]);
    std::fprintf(stderr,
                 "  %6.0f/s n=%zu p50=%.2fms p90=%.2fms p95=%.2fms "
                 "p99=%.2fms %s\n",
                 Ladder[I].Rate, L.size(), percentile(L, 0.5),
                 percentile(L, 0.9), percentile(L, 0.95), Results[I].P99Ms,
                 Results[I].Pass ? "pass" : "FAIL");
  }
  std::fprintf(stderr, "  max rate within the limit: %.2f/s\n",
               maxRate(Results));

  if (Trace) {
    std::vector<double> Overhead, Late, ShardMs;
    std::map<uint32_t, double> PerShard;
    for (const Op &O : Mid) {
      if (O.Submit || !O.Replied)
        continue;
      PerShard[O.Shard] += 1;
      double ClientMs =
          std::chrono::duration<double, std::milli>(O.Done - O.Sent).count();
      Overhead.push_back(ClientMs - O.ShardSeconds * 1e3);
      ShardMs.push_back(O.ShardSeconds * 1e3);
    }
    for (const std::vector<Op> &Ops : Rungs)
      for (const Op &O : Ops)
        Late.push_back(
            std::chrono::duration<double, std::milli>(O.Sent - O.Scheduled)
                .count());
    uint64_t Warm = FleetCounters["warm-starts"];
    uint64_t Cold = FleetCounters["cold-starts"];
    uint64_t Backpressure = 0;
    for (const auto &[Key, V] : FleetCounters)
      if (Key.find("backpressure") != std::string::npos)
        Backpressure += V;
    std::vector<double> TracedMs, UntracedMs;
    for (size_t I = 0; I < Mid.size(); ++I)
      if (!Mid[I].Submit && Mid[I].Replied)
        (I % 2 == 0 ? TracedMs : UntracedMs)
            .push_back(std::chrono::duration<double, std::milli>(
                           Mid[I].Done - Mid[I].Scheduled)
                           .count());
    R.add("bench.tracing_overhead",
          median(TracedMs) / median(UntracedMs) - 1, "ratio");
    R.add("fleet.submit_ms", median(Cl->submitLatencies()), "ms");
    R.add("fleet.shard_run_ms", median(ShardMs), "ms");
    R.add("fleet.warm_share",
          Warm + Cold ? static_cast<double>(Warm) /
                            static_cast<double>(Warm + Cold)
                      : 0.0,
          "ratio");
    R.add("fleet.overhead_ms_p50", percentile(Overhead, 0.5), "ms");
    R.add("fleet.overhead_ms_p99", percentile(Overhead, 0.99), "ms");
    double Busiest = 0;
    for (const auto &[Shard, N] : PerShard)
      Busiest = std::max(Busiest, N / static_cast<double>(ShardMs.size()));
    R.add("fleet.route_share_max", Busiest, "ratio");
    R.add("fleet.backpressure", static_cast<double>(Backpressure), "count");
    R.add("net.protocol_errors",
          static_cast<double>(FleetCounters["protocol-errors"] +
                              SupervisorProtocolErrors +
                              Cl->protocolErrors()),
          "count");
    R.add("loadgen.late_ms_p99", percentile(Late, 0.99), "ms");
    // Serving latency and capacity. Reported with the layers, without a
    // bound: on a shared 4-core host they move with the host by more than
    // the largest bound a gated metric may have.
    R.add("serve.p50_ms", percentile(MidLatencies, 0.50), "ms");
    R.add("serve.p99_ms", percentile(MidLatencies, 0.99), "ms");
    R.add("serve.max_rate_sps", maxRate(Results), "1/s");
    probeLayers(programs(/*ServeScale=*/true), /*Jit=*/true, /*Serve=*/true,
                R, *Trace);
    return;
  }

  std::vector<std::vector<double>> PerProgram(Progs.size());
  std::vector<uint64_t> ProgramInstructions(Progs.size());
  for (const Op &O : Mid)
    if (!O.Submit && O.Ok) {
      ProgramInstructions[O.Prog] = O.Instructions;
      PerProgram[O.Prog].push_back(O.ShardSeconds);
    }
  // A pass at median speed: one session of each program over the sum of
  // their median session times, so the few sessions the host holds up do
  // not move it.
  double Instructions = 0, ShardSeconds = 0;
  for (size_t I = 0; I < Progs.size(); ++I) {
    Instructions += static_cast<double>(ProgramInstructions[I]);
    ShardSeconds += median(PerProgram[I]);
  }
  R.add("setup_s", median(SetupTimes), "s");
  R.add("peak_rss_mb", ShardRssMb, "MiB");
  R.add("guest_mips", ShardSeconds > 0 ? Instructions / ShardSeconds / 1e6 : 0,
        "Minstr/s");
  for (size_t I = 0; I < Progs.size(); ++I)
    R.add(std::string("run_s.") + Progs[I].P.name(), median(PerProgram[I]),
          "s");
}
