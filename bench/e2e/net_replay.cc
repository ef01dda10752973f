// net_replay: 8 forked peer daemons on loopback. The benchmark replays a
// seeded meeting schedule serially (closed loop, one meeting in flight) over
// one persistent control connection per daemon, then replays the same
// schedule on in-process twins and requires bit-identical scores. Messages
// are small (about 5 KB per meeting), so the network layer's share of a
// meeting is large here and nearly invisible in sim_meet.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench/e2e/e2e.h"
#include "common/random.h"
#include "core/jxp_peer.h"
#include "graph/generators.h"
#include "net/control_client.h"
#include "net/event_loop.h"
#include "net/peer_daemon.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace e2e {
namespace {

constexpr size_t kPeers = 8;
constexpr size_t kNodes = 400;
constexpr size_t kOutDegree = 3;
/// Meetings per second of --seconds over all rounds: the networked replay
/// takes about half of it on a 4-core x86 VM, the twins' replay most of
/// the rest.
constexpr double kMeetingsPerSecond = 1600;
constexpr size_t kMinMeetings = 1200;
constexpr size_t kDigestAt = 1000;
constexpr double kUpperBoundSlack = 1e-9;
constexpr double kHardCapSeconds = 120;

/// Random overlapping fragments: every page lands on its base peer and on
/// one seeded extra peer, so no fragment is empty (the net_cluster layout).
std::vector<std::vector<graph::PageId>> MakeFragments(uint64_t seed) {
  std::vector<std::vector<graph::PageId>> fragments(kPeers);
  Random rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (graph::PageId page = 0; page < kNodes; ++page) {
    const size_t base = page % kPeers;
    fragments[base].push_back(page);
    const auto extra = static_cast<size_t>(rng.NextBounded(kPeers));
    if (extra != base) fragments[extra].push_back(page);
  }
  return fragments;
}

core::JxpOptions PeerOptions() {
  core::JxpOptions options;
  options.wire_mode = core::MeetingWireMode::kMeasured;
  return options;
}

struct Daemon {
  pid_t pid = -1;
  uint16_t port = 0;
  int shutdown_fd = -1;  // Writing one byte starts the daemon's shutdown.
};

/// Child body: serve `peer` until a byte arrives on `shutdown_fd`.
int ServePeer(std::unique_ptr<core::JxpPeer> peer, uint64_t rng_seed, int shutdown_fd,
              int report_fd) {
  // Never outlive the benchmark, even when it dies without stopping us.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  net::PeerDaemonOptions options;
  options.shutdown_fd = shutdown_fd;
  options.rng_seed = rng_seed;
  options.goodbye_on_shutdown = false;
  net::EventLoop loop;
  net::PeerDaemon daemon(std::move(peer), options);
  if (!daemon.Start(&loop).ok()) return 1;
  const uint16_t port = daemon.bound_port();
  if (::write(report_fd, &port, sizeof(port)) != sizeof(port)) return 1;
  ::close(report_fd);
  loop.Run();
  return 0;
}

/// Forks one daemon owning `peer` (moved out of the child's copy of the
/// parent's memory; the parent's copy stays as the in-process twin).
bool Spawn(core::JxpPeer& peer, uint64_t rng_seed, Daemon* daemon) {
  int report[2];
  int shutdown[2];
  if (::pipe(report) != 0) return false;
  if (::pipe(shutdown) != 0) {
    ::close(report[0]);
    ::close(report[1]);
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::close(report[0]);
    ::close(shutdown[1]);
    ::_exit(ServePeer(std::make_unique<core::JxpPeer>(std::move(peer)), rng_seed,
                      shutdown[0], report[1]));
  }
  ::close(report[1]);
  ::close(shutdown[0]);
  daemon->pid = pid;
  daemon->shutdown_fd = shutdown[1];
  uint16_t port = 0;
  const ssize_t got = ::read(report[0], &port, sizeof(port));
  ::close(report[0]);
  daemon->port = port;
  return got == sizeof(port);
}

/// Stops and reaps a daemon; true when it exited with 0.
bool Stop(Daemon* daemon) {
  if (daemon->pid < 0) return true;
  const uint8_t byte = 1;
  if (::write(daemon->shutdown_fd, &byte, 1) != 1) ::kill(daemon->pid, SIGKILL);
  ::close(daemon->shutdown_fd);
  int status = 0;
  const bool reaped = ::waitpid(daemon->pid, &status, 0) == daemon->pid;
  daemon->pid = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

struct Cluster {
  graph::Graph graph;
  std::vector<double> true_pr;
  /// In-process twins, at the state the daemons started from.
  std::vector<core::JxpPeer> twins;
  std::vector<Daemon> daemons;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    for (Daemon& daemon : daemons) Stop(&daemon);
  }
};

std::unique_ptr<Cluster> BuildCluster(Result& result) {
  auto cluster = std::make_unique<Cluster>();
  Random graph_rng(kDataSeed);
  cluster->graph = graph::BarabasiAlbert(kNodes, kOutDegree, graph_rng);
  pagerank::PageRankOptions pr;
  pr.tolerance = 1e-12;
  pagerank::PageRankResult baseline = pagerank::ComputePageRank(cluster->graph, pr);
  result.Check(baseline.converged, "centralized PageRank converged");
  cluster->true_pr = std::move(baseline.scores);
  std::vector<std::vector<graph::PageId>> fragments = MakeFragments(kDataSeed);
  cluster->twins.reserve(kPeers);
  for (size_t p = 0; p < kPeers; ++p) {
    graph::Subgraph fragment =
        graph::Subgraph::Induce(cluster->graph, std::move(fragments[p]));
    cluster->twins.emplace_back(static_cast<p2p::PeerId>(p), std::move(fragment), kNodes,
                                PeerOptions());
  }
  const uint64_t spawn_start = MonotonicNanos();
  cluster->daemons.resize(kPeers);
  for (size_t p = 0; p < kPeers; ++p) {
    if (!Spawn(cluster->twins[p], kDataSeed + p, &cluster->daemons[p])) {
      result.Check(false, "daemon spawned and reported its port");
      return cluster;
    }
  }
  result.Sample("net.spawn_s", Seconds(spawn_start, MonotonicNanos()));
  return cluster;
}

/// One round: the networked replay of `meetings` seeded meetings, the twins'
/// replay of the same schedule, and the gates; stops the daemons.
void RunRound(const RunOptions& options, Cluster& cluster, bool traced, size_t meetings,
              uint64_t run_start, Result& result) {
  if (!result.correct()) return;  // A daemon failed to start.
  std::vector<Daemon>& daemons = cluster.daemons;
  std::vector<net::ControlClient> clients(kPeers);
  for (size_t p = 0; p < kPeers; ++p) {
    result.Check(clients[p].Connect(daemons[p].port).ok(), "control connection");
  }
  if (!result.correct()) return;

  // --- The measured phase: the networked replay.
  std::unique_ptr<SpanRecorder> spans;
  if (traced) spans = std::make_unique<SpanRecorder>(meetings * 2 + 16);
  RoundSchedule rounds(kPeers, options.seed ^ 0x5eed5c4edULL);
  std::vector<std::pair<size_t, size_t>> schedule;
  std::vector<double> rtt_ms;
  const uint64_t origin = MonotonicNanos();
  for (size_t m = 1; m <= meetings; ++m) {
    if (Seconds(run_start, MonotonicNanos()) > kHardCapSeconds) {
      result.Check(false, "the run finished within the time cap");
      break;
    }
    const auto [a, b] = rounds.Next();
    net::MeetResultMessage meet;
    Status status;
    const uint64_t start = MonotonicNanos();
    {
      ScopedSpan root(spans.get(), "meeting", "bench", m);
      ScopedSpan span(spans.get(), "meet_rpc", "net", m, root.id());
      status = clients[a].Meet(static_cast<uint32_t>(b), daemons[b].port, &meet);
    }
    rtt_ms.push_back(Millis(start, MonotonicNanos()));
    result.Sample(traced ? "traced.op_ms" : "op_ms", rtt_ms.back());
    const bool clean = status.ok() && meet.applied && !meet.salvaged && !meet.declined;
    result.Attempt(clean);
    result.Check(clean, "every meeting applied on both sides, nothing salvaged");
    schedule.emplace_back(a, b);
    if (!status.ok()) break;  // A broken control connection ends the replay.
  }

  // --- Daemon-side accounting.
  uint64_t dials = 0, reuses = 0, bytes_sent = 0, dial_failures = 0;
  uint64_t truncations = 0, corruptions = 0, wasted = 0;
  for (size_t p = 0; p < kPeers; ++p) {
    net::NetStatsReplyMessage stats;
    if (!clients[p].GetNetStats(&stats).ok()) {
      result.Check(false, "net stats round trip");
      continue;
    }
    dials += stats.dials;
    reuses += stats.pool_reuses;
    bytes_sent += stats.bytes_sent;
    dial_failures += stats.dial_failures;
    truncations += stats.truncations_detected;
    corruptions += stats.corruptions_detected;
    wasted += stats.wasted_bytes;
  }
  result.Check(truncations == 0, "no truncations in a clean run");
  result.Check(corruptions == 0, "no corruptions in a clean run");
  result.Check(wasted == 0, "no wasted bytes in a clean run");
  result.Check(dial_failures == 0, "no dial failures in a clean run");
  result.Value("net.dials_per_meeting",
               static_cast<double>(dials) / static_cast<double>(schedule.size()));
  result.Value("net.pool_reuse_ratio",
               dials + reuses > 0 ? static_cast<double>(reuses) / (dials + reuses) : 0.0);

  // --- The in-process twins replay the same schedule: the oracle of the
  // bit-identity gate, and the in-process cost each meeting is compared to.
  std::vector<core::JxpPeer>& twins = cluster.twins;
  double wire_bytes = 0;
  for (size_t m = 0; m < schedule.size(); ++m) {
    core::JxpPeer& a = twins[schedule[m].first];
    core::JxpPeer& b = twins[schedule[m].second];
    const uint64_t start = MonotonicNanos();
    const std::vector<uint8_t> bytes_a = a.EncodeMeetingBytes();
    const std::vector<uint8_t> bytes_b = b.EncodeMeetingBytes();
    const bool applied_a = a.ApplyMeetingBytes(bytes_b).applied;
    const bool applied_b = b.ApplyMeetingBytes(bytes_a).applied;
    const double twin_ms = Millis(start, MonotonicNanos());
    result.Check(applied_a && applied_b, "twin meeting applied");
    const auto bytes = static_cast<double>(bytes_a.size() + bytes_b.size());
    wire_bytes += bytes;
    if (!traced) {
      result.Sample("wire.bytes_per_meeting", bytes);
      result.Sample("net.twin_ms", twin_ms);
      result.Sample("net.overhead_ms", rtt_ms[m] - twin_ms);
    }
    if (m + 1 == kDigestAt) result.Digest(ScoreDigest(twins));
  }
  result.Value("net.frame_overhead_ratio", static_cast<double>(bytes_sent) / wire_bytes);

  // --- Gates: daemons bit-identical to their twins, and Thm 5.3.
  for (size_t p = 0; p < kPeers; ++p) {
    net::ScoresReplyMessage scores;
    if (!clients[p].GetScores(&scores).ok()) {
      result.Check(false, "scores round trip");
      continue;
    }
    const core::JxpPeer& twin = twins[p];
    bool identical = scores.world_score == twin.world_score() &&
                     scores.entries.size() == twin.local_scores().size();
    bool bounded = true;
    for (const net::ScoreEntry& entry : scores.entries) {
      const graph::Subgraph::LocalIndex local = twin.fragment().LocalIndexOf(entry.page);
      identical = identical && local != graph::Subgraph::kNotLocal &&
                  entry.score == twin.local_scores()[local];
      bounded = bounded && entry.page < cluster.true_pr.size() &&
                entry.score <= cluster.true_pr[entry.page] + kUpperBoundSlack;
    }
    result.Check(identical, "daemon scores bit-identical to the in-process twin");
    result.Check(bounded, "Thm 5.3: no score above true PageRank");
  }
  for (net::ControlClient& client : clients) client.Close();
  for (Daemon& daemon : daemons) {
    result.Check(Stop(&daemon), "daemon exited cleanly with 0");
  }
  if (traced) {
    result.Check(spans->dropped() == 0, "the span store held every span");
    result.Check(WriteSpans(options.out_dir + "/spans.jsonl", {spans.get()}, origin),
                 "spans.jsonl written");
  }
}

}  // namespace

void RunNetReplay(const RunOptions& options, Result& result) {
  // Control connections can meet a daemon mid-teardown; EPIPE must come
  // back as a Status, not kill the benchmark.
  ::signal(SIGPIPE, SIG_IGN);
  const size_t meetings = std::max(
      kMinMeetings, static_cast<size_t>(options.seconds * kMeetingsPerSecond / kRounds));
  const uint64_t run_start = MonotonicNanos();
  RunRounds(
      options, result, [&] { return BuildCluster(result); },
      [&](Cluster& cluster, int, bool traced) {
        RunRound(options, cluster, traced, meetings, run_start, result);
      });
}

}  // namespace e2e
}  // namespace jxp
