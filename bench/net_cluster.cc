// Multi-process loopback cluster driver (DESIGN.md §6k): builds N JXP peers
// in-process as twins, forks one peer daemon per twin from the twin's
// initial state, and checks the networked cluster against the twins. The
// twins run a seeded meeting schedule with JxpPeer::Meet, the same encode →
// apply calls the daemons make, so the two sides are comparable bit for bit.
//
// The replay arm (default) commands the twins' schedule through the control
// protocol, SIGTERMs peer 0 halfway and restarts it from its checkpoint, and
// verifies that every daemon ends *bit-identical* to its twin. With --chaos,
// every daemon fronts itself with a fault-injecting proxy and the run instead
// verifies crash-free degradation plus exact injected-vs-detected fault
// accounting.
//
// With --self-scheduled, the daemons drive their own meetings
// (MeetingScheduler + ConnectionPool, DESIGN.md §6l) and the driver samples
// wall-clock vs accuracy until the cluster reaches the accuracy the twins
// had after --meetings meetings (fig. 4 analogue), checking Thm 5.3 at every
// sample and that pooled dials stay strictly below meetings.
//
//   net_cluster --peers=8 --meetings=64 --nodes=400 --seed=7
//       --out-dir=/tmp/net_cluster [--check-every=16] [--chaos --drop=0.05
//       --truncate=0.05 --corrupt=0.05] [--self-scheduled
//       --sample-every-ms=250 --max-wall-ms=60000 --target-slack=1.10]
//
// Exit code 0 = all checks passed. Per-daemon JSONL telemetry is written to
// <out-dir>/peer_<id>.jsonl (plus self_scheduled.jsonl samples in the
// self-scheduled arm); the driver prints a one-line JSON summary.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "core/evaluation.h"
#include "core/jxp_peer.h"
#include "core/state_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "metrics/ranking.h"
#include "net/chaos_proxy.h"
#include "net/control_client.h"
#include "net/event_loop.h"
#include "net/peer_daemon.h"
#include "obs/json_writer.h"
#include "pagerank/pagerank.h"

namespace jxp {
namespace {

/// The replay arm SIGTERMs this peer halfway through the schedule and
/// restarts it from its checkpoint.
constexpr size_t kRestartPeer = 0;
/// Self-scheduled cadence: meeting interval plus jitter, and gossip interval.
constexpr uint64_t kMeetIntervalMs = 40;
constexpr uint64_t kMeetJitterMs = 40;
constexpr uint64_t kGossipIntervalMs = 100;
/// Replay keeps the daemon default (5000 ms); the self-scheduled arm drops
/// to 1000 ms so dial collisions (both daemons mid-MeetPeer at each other)
/// resolve quickly.
constexpr uint64_t kSelfScheduledIoTimeoutMs = 1000;
/// Centralized baseline, as the simulator computes it.
constexpr double kBaselineTolerance = 1e-12;
constexpr int kBaselineMaxIterations = 500;
constexpr size_t kEvalTopK = 1000;
/// Thm 5.3 check: a networked score may exceed true PageRank by this much.
constexpr double kUpperBoundSlack = 1e-9;

struct ClusterConfig {
  size_t peers = 8;
  size_t meetings = 64;
  size_t nodes = 400;
  uint64_t seed = 7;
  std::string out_dir = "/tmp/net_cluster";
  /// Thm 5.3 sampling cadence (meetings between checkpoints).
  size_t check_every = 16;
  bool chaos = false;
  double drop = 0.05;
  double truncate = 0.05;
  double corrupt = 0.05;

  /// Fig. 4 analogue (DESIGN.md §6l): instead of replaying the twins'
  /// schedule, daemons run their own MeetingScheduler and the driver only
  /// samples wall-clock vs accuracy until the cluster reaches the accuracy
  /// the twins had after `meetings` meetings.
  bool self_scheduled = false;
  uint64_t sample_every_ms = 250;
  uint64_t max_wall_ms = 60000;
  /// Networked target = twins' footrule * slack + 1e-6 (the networked
  /// schedule differs, so exact equality is not the bar — reaching the same
  /// accuracy regime is).
  double target_slack = 1.10;
};

core::JxpOptions PeerOptions() {
  core::JxpOptions options;
  options.wire_mode = core::MeetingWireMode::kMeasured;
  return options;
}

/// Random overlapping fragments: every node lands on 2 peers, and every
/// peer gets a contiguous base share so none is empty.
std::vector<std::vector<graph::PageId>> MakeFragments(size_t nodes, size_t peers,
                                                      uint64_t seed) {
  std::vector<std::vector<graph::PageId>> fragments(peers);
  Random rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (graph::PageId page = 0; page < nodes; ++page) {
    const size_t base = page % peers;
    fragments[base].push_back(page);
    const size_t extra = static_cast<size_t>(rng.NextBounded(peers));
    if (extra != base) fragments[extra].push_back(page);
  }
  return fragments;
}

std::string StatePath(const std::string& dir, const char* kind, size_t peer) {
  return dir + "/" + kind + "_peer_" + std::to_string(peer) + ".jxp";
}

std::string TelemetryPath(const std::string& dir, size_t peer) {
  return dir + "/peer_" + std::to_string(peer) + ".jsonl";
}

// ---------------------------------------------------------------------------
// Daemon child process.

int g_shutdown_write_fd = -1;

void OnSigTerm(int) {
  const uint8_t byte = 1;
  // write() is async-signal-safe; everything else happens on the loop.
  (void)!::write(g_shutdown_write_fd, &byte, 1);
}

/// Child body: load state, serve until SIGTERM, checkpoint, dump telemetry,
/// exit 0. Reports "<bound_port> <advertised_port>\n" on `report_fd`.
/// `seeds` pre-populates the gossip directory (self-scheduled bootstrap:
/// each daemon knows the ones spawned before it; gossip spreads the rest).
int RunDaemon(const ClusterConfig& config, size_t peer_id,
              const std::string& state_in,
              const std::vector<net::GossipEntry>& seeds, int report_fd) {
  StatusOr<core::JxpPeer> loaded = core::LoadPeerState(state_in, PeerOptions());
  if (!loaded.ok()) {
    std::fprintf(stderr, "peer %zu: load failed: %s\n", peer_id,
                 loaded.status().ToString().c_str());
    return 1;
  }

  int shutdown_pipe[2];
  if (::pipe(shutdown_pipe) != 0) return 1;
  g_shutdown_write_fd = shutdown_pipe[1];
  struct sigaction action = {};
  action.sa_handler = OnSigTerm;
  ::sigaction(SIGTERM, &action, nullptr);

  net::PeerDaemonOptions options;
  options.state_path = StatePath(config.out_dir, "ckpt", peer_id);
  options.shutdown_fd = shutdown_pipe[0];
  options.rng_seed = config.seed + peer_id;
  if (config.self_scheduled) {
    options.io_timeout_ms = kSelfScheduledIoTimeoutMs;
    options.seed_peers = seeds;
    options.gossip_interval_ms = kGossipIntervalMs;
    options.scheduler.enabled = true;
    options.scheduler.interval_ms = kMeetIntervalMs;
    options.scheduler.jitter_ms = kMeetJitterMs;
  }
  net::EventLoop loop;
  net::PeerDaemon daemon(std::make_unique<core::JxpPeer>(std::move(loaded.value())),
                         options);
  if (Status status = daemon.Start(&loop); !status.ok()) {
    std::fprintf(stderr, "peer %zu: start failed: %s\n", peer_id,
                 status.ToString().c_str());
    return 1;
  }

  std::unique_ptr<net::ChaosProxy> proxy;
  if (config.chaos) {
    net::ChaosProxyOptions proxy_options;
    proxy_options.target_port = daemon.bound_port();
    proxy_options.plan.message_drop_probability = config.drop;
    proxy_options.plan.truncation_probability = config.truncate;
    proxy_options.plan.corruption_probability = config.corrupt;
    proxy_options.plan.seed = config.seed * 1000003 + peer_id;
    proxy = std::make_unique<net::ChaosProxy>(proxy_options);
    if (Status status = proxy->Start(); !status.ok()) {
      std::fprintf(stderr, "peer %zu: proxy start failed: %s\n", peer_id,
                   status.ToString().c_str());
      return 1;
    }
    daemon.set_advertised_port(proxy->bound_port());
  }

  char report[64];
  std::snprintf(report, sizeof(report), "%u %u\n", daemon.bound_port(),
                daemon.advertised_port());
  if (::write(report_fd, report, std::strlen(report)) < 0) return 1;
  ::close(report_fd);

  loop.Run();  // Until SIGTERM -> shutdown_fd -> BeginShutdown -> Stop.
  if (proxy != nullptr) proxy->Stop();

  // Per-peer JSONL telemetry: one line of final accounting, aggregated by
  // the driver after the children exit. The keys are the net-stats field
  // names, then the peer's world score, then (under --chaos) the
  // injector's counts.
  const net::NetStatsReplyMessage net_stats = daemon.BuildNetStats();
  obs::JsonWriter line;
  for (const net::NetStatsField& field : net::NetStatsFields()) {
    line.Field(field.name, net_stats.*field.member);
  }
  line.Field("world_score", daemon.peer().world_score());
  if (proxy != nullptr) {
    const net::ChaosProxyStats injected = proxy->stats();
    line.Field("injected_dropped", injected.blobs_dropped)
        .Field("injected_truncated", injected.blobs_truncated)
        .Field("injected_corrupted", injected.blobs_corrupted)
        .Field("blobs_forwarded", injected.blobs_forwarded);
  }
  std::ofstream out(TelemetryPath(config.out_dir, peer_id), std::ios::app);
  out << line.TakeLine() << "\n";
  return out.good() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Driver.

struct Child {
  pid_t pid = -1;
  uint16_t bound_port = 0;
  uint16_t advertised_port = 0;
};

/// Forks one daemon child and reads back its ports.
bool SpawnDaemon(const ClusterConfig& config, size_t peer_id,
                 const std::string& state_in,
                 const std::vector<net::GossipEntry>& seeds, Child* child) {
  int report_pipe[2];
  if (::pipe(report_pipe) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // Never outlive the driver, even when it dies without stopping us.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::close(report_pipe[0]);
    ::_exit(RunDaemon(config, peer_id, state_in, seeds, report_pipe[1]));
  }
  ::close(report_pipe[1]);
  char buffer[64] = {};
  size_t filled = 0;
  while (filled < sizeof(buffer) - 1) {
    const ssize_t got = ::read(report_pipe[0], buffer + filled,
                               sizeof(buffer) - 1 - filled);
    if (got <= 0) break;
    filled += static_cast<size_t>(got);
    if (std::memchr(buffer, '\n', filled) != nullptr) break;
  }
  ::close(report_pipe[0]);
  unsigned bound = 0, advertised = 0;
  if (std::sscanf(buffer, "%u %u", &bound, &advertised) != 2) {
    std::fprintf(stderr, "driver: peer %zu failed to report ports\n", peer_id);
    return false;
  }
  child->pid = pid;
  child->bound_port = static_cast<uint16_t>(bound);
  child->advertised_port = static_cast<uint16_t>(advertised);
  return true;
}

/// SIGTERMs a child and reaps it; true iff it exited cleanly with 0.
bool StopDaemon(Child* child) {
  if (child->pid < 0) return true;
  ::kill(child->pid, SIGTERM);
  int wstatus = 0;
  if (::waitpid(child->pid, &wstatus, 0) != child->pid) return false;
  child->pid = -1;
  return WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
}

/// The cluster under test and its in-process oracle: the twins, the true
/// PageRank and its top-k, built as JxpSimulation builds its peers and
/// baseline, plus the forked daemons and the driver's failure count.
struct Cluster {
  explicit Cluster(const ClusterConfig& cluster_config) : config(cluster_config) {}

  void Check(bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "driver: CHECK FAILED: %s\n", what);
      ++failures;
    }
  }

  /// Builds the twins and the baseline, writes each twin's initial state,
  /// and forks one daemon per twin from it. Daemon i is seeded with daemons
  /// 0..i-1 (the self-scheduled bootstrap; replay daemons ignore seeds).
  bool Setup() {
    const std::string mkdir = "mkdir -p " + config.out_dir;
    if (std::system(mkdir.c_str()) != 0) return false;
    for (size_t peer = 0; peer < config.peers; ++peer) {
      std::remove(TelemetryPath(config.out_dir, peer).c_str());
    }

    Random graph_rng(config.seed);
    const graph::Graph global = graph::BarabasiAlbert(config.nodes, 3, graph_rng);
    pagerank::PageRankOptions pr_options;
    pr_options.damping = PeerOptions().damping;
    pr_options.tolerance = kBaselineTolerance;
    pr_options.max_iterations = kBaselineMaxIterations;
    pagerank::PageRankResult baseline = pagerank::ComputePageRank(global, pr_options);
    if (!baseline.converged) {
      std::fprintf(stderr, "driver: centralized PageRank did not converge\n");
      return false;
    }
    true_pr = std::move(baseline.scores);
    top_k = metrics::TopK(true_pr, kEvalTopK);

    std::vector<std::vector<graph::PageId>> fragments =
        MakeFragments(config.nodes, config.peers, config.seed);
    twins.reserve(config.peers);
    std::vector<net::GossipEntry> seeds;
    children.resize(config.peers);
    for (size_t peer = 0; peer < config.peers; ++peer) {
      twins.emplace_back(static_cast<p2p::PeerId>(peer),
                         graph::Subgraph::Induce(global, std::move(fragments[peer])),
                         global.NumNodes(), PeerOptions());
      const std::string init = StatePath(config.out_dir, "init", peer);
      if (Status status = core::SavePeerState(twins[peer], init); !status.ok()) {
        std::fprintf(stderr, "driver: save initial state: %s\n",
                     status.ToString().c_str());
        return false;
      }
      if (!SpawnDaemon(config, peer, init, seeds, &children[peer])) {
        std::fprintf(stderr, "driver: spawn of peer %zu failed\n", peer);
        return false;
      }
      net::GossipEntry entry;
      entry.peer_id = static_cast<uint32_t>(peer);
      entry.port = children[peer].advertised_port;
      seeds.push_back(entry);
    }
    std::fprintf(stderr, "driver: %zu daemons up\n", config.peers);
    return true;
  }

  /// Draws `config.meetings` meetings as JxpSimulation::RunMeetings draws
  /// them under random selection (initiator, then a distinct partner, on
  /// Random(seed)) and runs them on the twins.
  std::vector<std::pair<size_t, size_t>> RunTwins() {
    Random rng(config.seed);
    std::vector<std::pair<size_t, size_t>> schedule;
    schedule.reserve(config.meetings);
    for (size_t m = 0; m < config.meetings; ++m) {
      const auto initiator = static_cast<size_t>(rng.NextBounded(config.peers));
      size_t partner = initiator;
      while (partner == initiator) partner = static_cast<size_t>(rng.NextBounded(config.peers));
      core::JxpPeer::Meet(twins[initiator], twins[partner]);
      schedule.emplace_back(initiator, partner);
    }
    return schedule;
  }

  /// Fetches every daemon's scores (and, when `stats` is given, its net
  /// stats) and checks Thm 5.3 on them: networked scores never overestimate
  /// true PageRank, under any schedule and any fault. False when a round
  /// trip failed.
  bool Sample(std::vector<net::ScoresReplyMessage>* scores,
              std::vector<net::NetStatsReplyMessage>* stats) {
    scores->assign(config.peers, {});
    if (stats != nullptr) stats->assign(config.peers, {});
    bool ok = true;
    for (size_t peer = 0; peer < config.peers; ++peer) {
      net::ControlClient control;
      if (!control.Connect(children[peer].bound_port).ok() ||
          !control.GetScores(&(*scores)[peer]).ok() ||
          (stats != nullptr && !control.GetNetStats(&(*stats)[peer]).ok())) {
        ok = false;
        continue;
      }
      for (const net::ScoreEntry& entry : (*scores)[peer].entries) {
        if (entry.score > true_pr[entry.page] + kUpperBoundSlack) {
          Check(false, "Theorem 5.3 never-overestimate at sample");
          break;
        }
      }
    }
    return ok;
  }

  /// Stops every daemon; each writes its final telemetry as it exits.
  void StopAll() {
    // Torn-transfer detections on the responder side are EOF events, not
    // ordered with the initiator's MeetResult; give the loops a beat to
    // drain them before the final stats are frozen.
    ::usleep(300000);
    for (Child& child : children) Check(StopDaemon(&child), "daemon exited cleanly with 0");
  }

  /// Checks the fault accounting of the stopped daemons (the same bar in
  /// both arms), appends it and the failure count to the arm's `summary`,
  /// prints the summary, and returns the exit code.
  int Finish(obs::JsonWriter& summary) {
    const uint64_t detected_truncations = SumTelemetry("truncations_detected");
    const uint64_t detected_corruptions = SumTelemetry("corruptions_detected");
    const uint64_t wasted = SumTelemetry("wasted_bytes");
    // Clean daemons report no injector counts, so these sum to 0 there.
    const uint64_t injected_torn =
        SumTelemetry("injected_dropped") + SumTelemetry("injected_truncated");
    const uint64_t injected_corrupted = SumTelemetry("injected_corrupted");
    if (config.chaos) {
      // Exact accounting: every injected fault is detected exactly once.
      Check(detected_truncations == injected_torn,
            "injected drops+truncations == detected truncations");
      Check(detected_corruptions == injected_corrupted,
            "injected corruptions == detected corruptions");
      Check(injected_corrupted == 0 || wasted > 0, "corruption produced wasted bytes");
    } else {
      Check(detected_truncations == 0, "no truncations in clean run");
      Check(detected_corruptions == 0, "no corruptions in clean run");
      Check(wasted == 0, "no wasted bytes in clean run");
      // Teardown accounting (DESIGN.md §6l): every daemon stays reachable in
      // a clean run, so a pooled connection found dead must surface as pool
      // accounting, never as a spurious dial failure.
      Check(SumTelemetry("dial_failures") == 0, "no dial failures in clean run");
    }
    summary.Field("detected_truncations", detected_truncations)
        .Field("detected_corruptions", detected_corruptions)
        .Field("injected_torn", injected_torn)
        .Field("injected_corrupted", injected_corrupted)
        .Field("wasted_bytes", wasted)
        .Field("failures", failures);
    std::printf("%s\n", summary.TakeLine().c_str());
    return failures == 0 ? 0 : 1;
  }

  /// Sums one uint64 field over every per-peer JSONL file (the files hold a
  /// single flat object per line, so a string scan suffices).
  uint64_t SumTelemetry(const std::string& field) const {
    const std::string needle = "\"" + field + "\":";
    uint64_t total = 0;
    for (size_t peer = 0; peer < config.peers; ++peer) {
      std::ifstream in(TelemetryPath(config.out_dir, peer));
      std::string line;
      while (std::getline(in, line)) {
        const size_t at = line.find(needle);
        if (at == std::string::npos) continue;
        total += std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
      }
    }
    return total;
  }

  const ClusterConfig& config;
  std::vector<core::JxpPeer> twins;
  std::vector<double> true_pr;
  std::vector<metrics::ScoredItem> top_k;
  std::vector<Child> children;
  int failures = 0;
};

/// Replay arm: commands the twins' schedule through the control protocol,
/// restarts kRestartPeer from its checkpoint halfway, samples Thm 5.3 every
/// `check_every` meetings, and (clean runs) requires every daemon to end
/// bit-identical to its twin.
void Replay(Cluster& cluster, const std::vector<std::pair<size_t, size_t>>& schedule,
            obs::JsonWriter& summary) {
  const ClusterConfig& config = cluster.config;
  std::vector<Child>& children = cluster.children;
  std::vector<net::ScoresReplyMessage> scores;
  size_t restarted_at = 0;
  size_t applied = 0, torn = 0;
  for (size_t m = 0; m < schedule.size(); ++m) {
    // Mid-run graceful restart: SIGTERM -> checkpoint -> re-fork from the
    // checkpoint. In clean mode the final bit-identity check proves the
    // round trip lost nothing.
    if (m == schedule.size() / 2) {
      cluster.Check(StopDaemon(&children[kRestartPeer]), "restarted daemon exited cleanly");
      cluster.Check(SpawnDaemon(config, kRestartPeer,
                                StatePath(config.out_dir, "ckpt", kRestartPeer), {},
                                &children[kRestartPeer]),
                    "restarted daemon came back");
      restarted_at = m;
    }

    const auto [initiator, partner] = schedule[m];
    net::ControlClient control;
    Status status = control.Connect(children[initiator].bound_port);
    net::MeetResultMessage result;
    if (status.ok()) {
      status = control.Meet(static_cast<uint32_t>(partner),
                            children[partner].advertised_port, &result);
    }
    cluster.Check(status.ok(), "meet command round trip");
    if (result.applied) ++applied;
    if (result.salvaged) ++torn;
    if (!config.chaos) {
      cluster.Check(result.applied && !result.salvaged, "clean meeting applied exactly");
    }
    if ((m + 1) % config.check_every == 0 && m + 1 < schedule.size()) {
      cluster.Check(cluster.Sample(&scores, nullptr), "sample round trip");
    }
  }

  // --- Final sample, and verification against the twins.
  cluster.Check(cluster.Sample(&scores, nullptr), "sample round trip");
  double max_abs_diff = 0;
  if (!config.chaos) {
    for (size_t peer = 0; peer < config.peers; ++peer) {
      const core::JxpPeer& twin = cluster.twins[peer];
      cluster.Check(scores[peer].world_score == twin.world_score(),
                    "world score bit-identical");
      cluster.Check(scores[peer].entries.size() == twin.local_scores().size(),
                    "local page count matches");
      for (const net::ScoreEntry& entry : scores[peer].entries) {
        const graph::Subgraph::LocalIndex local = twin.fragment().LocalIndexOf(entry.page);
        if (local == graph::Subgraph::kNotLocal) {
          cluster.Check(false, "page present in the twin's fragment");
          continue;
        }
        const double score = twin.local_scores()[local];
        max_abs_diff = std::max(max_abs_diff, std::abs(entry.score - score));
        if (entry.score != score) {
          cluster.Check(false, "local score bit-identical to the twin");
          break;
        }
      }
    }
  }
  cluster.StopAll();

  summary.Field("bench", "net_cluster")
      .Field("peers", config.peers)
      .Field("meetings", schedule.size())
      .Field("applied", applied)
      .Field("salvaged", torn)
      .Field("chaos", config.chaos)
      .Field("restarted_at_meeting", restarted_at)
      .Field("max_abs_score_diff", max_abs_diff);
}

/// Self-scheduled arm (fig. 4 analogue): the daemons drive their own
/// meetings; the driver only starts them, samples wall-clock vs accuracy,
/// and drains when the cluster reaches the accuracy the twins had after
/// `meetings` meetings. One JSONL row per sample lands in
/// <out-dir>/self_scheduled.jsonl.
void SelfSchedule(Cluster& cluster, obs::JsonWriter& summary) {
  const ClusterConfig& config = cluster.config;
  const core::AccuracyPoint twins_accuracy =
      core::EvaluateAccuracy(core::BuildGlobalJxpScores(cluster.twins, nullptr),
                             cluster.top_k);
  const double target_footrule = twins_accuracy.footrule * config.target_slack + 1e-6;
  std::fprintf(stderr, "driver: twins' footrule %.6f after %zu meetings; target %.6f\n",
               twins_accuracy.footrule, config.meetings, target_footrule);

  for (const Child& child : cluster.children) {
    net::ControlClient control;
    cluster.Check(control.Connect(child.bound_port).ok() && control.StartScheduler().ok(),
                  "scheduler start round trip");
  }

  // --- Sample until converged (or the wall-clock budget runs out).
  const auto t0 = std::chrono::steady_clock::now();
  std::ofstream fig(config.out_dir + "/self_scheduled.jsonl");
  std::vector<net::ScoresReplyMessage> scores;
  std::vector<net::NetStatsReplyMessage> stats;
  bool converged = false;
  uint64_t final_meetings = 0, final_dials = 0, final_reuses = 0;
  double footrule = 1.0;
  while (true) {
    ::usleep(static_cast<useconds_t>(config.sample_every_ms * 1000));
    const uint64_t wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (cluster.Sample(&scores, &stats)) {
      // Rebuild the evaluation table from the wire: page -> average over the
      // peers holding it (BuildGlobalJxpScores's rule).
      std::unordered_map<graph::PageId, double> sum;
      std::unordered_map<graph::PageId, size_t> count;
      uint64_t meetings = 0, dials = 0, reuses = 0;
      for (size_t peer = 0; peer < config.peers; ++peer) {
        for (const net::ScoreEntry& entry : scores[peer].entries) {
          sum[entry.page] += entry.score;
          ++count[entry.page];
        }
        meetings += stats[peer].meetings_initiated;
        dials += stats[peer].dials;
        reuses += stats[peer].pool_reuses;
      }
      std::unordered_map<graph::PageId, double> combined;
      combined.reserve(sum.size());
      for (const auto& [page, total] : sum) combined[page] = total / count[page];
      const core::AccuracyPoint accuracy = core::EvaluateAccuracy(combined, cluster.top_k);
      footrule = accuracy.footrule;
      final_meetings = meetings;
      final_dials = dials;
      final_reuses = reuses;
      obs::JsonWriter row;
      row.Field("bench", "net_cluster_self_scheduled")
          .Field("wall_ms", wall_ms)
          .Field("footrule", accuracy.footrule)
          .Field("linear_error", accuracy.linear_error)
          .Field("meetings", meetings)
          .Field("meetings_per_sec",
                 wall_ms > 0 ? meetings * 1000.0 / static_cast<double>(wall_ms) : 0.0)
          .Field("dials", dials)
          .Field("reuses", reuses);
      fig << row.TakeLine() << "\n";
      // Done when the cluster is at the twins' accuracy AND pooling has
      // amortized the bootstrap fan-out (dials plateau at ~one per peer
      // pair while meetings keep accruing — the fig. 4 analogue's point).
      if (accuracy.footrule <= target_footrule && meetings > 0 && dials < meetings) {
        converged = true;
        break;
      }
    }
    if (wall_ms >= config.max_wall_ms) break;
  }
  fig.close();

  // Chaos trades meetings for faults; that arm's pass/fail is safety plus
  // exact accounting, not the accuracy bar.
  if (!config.chaos) {
    cluster.Check(converged, "self-scheduled cluster reached the twins' accuracy target");
  }
  cluster.Check(final_meetings > 0, "autonomous meetings happened");
  cluster.Check(final_dials > 0, "pool dialed at least once");
  cluster.Check(final_reuses > 0, "pool reused connections across meetings");
  cluster.Check(final_dials < final_meetings,
                "persistent pool: dials strictly fewer than meetings");

  // --- Drain-and-quiesce through the control plane, verify terminal state.
  for (const Child& child : cluster.children) {
    net::ControlClient control;
    net::NetStatsReplyMessage net_stats;
    if (!control.Connect(child.bound_port).ok() || !control.Drain().ok() ||
        !control.GetNetStats(&net_stats).ok()) {
      cluster.Check(false, "drain and net stats round trip");
      continue;
    }
    cluster.Check(net_stats.scheduler_state ==
                      static_cast<uint64_t>(net::SchedulerState::kDrained),
                  "scheduler drained after drain request");
    cluster.Check(net_stats.pool_open_connections == 0, "pool closed after drain");
  }
  cluster.StopAll();

  summary.Field("bench", "net_cluster_self_scheduled")
      .Field("peers", config.peers)
      .Field("converged", converged)
      .Field("footrule", footrule)
      .Field("target_footrule", target_footrule)
      .Field("oracle_footrule", twins_accuracy.footrule)
      .Field("meetings", final_meetings)
      .Field("dials", final_dials)
      .Field("reuses", final_reuses)
      .Field("pool_half_open", cluster.SumTelemetry("pool_half_open"))
      .Field("pool_redials", cluster.SumTelemetry("pool_redials"))
      .Field("dial_failures", cluster.SumTelemetry("dial_failures"))
      .Field("chaos", config.chaos);
}

int RunDriver(const ClusterConfig& config) {
  // The driver's control connections can hit daemons mid-teardown; EPIPE
  // must come back as a Status, not kill the driver.
  ::signal(SIGPIPE, SIG_IGN);
  Cluster cluster(config);
  if (!cluster.Setup()) return 1;
  const std::vector<std::pair<size_t, size_t>> schedule = cluster.RunTwins();
  obs::JsonWriter summary;
  if (config.self_scheduled) {
    SelfSchedule(cluster, summary);
  } else {
    Replay(cluster, schedule, summary);
  }
  return cluster.Finish(summary);
}

}  // namespace
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::Flags flags;
  if (jxp::Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  jxp::ClusterConfig config;
  config.peers = flags.GetCount("peers", 8);
  config.meetings = flags.GetCount("meetings", 64);
  config.nodes = flags.GetCount("nodes", 400);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  config.out_dir = flags.GetString("out-dir", "/tmp/net_cluster");
  config.check_every = flags.GetCount("check-every", 16);
  config.chaos = flags.GetBool("chaos", false);
  config.drop = flags.GetDouble("drop", 0.05);
  config.truncate = flags.GetDouble("truncate", 0.05);
  config.corrupt = flags.GetDouble("corrupt", 0.05);
  config.self_scheduled = flags.GetBool("self-scheduled", false);
  config.sample_every_ms = flags.GetCount("sample-every-ms", 250);
  config.max_wall_ms = flags.GetCount("max-wall-ms", 60000);
  config.target_slack = flags.GetDouble("target-slack", 1.10);
  if (config.check_every == 0) {
    std::fprintf(stderr, "--check-every must be positive\n");
    return 1;
  }
  return jxp::RunDriver(config);
}
