// Multi-process loopback cluster driver (DESIGN.md §6k): forks N peer
// daemons, each owning one JXP peer loaded from a shared initial state,
// replays the exact meeting schedule of an in-process JxpSimulation oracle
// through the control protocol, and verifies that the networked cluster
// converges to *bit-identical* scores. With --chaos, every daemon fronts
// itself with a fault-injecting proxy and the run instead verifies crash-free
// degradation plus exact injected-vs-detected fault accounting.
//
// With --self-scheduled, the daemons instead drive their own meetings
// (MeetingScheduler + ConnectionPool, DESIGN.md §6l) and the driver samples
// wall-clock vs accuracy until the cluster reaches the accuracy the oracle
// had after --meetings meetings (fig. 4 analogue), checking Thm 5.3 at
// every sample and that pooled dials stay strictly below meetings.
//
//   net_cluster --peers=8 --meetings=64 --nodes=400 --seed=7
//       --out-dir=/tmp/net_cluster [--chaos --drop=0.05 --truncate=0.05
//       --corrupt=0.05] [--restart-peer=0] [--self-scheduled
//       --meet-interval-ms=40 --sample-every-ms=250 --max-wall-ms=60000]
//
// Exit code 0 = all checks passed. Per-daemon JSONL telemetry is written to
// <out-dir>/peer_<id>.jsonl (plus self_scheduled.jsonl samples in the
// self-scheduled arm); the driver prints a one-line JSON summary.

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

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
#include <vector>

#include "common/flags.h"
#include "common/random.h"
#include "core/evaluation.h"
#include "core/jxp_peer.h"
#include "core/simulation.h"
#include "core/state_io.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "net/chaos_proxy.h"
#include "net/control_client.h"
#include "net/event_loop.h"
#include "net/peer_daemon.h"
#include "obs/json_writer.h"

namespace jxp {
namespace {

struct ClusterConfig {
  size_t peers = 8;
  size_t meetings = 64;
  size_t nodes = 400;
  uint64_t seed = 7;
  std::string out_dir = "/tmp/net_cluster";
  /// Thm 5.3 sampling cadence (meetings between checkpoints).
  size_t check_every = 16;
  /// Peer to SIGTERM + restart-from-checkpoint halfway through (-1 = none).
  int64_t restart_peer = 0;
  bool chaos = false;
  double drop = 0.05;
  double truncate = 0.05;
  double corrupt = 0.05;

  /// Fig. 4 analogue (DESIGN.md §6l): instead of replaying the oracle's
  /// schedule, daemons run their own MeetingScheduler and the driver only
  /// samples wall-clock vs accuracy until the cluster reaches the accuracy
  /// the oracle had after `meetings` meetings. Restarts are a replay-mode
  /// feature and are ignored here.
  bool self_scheduled = false;
  uint64_t meet_interval_ms = 40;
  uint64_t meet_jitter_ms = 40;
  uint64_t gossip_interval_ms = 100;
  uint64_t sample_every_ms = 250;
  uint64_t max_wall_ms = 60000;
  /// Networked target = oracle footrule * slack + 1e-6 (the networked
  /// schedule differs, so exact equality is not the bar — reaching the same
  /// accuracy regime is).
  double target_slack = 1.10;
  /// 0 = auto: replay keeps the daemon default; self-scheduled drops to
  /// 1000 so dial collisions (both daemons mid-MeetPeer at each other)
  /// resolve quickly.
  uint64_t io_timeout_ms = 0;
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
  if (config.io_timeout_ms != 0) {
    options.io_timeout_ms = config.io_timeout_ms;
  } else if (config.self_scheduled) {
    options.io_timeout_ms = 1000;
  }
  if (config.self_scheduled) {
    options.seed_peers = seeds;
    options.gossip_interval_ms = config.gossip_interval_ms;
    options.scheduler.enabled = true;
    options.scheduler.interval_ms = config.meet_interval_ms;
    options.scheduler.jitter_ms = config.meet_jitter_ms;
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
    proxy_options.seed = config.seed * 1000003 + peer_id;
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
  std::ofstream out(config.out_dir + "/peer_" + std::to_string(peer_id) + ".jsonl",
                    std::ios::app);
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

/// Reads one aggregated uint64 field from every per-peer JSONL file (the
/// files hold a single flat object per line, so a string scan suffices).
uint64_t SumJsonlField(const ClusterConfig& config, const std::string& field) {
  uint64_t total = 0;
  for (size_t peer = 0; peer < config.peers; ++peer) {
    std::ifstream in(config.out_dir + "/peer_" + std::to_string(peer) + ".jsonl");
    std::string line;
    while (std::getline(in, line)) {
      const std::string needle = "\"" + field + "\":";
      const size_t at = line.find(needle);
      if (at == std::string::npos) continue;
      total += std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
    }
  }
  return total;
}

/// Self-scheduled arm (fig. 4 analogue): the daemons drive their own
/// meetings; the driver only starts them, samples wall-clock vs accuracy,
/// checks Thm 5.3 at every sample, and drains when the cluster reaches the
/// accuracy the oracle had after `meetings` replayed meetings. One JSONL
/// row per sample lands in <out-dir>/self_scheduled.jsonl.
int RunSelfScheduled(const ClusterConfig& config) {
  std::string mkdir = "mkdir -p " + config.out_dir;
  if (std::system(mkdir.c_str()) != 0) return 1;
  for (size_t peer = 0; peer < config.peers; ++peer) {
    std::remove((config.out_dir + "/peer_" + std::to_string(peer) + ".jsonl").c_str());
  }
  const std::string fig_path = config.out_dir + "/self_scheduled.jsonl";
  std::remove(fig_path.c_str());

  // --- Oracle: fixes the accuracy bar, not the schedule.
  Random graph_rng(config.seed);
  const graph::Graph global = graph::BarabasiAlbert(config.nodes, 3, graph_rng);
  core::SimulationConfig sim_config;
  sim_config.jxp = PeerOptions();
  sim_config.seed = config.seed;
  core::JxpSimulation oracle(global,
                             MakeFragments(config.nodes, config.peers, config.seed),
                             sim_config);
  if (Status status = oracle.SaveAllPeerStates(config.out_dir); !status.ok()) {
    std::fprintf(stderr, "driver: save initial states: %s\n", status.ToString().c_str());
    return 1;
  }
  for (size_t peer = 0; peer < config.peers; ++peer) {
    const std::string from = config.out_dir + "/peer_" + std::to_string(peer) + ".jxp";
    std::rename(from.c_str(), StatePath(config.out_dir, "init", peer).c_str());
  }
  oracle.RunMeetings(config.meetings);
  const core::AccuracyPoint oracle_accuracy =
      core::EvaluateAccuracy(oracle.GlobalJxpScores(), oracle.global_top_k());
  const double target_footrule =
      oracle_accuracy.footrule * config.target_slack + 1e-6;
  std::fprintf(stderr,
               "driver: oracle footrule %.6f after %zu meetings; target %.6f\n",
               oracle_accuracy.footrule, config.meetings, target_footrule);

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "driver: CHECK FAILED: %s\n", what);
      ++failures;
    }
  };

  // --- Decentralized bootstrap: spawn sequentially, daemon i seeded with
  // daemons 0..i-1 (daemon 0 starts alone and learns the rest from their
  // Hellos and gossip).
  std::vector<Child> children(config.peers);
  std::vector<net::GossipEntry> seeds;
  for (size_t peer = 0; peer < config.peers; ++peer) {
    if (!SpawnDaemon(config, peer, StatePath(config.out_dir, "init", peer), seeds,
                     &children[peer])) {
      std::fprintf(stderr, "driver: spawn of peer %zu failed\n", peer);
      return 1;
    }
    net::GossipEntry entry;
    entry.peer_id = static_cast<uint32_t>(peer);
    entry.port = children[peer].advertised_port;
    seeds.push_back(entry);
  }
  std::fprintf(stderr, "driver: %zu autonomous daemons up\n", config.peers);

  for (size_t peer = 0; peer < config.peers; ++peer) {
    net::ControlClient control;
    check(control.Connect(children[peer].bound_port).ok() &&
              control.StartScheduler().ok(),
          "scheduler start round trip");
  }

  // --- Sample until converged (or the wall-clock budget runs out).
  const auto t0 = std::chrono::steady_clock::now();
  std::ofstream fig(fig_path);
  bool converged = false;
  uint64_t final_meetings = 0, final_dials = 0, final_reuses = 0;
  double footrule = 1.0;
  while (true) {
    ::usleep(static_cast<useconds_t>(config.sample_every_ms * 1000));
    const uint64_t wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    // Rebuild the evaluation table from the wire: page -> average over the
    // peers holding it (BuildGlobalJxpScores's rule).
    std::unordered_map<graph::PageId, double> sum;
    std::unordered_map<graph::PageId, size_t> count;
    uint64_t meetings = 0, dials = 0, reuses = 0;
    bool sample_ok = true;
    constexpr double kUpperBoundSlack = 1e-9;
    for (size_t peer = 0; peer < config.peers; ++peer) {
      net::ControlClient control;
      if (!control.Connect(children[peer].bound_port).ok()) {
        sample_ok = false;
        continue;
      }
      net::ScoresReplyMessage scores;
      if (!control.GetScores(&scores).ok()) {
        sample_ok = false;
        continue;
      }
      for (const net::ScoreEntry& entry : scores.entries) {
        // Thm 5.3 holds under ANY meeting schedule, including the
        // autonomous one with faults: scores never overestimate true PR.
        if (entry.score > oracle.global_scores()[entry.page] + kUpperBoundSlack) {
          check(false, "Theorem 5.3 never-overestimate at sample");
          break;
        }
        sum[entry.page] += entry.score;
        ++count[entry.page];
      }
      net::NetStatsReplyMessage net_stats;
      if (control.GetNetStats(&net_stats).ok()) {
        meetings += net_stats.meetings_initiated;
        dials += net_stats.dials;
        reuses += net_stats.pool_reuses;
      } else {
        sample_ok = false;
      }
    }
    if (sample_ok) {
      std::unordered_map<graph::PageId, double> combined;
      combined.reserve(sum.size());
      for (const auto& [page, total] : sum) combined[page] = total / count[page];
      const core::AccuracyPoint accuracy =
          core::EvaluateAccuracy(combined, oracle.global_top_k());
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
      // Done when the cluster is at the oracle's accuracy AND pooling has
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
    check(converged, "self-scheduled cluster reached the oracle accuracy target");
  }
  check(final_meetings > 0, "autonomous meetings happened");
  check(final_dials > 0, "pool dialed at least once");
  check(final_reuses > 0, "pool reused connections across meetings");
  check(final_dials < final_meetings,
        "persistent pool: dials strictly fewer than meetings");

  // --- Drain-and-quiesce through the control plane, verify terminal state.
  for (size_t peer = 0; peer < config.peers; ++peer) {
    net::ControlClient control;
    if (!control.Connect(children[peer].bound_port).ok() || !control.Drain().ok()) {
      check(false, "drain round trip");
      continue;
    }
    net::NetStatsReplyMessage net_stats;
    if (control.GetNetStats(&net_stats).ok()) {
      check(net_stats.scheduler_state ==
                static_cast<uint64_t>(net::SchedulerState::kDrained),
            "scheduler drained after drain request");
      check(net_stats.pool_open_connections == 0, "pool closed after drain");
    } else {
      check(false, "net stats after drain");
    }
  }

  // --- Shutdown and fault accounting (same exactness bar as replay mode).
  ::usleep(300000);
  for (size_t peer = 0; peer < config.peers; ++peer) {
    check(StopDaemon(&children[peer]), "daemon exited cleanly with 0");
  }
  const uint64_t detected_truncations = SumJsonlField(config, "truncations_detected");
  const uint64_t detected_corruptions = SumJsonlField(config, "corruptions_detected");
  const uint64_t wasted = SumJsonlField(config, "wasted_bytes");
  const uint64_t pool_half_open = SumJsonlField(config, "pool_half_open");
  const uint64_t pool_redials = SumJsonlField(config, "pool_redials");
  const uint64_t dial_failures = SumJsonlField(config, "dial_failures");
  uint64_t injected_torn = 0, injected_corrupted = 0;
  if (config.chaos) {
    injected_torn = SumJsonlField(config, "injected_dropped") +
                    SumJsonlField(config, "injected_truncated");
    injected_corrupted = SumJsonlField(config, "injected_corrupted");
    check(detected_truncations == injected_torn,
          "injected drops+truncations == detected truncations");
    check(detected_corruptions == injected_corrupted,
          "injected corruptions == detected corruptions");
  } else {
    check(detected_truncations == 0, "no truncations in clean run");
    check(detected_corruptions == 0, "no corruptions in clean run");
    check(wasted == 0, "no wasted bytes in clean run");
    // Teardown accounting (DESIGN.md §6l): every daemon stays reachable in
    // a clean run, so a pooled connection found dead must surface as pool
    // accounting, never as a spurious dial failure.
    check(dial_failures == 0, "no dial failures in clean run");
  }

  obs::JsonWriter summary;
  summary.Field("bench", "net_cluster_self_scheduled")
      .Field("peers", config.peers)
      .Field("converged", converged)
      .Field("footrule", footrule)
      .Field("target_footrule", target_footrule)
      .Field("oracle_footrule", oracle_accuracy.footrule)
      .Field("meetings", final_meetings)
      .Field("dials", final_dials)
      .Field("reuses", final_reuses)
      .Field("pool_half_open", pool_half_open)
      .Field("pool_redials", pool_redials)
      .Field("dial_failures", dial_failures)
      .Field("chaos", config.chaos)
      .Field("detected_truncations", detected_truncations)
      .Field("detected_corruptions", detected_corruptions)
      .Field("injected_torn", injected_torn)
      .Field("injected_corrupted", injected_corrupted)
      .Field("wasted_bytes", wasted)
      .Field("failures", failures);
  std::printf("%s\n", summary.TakeLine().c_str());
  return failures == 0 ? 0 : 1;
}

int RunDriver(const ClusterConfig& config) {
  // The driver's control connections can hit daemons mid-teardown; EPIPE
  // must come back as a Status, not kill the driver.
  ::signal(SIGPIPE, SIG_IGN);
  if (config.self_scheduled) return RunSelfScheduled(config);
  std::string mkdir = "mkdir -p " + config.out_dir;
  if (std::system(mkdir.c_str()) != 0) return 1;
  for (size_t peer = 0; peer < config.peers; ++peer) {
    std::remove((config.out_dir + "/peer_" + std::to_string(peer) + ".jsonl").c_str());
  }

  // --- Oracle: the same cluster, in-process, on the same seed/schedule.
  Random graph_rng(config.seed);
  const graph::Graph global = graph::BarabasiAlbert(config.nodes, 3, graph_rng);
  core::SimulationConfig sim_config;
  sim_config.jxp = PeerOptions();
  sim_config.seed = config.seed;
  sim_config.record_meeting_log = true;
  core::JxpSimulation oracle(global, MakeFragments(config.nodes, config.peers, config.seed),
                             sim_config);
  if (Status status = oracle.SaveAllPeerStates(config.out_dir); !status.ok()) {
    std::fprintf(stderr, "driver: save initial states: %s\n", status.ToString().c_str());
    return 1;
  }
  // SaveAllPeerStates writes peer_<id>.jxp; rename to the "init" scheme so
  // checkpoints cannot collide with them.
  for (size_t peer = 0; peer < config.peers; ++peer) {
    const std::string from = config.out_dir + "/peer_" + std::to_string(peer) + ".jxp";
    std::rename(from.c_str(), StatePath(config.out_dir, "init", peer).c_str());
  }
  oracle.RunMeetings(config.meetings);
  const auto& schedule = oracle.meeting_log();
  std::fprintf(stderr, "driver: oracle done, %zu meetings scheduled\n",
               schedule.size());

  // --- Fork the cluster.
  std::vector<Child> children(config.peers);
  for (size_t peer = 0; peer < config.peers; ++peer) {
    if (!SpawnDaemon(config, peer, StatePath(config.out_dir, "init", peer), {},
                     &children[peer])) {
      std::fprintf(stderr, "driver: spawn of peer %zu failed\n", peer);
      return 1;
    }
  }
  std::fprintf(stderr, "driver: %zu daemons up\n", config.peers);

  int failures = 0;
  const auto check = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "driver: CHECK FAILED: %s\n", what);
      ++failures;
    }
  };

  // --- Replay the oracle's schedule through the control protocol.
  size_t restarted_at = 0;
  size_t commanded = 0, applied = 0, torn = 0;
  for (size_t m = 0; m < schedule.size(); ++m) {
    // Mid-run graceful restart: SIGTERM -> checkpoint -> re-fork from the
    // checkpoint. In clean mode the final bit-identity check proves the
    // round trip lost nothing.
    if (config.restart_peer >= 0 && m == schedule.size() / 2 &&
        static_cast<size_t>(config.restart_peer) < config.peers) {
      const size_t target = static_cast<size_t>(config.restart_peer);
      check(StopDaemon(&children[target]), "restarted daemon exited cleanly");
      check(SpawnDaemon(config, target, StatePath(config.out_dir, "ckpt", target), {},
                        &children[target]),
            "restarted daemon came back");
      restarted_at = m;
    }

    const auto [initiator, partner] = schedule[m];
    net::ControlClient control;
    Status status = control.Connect(children[initiator].bound_port);
    net::MeetResultMessage result;
    if (status.ok()) {
      status = control.Meet(partner, children[partner].advertised_port, &result);
    }
    check(status.ok(), "meet command round trip");
    ++commanded;
    if (result.applied) ++applied;
    if (result.salvaged) ++torn;
    if (!config.chaos) {
      check(result.applied && !result.salvaged, "clean meeting applied exactly");
    }

    // --- Thm 5.3 sampling: networked scores never overestimate true PR.
    if ((m + 1) % config.check_every == 0 || m + 1 == schedule.size()) {
      constexpr double kUpperBoundSlack = 1e-9;
      for (size_t peer = 0; peer < config.peers; ++peer) {
        net::ControlClient sampler;
        if (!sampler.Connect(children[peer].bound_port).ok()) {
          check(false, "sampler connect");
          continue;
        }
        net::ScoresReplyMessage scores;
        if (!sampler.GetScores(&scores).ok()) {
          check(false, "sampler scores");
          continue;
        }
        for (const net::ScoreEntry& entry : scores.entries) {
          if (entry.score > oracle.global_scores()[entry.page] + kUpperBoundSlack) {
            check(false, "Theorem 5.3 never-overestimate at checkpoint");
            break;
          }
        }
      }
    }
  }

  // --- Final verification against the oracle.
  double max_abs_diff = 0;
  if (!config.chaos) {
    for (size_t peer = 0; peer < config.peers; ++peer) {
      net::ControlClient control;
      if (!control.Connect(children[peer].bound_port).ok()) {
        check(false, "final connect");
        continue;
      }
      net::ScoresReplyMessage scores;
      if (!control.GetScores(&scores).ok()) {
        check(false, "final scores");
        continue;
      }
      const core::JxpPeer& expect = oracle.peers()[peer];
      check(scores.world_score == expect.world_score(), "world score bit-identical");
      check(scores.entries.size() == expect.local_scores().size(),
            "local page count matches");
      const graph::Subgraph& fragment = expect.fragment();
      for (const net::ScoreEntry& entry : scores.entries) {
        const graph::Subgraph::LocalIndex local = fragment.LocalIndexOf(entry.page);
        if (local == graph::Subgraph::kNotLocal) {
          check(false, "page present in oracle fragment");
          continue;
        }
        const double diff = std::abs(entry.score - expect.local_scores()[local]);
        if (diff > max_abs_diff) max_abs_diff = diff;
        if (entry.score != expect.local_scores()[local]) {
          check(false, "local score bit-identical to oracle");
          break;
        }
      }
    }
  }

  // --- Shutdown and aggregate telemetry.
  // Torn-transfer detections on the responder side are EOF events, not
  // ordered with the initiator's MeetResult; give the loops a beat to
  // drain them before the final stats are frozen.
  ::usleep(300000);
  for (size_t peer = 0; peer < config.peers; ++peer) {
    check(StopDaemon(&children[peer]), "daemon exited cleanly with 0");
  }
  const uint64_t detected_truncations = SumJsonlField(config, "truncations_detected");
  const uint64_t detected_corruptions = SumJsonlField(config, "corruptions_detected");
  const uint64_t wasted = SumJsonlField(config, "wasted_bytes");
  uint64_t injected_torn = 0, injected_corrupted = 0;
  if (config.chaos) {
    injected_torn = SumJsonlField(config, "injected_dropped") +
                    SumJsonlField(config, "injected_truncated");
    injected_corrupted = SumJsonlField(config, "injected_corrupted");
    // Exact accounting: every injected fault is detected exactly once.
    check(detected_truncations == injected_torn,
          "injected drops+truncations == detected truncations");
    check(detected_corruptions == injected_corrupted,
          "injected corruptions == detected corruptions");
    check(injected_corrupted == 0 || wasted > 0, "corruption produced wasted bytes");
  } else {
    check(detected_truncations == 0, "no truncations in clean run");
    check(detected_corruptions == 0, "no corruptions in clean run");
    check(wasted == 0, "no wasted bytes in clean run");
  }

  obs::JsonWriter summary;
  summary.Field("bench", "net_cluster")
      .Field("peers", config.peers)
      .Field("meetings", commanded)
      .Field("applied", applied)
      .Field("salvaged", torn)
      .Field("chaos", config.chaos)
      .Field("restarted_at_meeting", restarted_at)
      .Field("max_abs_score_diff", max_abs_diff)
      .Field("detected_truncations", detected_truncations)
      .Field("detected_corruptions", detected_corruptions)
      .Field("injected_torn", injected_torn)
      .Field("injected_corrupted", injected_corrupted)
      .Field("wasted_bytes", wasted)
      .Field("failures", failures);
  std::printf("%s\n", summary.TakeLine().c_str());
  return failures == 0 ? 0 : 1;
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
  config.restart_peer = flags.GetInt("restart-peer", 0);
  config.chaos = flags.GetBool("chaos", false);
  config.drop = flags.GetDouble("drop", 0.05);
  config.truncate = flags.GetDouble("truncate", 0.05);
  config.corrupt = flags.GetDouble("corrupt", 0.05);
  config.self_scheduled = flags.GetBool("self-scheduled", false);
  config.meet_interval_ms = flags.GetCount("meet-interval-ms", 40);
  config.meet_jitter_ms = flags.GetCount("meet-jitter-ms", 40);
  config.gossip_interval_ms = flags.GetCount("gossip-interval-ms", 100);
  config.sample_every_ms = flags.GetCount("sample-every-ms", 250);
  config.max_wall_ms = flags.GetCount("max-wall-ms", 60000);
  config.target_slack = flags.GetDouble("target-slack", 1.10);
  config.io_timeout_ms = flags.GetCount("io-timeout-ms", 0);
  return jxp::RunDriver(config);
}
