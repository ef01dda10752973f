// Simulation-level guarantees of the fault-injection layer:
//  - the fault-off path is bit-identical to a configuration without a fault
//    plan;
//  - with faults enabled, runs are bit-identical across repeats under both
//    wire modes;
//  - abandoned meetings consume schedule slots but never peer state;
//  - wasted-byte accounting agrees between Network and FaultInjector;
//  - the jxp.faults.* metrics mirror the injector's stats.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simulation.h"
#include "generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proptest.h"

namespace jxp {
namespace proptest {
namespace {

using core::JxpPeer;
using core::JxpSimulation;
using core::SimulationConfig;

SimulationConfig BaseConfig(const FaultCase& c) {
  SimulationConfig config;
  config.jxp.pr_tolerance = 1e-12;
  config.jxp.pr_max_iterations = 500;
  config.jxp.merge_mode =
      c.full_merge ? core::MergeMode::kFullMerge : core::MergeMode::kLightWeight;
  config.seed = c.seed;
  return config;
}

/// Everything a run determines: per-peer scores, world scores, traffic.
struct Fingerprint {
  std::vector<std::vector<double>> scores;
  std::vector<double> world;
  double traffic_bytes = 0;
  double wasted_bytes = 0;
  size_t meetings = 0;
};

Fingerprint FingerprintOf(const JxpSimulation& sim) {
  Fingerprint fp;
  for (const JxpPeer& peer : sim.peers()) {
    fp.scores.push_back(peer.local_scores());
    fp.world.push_back(peer.world_score());
  }
  fp.traffic_bytes = sim.network().TotalTrafficBytes();
  fp.wasted_bytes = sim.network().TotalWastedBytes();
  fp.meetings = sim.meetings_done();
  return fp;
}

/// Bitwise comparison (EXPECT_EQ on doubles is exact).
CheckResult CompareFingerprints(const Fingerprint& a, const Fingerprint& b,
                                const std::string& what) {
  if (a.meetings != b.meetings) return what + ": meetings_done differs";
  if (a.traffic_bytes != b.traffic_bytes) return what + ": traffic differs";
  if (a.wasted_bytes != b.wasted_bytes) return what + ": wasted bytes differ";
  if (a.world != b.world) return what + ": world scores differ";
  if (a.scores != b.scores) return what + ": local scores differ";
  return std::nullopt;
}

TEST(FaultSimulation, FaultOffPathBitIdentical) {
  const PlanLimits no_faults;  // Every limit zero: the plan stays disabled.
  ForAll<FaultCase>(
      0x0ff0b17, 100,
      [&](uint64_t seed) {
        FaultCase c = GenerateFaultCase(seed, no_faults);
        c.num_meetings = std::min<size_t>(c.num_meetings, 40);
        return c;
      },
      [](const FaultCase& c) -> CheckResult {
        const auto run = [&](bool with_plan) {
          GeneratedWorld world = BuildWorld(c);
          SimulationConfig config = BaseConfig(c);
          if (with_plan) {
            config.faults = c.plan;          // All-zero probabilities.
            config.faults.seed = 0xdeadbeef; // Must be irrelevant when disabled.
          }
          JxpSimulation sim(world.graph, std::move(world.fragments), config);
          if (sim.fault_stats() != nullptr) {
            ADD_FAILURE() << "disabled plan created an injector";
          }
          sim.RunMeetings(c.num_meetings);
          return FingerprintOf(sim);
        };
        return CompareFingerprints(run(false), run(true), "no plan vs disabled plan");
      });
}

TEST(FaultSimulation, FaultsOnDeterministicAcrossRepeats) {
  PlanLimits limits;
  limits.max_drop = 0.3;
  limits.max_truncation = 0.3;
  limits.max_crash = 0.2;
  limits.max_stale_resume = 0.1;
  limits.max_unavailable = 0.3;
  ForAll<FaultCase>(
      0xde7e12b1, 100,
      [&](uint64_t seed) {
        FaultCase c = GenerateFaultCase(seed, limits);
        c.num_meetings = std::min<size_t>(c.num_meetings, 40);
        return c;
      },
      [](const FaultCase& c) -> CheckResult {
        // Each case runs under both transports; the measured one also flips
        // bits, so the salvaging decode is swept too.
        const auto run = [&](core::MeetingWireMode wire_mode, const std::string& tag) {
          GeneratedWorld world = BuildWorld(c);
          SimulationConfig config = BaseConfig(c);
          config.jxp.wire_mode = wire_mode;
          config.faults = c.plan;
          if (wire_mode == core::MeetingWireMode::kMeasured) {
            config.faults.corruption_probability = 0.2;
          }
          if (c.plan.stale_resume_probability > 0) {
            config.fault_checkpoint_dir = ::testing::TempDir() + "jxp_det_" +
                                          std::to_string(c.seed) + "_" + tag;
            config.checkpoint_every = 4;
          }
          JxpSimulation sim(world.graph, std::move(world.fragments), config);
          sim.RunMeetings(c.num_meetings);
          return FingerprintOf(sim);
        };
        for (const core::MeetingWireMode wire_mode :
             {core::MeetingWireMode::kEstimated, core::MeetingWireMode::kMeasured}) {
          const std::string mode =
              wire_mode == core::MeetingWireMode::kMeasured ? "measured" : "estimated";
          if (CheckResult r = CompareFingerprints(run(wire_mode, mode + "_1"),
                                                  run(wire_mode, mode + "_2"),
                                                  mode + " repeat")) {
            return r;
          }
        }
        return std::nullopt;
      });
}

TEST(FaultSimulation, AbandonedMeetingsConsumeSlotsWithoutPeerState) {
  FaultCase c = GenerateFaultCase(31, PlanLimits{});
  c.plan.unavailable_probability = 1.0;  // Every contact attempt fails.
  c.plan.max_retries = 2;
  c.plan.probe_bytes = 64;

  GeneratedWorld world = BuildWorld(c);
  SimulationConfig config = BaseConfig(c);
  config.faults = c.plan;
  JxpSimulation sim(world.graph, std::move(world.fragments), config);

  sim.RunMeetings(10);
  EXPECT_EQ(sim.meetings_done(), 0u);
  for (const JxpPeer& peer : sim.peers()) EXPECT_EQ(peer.num_meetings(), 0u);
  ASSERT_NE(sim.fault_stats(), nullptr);
  EXPECT_EQ(sim.fault_stats()->meetings_planned, 10u);
  EXPECT_EQ(sim.fault_stats()->meetings_abandoned, 10u);
  // 1 + max_retries failed attempts per abandoned meeting, one probe each.
  EXPECT_EQ(sim.fault_stats()->unavailable_retries, 30u);
  EXPECT_EQ(sim.network().TotalWastedBytes(), 10 * 3 * 64.0);
  EXPECT_EQ(sim.network().TotalTrafficBytes(), 0.0);
}

TEST(FaultSimulation, WastedBytesAgreeBetweenNetworkAndInjector) {
  FaultCase c = GenerateFaultCase(77, PlanLimits{});
  c.plan.message_drop_probability = 0.3;
  c.plan.truncation_probability = 0.3;
  c.plan.truncation_keep_fraction = 0.5;
  c.plan.crash_probability = 0.2;
  c.plan.unavailable_probability = 0.3;
  c.plan.max_retries = 2;

  GeneratedWorld world = BuildWorld(c);
  SimulationConfig config = BaseConfig(c);
  config.faults = c.plan;
  JxpSimulation sim(world.graph, std::move(world.fragments), config);
  sim.RunMeetings(60);

  ASSERT_NE(sim.fault_stats(), nullptr);
  EXPECT_GT(sim.fault_stats()->faulty_meetings, 0u);
  const double network_wasted = sim.network().TotalWastedBytes();
  const double injector_wasted = sim.fault_stats()->wasted_bytes;
  EXPECT_GT(network_wasted, 0.0);
  // Same contributions, different summation grouping (per peer vs global):
  // equal up to float-summation rounding.
  EXPECT_NEAR(network_wasted, injector_wasted, 1e-6 * std::max(1.0, injector_wasted));
}

TEST(FaultSimulation, CleanRunHasNoWastedTraffic) {
  FaultCase c = GenerateFaultCase(78, PlanLimits{});
  GeneratedWorld world = BuildWorld(c);
  JxpSimulation sim(world.graph, std::move(world.fragments), BaseConfig(c));
  sim.RunMeetings(30);
  EXPECT_EQ(sim.fault_stats(), nullptr);
  EXPECT_EQ(sim.network().TotalWastedBytes(), 0.0);
  const p2p::PeerTrafficSummary aggregate = sim.network().AggregateTraffic();
  EXPECT_EQ(aggregate.wasted_bytes, 0.0);
}

uint64_t SnapshotCounter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0;
}

TEST(FaultSimulation, FaultMetricsMirrorInjectorStats) {
  obs::MetricsRegistry::Global().Reset();
  obs::StringTraceSink sink;
  obs::ScopedTraceSink installed(&sink);  // Enables the telemetry path.

  FaultCase c = GenerateFaultCase(79, PlanLimits{});
  c.plan.message_drop_probability = 0.4;
  c.plan.truncation_probability = 0.3;
  c.plan.crash_probability = 0.2;
  c.plan.unavailable_probability = 0.4;
  c.plan.max_retries = 1;

  GeneratedWorld world = BuildWorld(c);
  SimulationConfig config = BaseConfig(c);
  config.faults = c.plan;
  JxpSimulation sim(world.graph, std::move(world.fragments), config);
  sim.RunMeetings(40);

  ASSERT_NE(sim.fault_stats(), nullptr);
  const p2p::FaultStats& stats = *sim.fault_stats();
  EXPECT_GT(stats.faulty_meetings, 0u);

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.faults.message_drops"), stats.message_drops);
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.faults.truncations"), stats.truncations);
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.faults.crashes"), stats.crashes);
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.faults.faulty_meetings"),
            stats.faulty_meetings);
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.faults.meetings_abandoned"),
            stats.meetings_abandoned);

  // Fault trace events carry the per-meeting schedule.
  size_t fault_events = 0;
  for (const std::string& line : sink.TakeLines()) {
    if (line.find("\"name\":\"fault\"") != std::string::npos) ++fault_events;
  }
  EXPECT_EQ(fault_events, stats.faulty_meetings);
}

}  // namespace
}  // namespace proptest
}  // namespace jxp
