// End-to-end validation of the telemetry stream against a real JXP
// simulation: meeting and power-iteration spans, the metrics snapshot, and
// the determinism contract (telemetry on vs off).

#include <string>
#include <vector>

#include "core/simulation.h"
#include "crawler/partitioner.h"
#include "datasets/collections.h"
#include "gtest/gtest.h"
#include "json_parse.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace jxp {
namespace {

using obs_test::JsonValue;
using obs_test::ParseJson;

datasets::Collection SmallCollection() { return datasets::MakeAmazonLike(0.02, 11); }

std::vector<std::vector<graph::PageId>> SmallPartition(
    const datasets::Collection& collection) {
  Random rng(13);
  crawler::PartitionOptions options;
  options.peers_per_category = 1;
  options.crawler.max_pages =
      std::max<size_t>(20, collection.data.graph.NumNodes() * 3 /
                               (options.peers_per_category *
                                collection.data.num_categories));
  options.crawler.max_depth = 8;
  return CrawlBasedPartition(collection.data, options, rng);
}

core::SimulationConfig SmallConfig() {
  core::SimulationConfig config;
  config.jxp.damping = 0.85;
  config.jxp.pr_tolerance = 1e-10;
  config.jxp.pr_max_iterations = 200;
  config.seed = 5;
  config.eval_top_k = 50;
  return config;
}

uint64_t SnapshotCounter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return 0;
}

TEST(TelemetryIntegrationTest, StreamContainsSpansEventsAndValidJson) {
  const datasets::Collection collection = SmallCollection();
  const auto fragments = SmallPartition(collection);

  obs::MetricsRegistry::Global().Reset();
  obs::StringTraceSink sink;
  obs::ScopedTraceSink installed(&sink);

  core::JxpSimulation sim(collection.data.graph, fragments, SmallConfig());
  sim.RunMeetings(30);

  // Every line must be a complete JSON object.
  size_t meeting_spans = 0;
  size_t process_spans = 0;
  size_t power_spans = 0;
  for (const std::string& line : sink.TakeLines()) {
    JsonValue record;
    ASSERT_TRUE(ParseJson(line, record)) << "invalid JSON line: " << line;
    const std::string type = record.Str("type");
    ASSERT_TRUE(type == "span" || type == "event") << line;
    const std::string name = record.Str("name");
    if (type == "span") {
      EXPECT_GE(record.Num("wall_ms"), 0.0) << line;
      EXPECT_GE(record.Num("cpu_ms"), 0.0) << line;
      ASSERT_NE(record.Find("id"), nullptr);
    }
    if (name == "jxp.meeting") {
      ++meeting_spans;
      const JsonValue* attrs = record.Find("attrs");
      ASSERT_NE(attrs, nullptr) << line;
      EXPECT_GT(attrs->Num("wire_bytes"), 0.0) << line;
    } else if (name == "jxp.process_meeting") {
      ++process_spans;
      const JsonValue* attrs = record.Find("attrs");
      ASSERT_NE(attrs, nullptr) << line;
      ASSERT_NE(attrs->Find("cpu_ms"), nullptr);
      ASSERT_NE(attrs->Find("pr_iterations"), nullptr);
      // Nested under the meeting span, on the same thread.
      EXPECT_EQ(record.Num("depth"), 1) << line;
      EXPECT_GT(record.Num("parent"), 0.0) << line;
    } else if (name == "markov.power_iteration") {
      ++power_spans;
      const JsonValue* attrs = record.Find("attrs");
      ASSERT_NE(attrs, nullptr) << line;
      EXPECT_GE(attrs->Num("iterations"), 1.0) << line;
      ASSERT_NE(attrs->Find("residual"), nullptr);
    }
  }
  EXPECT_EQ(meeting_spans, 30u);
  EXPECT_EQ(process_spans, 60u);  // Both sides of every meeting.
  EXPECT_GT(power_spans, 0u);

  // The registry agrees with the stream.
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.meetings"), 30u);
  EXPECT_EQ(SnapshotCounter(snapshot, "jxp.merges"), 60u);
  EXPECT_GT(SnapshotCounter(snapshot, "markov.power_iteration.runs"), 0u);
  EXPECT_GT(SnapshotCounter(snapshot, "markov.power_iteration.iterations_total"),
            SnapshotCounter(snapshot, "markov.power_iteration.runs"));
  EXPECT_GT(SnapshotCounter(snapshot, "jxp.extended_cache.hits"), 0u);
}

TEST(TelemetryIntegrationTest, ResultsBitIdenticalWithTelemetryOnAndOff) {
  const datasets::Collection collection = SmallCollection();
  const auto fragments = SmallPartition(collection);

  const auto run = [&](bool telemetry) {
    obs::ScopedEnable enable(telemetry);
    obs::StringTraceSink sink;
    obs::ScopedTraceSink installed(telemetry ? &sink : nullptr);
    core::JxpSimulation sim(collection.data.graph, fragments, SmallConfig());
    sim.RunMeetings(20);
    std::vector<std::vector<double>> scores;
    for (const core::JxpPeer& peer : sim.peers()) scores.push_back(peer.local_scores());
    return scores;
  };

  const auto with_telemetry = run(true);
  const auto without_telemetry = run(false);
  ASSERT_EQ(with_telemetry.size(), without_telemetry.size());
  for (size_t p = 0; p < with_telemetry.size(); ++p) {
    ASSERT_EQ(with_telemetry[p].size(), without_telemetry[p].size());
    for (size_t i = 0; i < with_telemetry[p].size(); ++i) {
      // Bitwise comparison: telemetry must not perturb the algorithm.
      EXPECT_EQ(with_telemetry[p][i], without_telemetry[p][i])
          << "peer " << p << " page " << i;
    }
  }
}

}  // namespace
}  // namespace jxp
