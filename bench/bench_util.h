#ifndef JXP_BENCH_BENCH_UTIL_H_
#define JXP_BENCH_BENCH_UTIL_H_

#include <string>
#include <vector>

#include "common/flags.h"
#include "core/simulation.h"
#include "crawler/partitioner.h"
#include "datasets/collections.h"

namespace jxp {
namespace bench {

/// Common knobs of the paper-reproduction benches. Every bench binary runs
/// with reduced defaults (so the whole suite finishes in minutes on one
/// core) and accepts flags to go to paper scale:
///   --scale=1.0 --peers-per-category=10 --meetings=3000 --seed=7 ...
struct BenchConfig {
  /// Collection size multiplier (1.0 = the paper's collection sizes).
  double amazon_scale = 0.12;
  double web_scale = 0.05;
  /// Network shape (paper: 10 peers per category = 100 peers).
  size_t peers_per_category = 10;
  /// Meetings to simulate and evaluation cadence.
  size_t meetings = 1500;
  size_t eval_every = 100;
  /// Top-k compared (paper: 1000; Figure 9 uses 10000).
  size_t top_k = 1000;
  /// Query batch size of the query-serving benches (--queries=N).
  size_t queries = 200;
  /// Zipf exponent of the repeated-query trace of micro_query_throughput
  /// (--zipf_s): the i-th distinct query of the pool is drawn
  /// with probability proportional to 1/(i+1)^zipf_s, the skew real web
  /// query logs show and the regime the serving-tier caches exist for.
  double zipf_s = 1.0;
  uint64_t seed = 7;
  /// Telemetry output: when non-empty, a JSON-lines trace sink is installed
  /// at this path (spans, events, and — at exit — a metrics snapshot).
  /// Flag: --metrics_out=PATH.
  std::string metrics_out;
  /// Meeting byte accounting: --wire=estimated (the paper's analytic model,
  /// the default) or --wire=measured (encode every meeting through the
  /// binary wire format and count real frame bytes). The traffic summary
  /// reports both totals either way.
  core::MeetingWireMode wire_mode = core::MeetingWireMode::kEstimated;

  /// Parses the standard flags; malformed input aborts. Unknown flags are
  /// ignored, so a mistyped flag silently runs with the default.
  static BenchConfig FromFlags(int argc, char** argv);
};

/// Builds a collection by name ("amazon" or "webcrawl") at the configured
/// scale.
datasets::Collection MakeCollection(const std::string& name, const BenchConfig& config);

/// The paper's Section 6.1 peer assignment: thematic crawls with
/// peers_per_category crawlers per category, with a crawl budget
/// proportional to the collection size (fragments overlap ~3x).
std::vector<std::vector<graph::PageId>> PaperPartition(
    const datasets::Collection& collection, const BenchConfig& config, uint64_t seed);

/// JXP options used by the benches: the paper's epsilon = 0.85, a
/// tolerance tight enough for the error metrics yet fast, and --wire's
/// meeting wire mode.
core::JxpOptions BenchJxpOptions(const BenchConfig& config);

/// Prints "k v1 v2 ..." rows; helpers to keep bench output uniform.
void PrintHeader(const std::string& title, const datasets::Collection& collection,
                 const BenchConfig& config);
void PrintRow(const std::vector<double>& values);

/// Runs `sim` for config.meetings meetings, evaluating every
/// config.eval_every; prints "meetings footrule linear_error" rows with the
/// given label column and emits each point as a "convergence" trace event.
void RunConvergenceSeries(core::JxpSimulation& sim, const BenchConfig& config,
                          const std::string& label);

/// Prints the network-wide traffic bottom line ("# total traffic: ... MB
/// over N meetings, mean ... KB / max ... KB per meeting") from
/// Network::AggregateTraffic, and emits it as a "traffic_summary" event.
void PrintTrafficSummary(const core::JxpSimulation& sim);

/// Prints one "label meetings_per_peer q1_kb median_kb q3_kb peers" row per
/// meeting index (Figures 11-12): quartiles, across peers, of the size of
/// each peer's m-th message, up to `max_meetings_per_peer` or until fewer
/// than 4 peers reached that meeting count.
void PrintMessageSizeSeries(const core::JxpSimulation& sim, const char* label,
                            size_t max_meetings_per_peer);

}  // namespace bench
}  // namespace jxp

#endif  // JXP_BENCH_BENCH_UTIL_H_
