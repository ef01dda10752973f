#ifndef JXP_BENCH_E2E_E2E_H_
#define JXP_BENCH_E2E_E2E_H_

// Shared pieces of the end-to-end benchmark binary: run options, the result
// record every workload fills, and the span recorder of the traced run.
//
// The benchmark measures each layer from outside, by timing the calls it
// makes into the library's public functions; nothing here reaches into the
// library's internals.

#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "core/jxp_peer.h"

namespace jxp {
namespace e2e {

struct RunOptions {
  std::string workload;
  uint64_t seed = 7;
  /// Length of the measured phase. The work is sized from it with a fixed
  /// rate per workload, so a given --seconds always means the same
  /// operations, however fast the machine runs them.
  double seconds = 30;
  /// Adds one traced round after the timed rounds: a span around every
  /// library call. Timed rounds record no spans at all.
  bool trace = false;
  /// Directory for spans.jsonl (traced runs).
  std::string out_dir;
};

/// Raw measurements of one run. The binary reports raw samples and counts;
/// the Python reducer turns them into percentiles and metrics, so the
/// percentile rule lives in one tested place.
class Result {
 public:
  /// Appends one sample to a named series (milliseconds, seconds or counts,
  /// as the series name says).
  void Sample(const std::string& series, double value) {
    samples_[series].push_back(value);
  }
  /// Sets a named scalar.
  void Value(const std::string& key, double value) { values_[key] = value; }
  /// Records a correctness gate; a failing gate makes the run incorrect.
  void Check(bool ok, std::string_view what);
  /// Counts one attempted operation and whether it failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Records a round's digest of result bits; every round of a run must
  /// give the same one, the traced round included.
  void Digest(uint64_t digest) {
    if (has_digest_) {
      Check(digest == digest_, "every round reproduces the first round's digest");
      return;
    }
    digest_ = digest;
    has_digest_ = true;
  }

  bool correct() const { return failed_checks_.empty(); }
  /// One JSON object with every sample, value, gate and the digest.
  std::string ToJson(const RunOptions& options) const;

 private:
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, double> values_;
  std::vector<std::string> failed_checks_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t digest_ = 0;
  bool has_digest_ = false;
};

/// One timed interval of a library call. `parent` indexes the enclosing
/// span of the same operation (-1 for an operation's root span).
struct Span {
  const char* name;
  const char* layer;
  uint64_t op;
  uint64_t start_ns;
  uint64_t end_ns;
  int32_t parent;
};

/// Preallocated in-memory span store, written out once at exit. One
/// recorder per thread; a full recorder drops spans and counts them.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t capacity);
  /// Opens a span; returns its id, or -1 when the store is full.
  int32_t Begin(const char* name, const char* layer, uint64_t op, int32_t parent) {
    return Add(name, layer, op, parent, MonotonicNanos(), 0);
  }
  /// Stores a span with explicit bounds (end 0 = still open).
  int32_t Add(const char* name, const char* layer, uint64_t op, int32_t parent,
              uint64_t start_ns, uint64_t end_ns);
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = MonotonicNanos();
  }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span; a null recorder (untraced operation) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* layer, uint64_t op,
             int32_t parent = -1)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(name, layer, op, parent)) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }
  /// Ends the span now; returns its length in ms, or -1 when none was
  /// recorded (untraced, or the store was full).
  double Close() {
    if (recorder_ == nullptr || id_ < 0) return -1;
    recorder_->End(id_);
    const Span& span = recorder_->spans()[static_cast<size_t>(id_)];
    recorder_ = nullptr;
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-6;
  }

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

/// Writes every recorder's spans to `path` as JSON lines, timestamps
/// relative to `origin_ns`; span ids are made unique across recorders.
bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders, uint64_t origin_ns);

/// Milliseconds between two MonotonicNanos readings.
inline double Millis(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}
inline double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// FNV-1a over raw bytes, chained through `hash`.
uint64_t Fnv1a(const void* data, size_t size, uint64_t hash = 0xcbf29ce484222325ULL);
inline uint64_t HashDouble(double value, uint64_t hash) {
  return Fnv1a(&value, sizeof(value), hash);
}

/// Digest of every peer's world score and local score bits.
uint64_t ScoreDigest(const std::vector<core::JxpPeer>& peers);

/// Seed of every workload's data: collections, crawl partitions, corpus and
/// query pool. --seed draws only the operation stream (meeting pairs,
/// re-crawls, query trace and arrival times), so that runs on different
/// seeds measure the same system on equally hard inputs.
inline constexpr uint64_t kDataSeed = 7;

/// Seeded meeting schedule in rounds: each round is a random perfect
/// matching of the peers, so every peer meets once per round. Runs on
/// different seeds then spread the same work over the same peers, which
/// uniformly drawn pairs do not (peer sizes differ 25-fold).
class RoundSchedule {
 public:
  RoundSchedule(size_t peers, uint64_t seed) : order_(peers), next_(peers), rng_(seed) {
    std::iota(order_.begin(), order_.end(), size_t{0});
  }
  std::pair<size_t, size_t> Next() {
    if (next_ + 2 > order_.size()) {
      rng_.Shuffle(order_);
      next_ = 0;
    }
    next_ += 2;
    return {order_[next_ - 2], order_[next_ - 1]};
  }

 private:
  std::vector<size_t> order_;
  size_t next_;
  Random rng_;
};

/// Largest resident set of this process or of any reaped child, in MB.
double PeakRssMb();

/// Timed rounds per run. Each round builds a fresh world and runs the same
/// operation stream on it, so every operation is timed kRounds times, some
/// seconds apart. The host's slow spells last seconds, so the fastest of an
/// operation's times is steady where a single time is not (README.md).
inline constexpr int kRounds = 3;

/// Runs kRounds untraced rounds and, when tracing, one traced round after
/// them. A round builds its world with `build()`, timed into "setup_s"
/// (untraced rounds only), then calls `run(world, round, traced)`. Each
/// world is freed before the next is built, so peak memory holds one.
/// Stops early once a gate has failed.
///
/// "peak_rss_mb" is read after the first round. Later rounds build their
/// worlds in memory earlier ones freed, and a forked daemon's resident set
/// counts the parent pages it maps, which grow with the samples; both make
/// later peaks drift with the seed.
template <typename Build, typename Run>
void RunRounds(const RunOptions& options, Result& result, Build build, Run run) {
  result.Value("rounds", kRounds);
  for (int round = 0; round < kRounds + (options.trace ? 1 : 0) && result.correct();
       ++round) {
    const bool traced = round == kRounds;
    const uint64_t start = MonotonicNanos();
    auto world = build();
    if (!traced) result.Sample("setup_s", Seconds(start, MonotonicNanos()));
    run(*world, round, traced);
    if (round == 0) result.Value("peak_rss_mb", PeakRssMb());
  }
}

void RunSimMeet(const RunOptions& options, Result& result);
void RunNetReplay(const RunOptions& options, Result& result);
void RunServeZipf(const RunOptions& options, Result& result);

}  // namespace e2e
}  // namespace jxp

#endif  // JXP_BENCH_E2E_E2E_H_
