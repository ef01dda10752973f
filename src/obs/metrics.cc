#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "obs/json_writer.h"

namespace jxp {
namespace obs {

// ---------------------------------------------------------------------------
// Registry shards

namespace {

/// Single-writer relaxed update: the owning thread is the only writer.
void Store(std::atomic<uint64_t>& cell, uint64_t value) {
  cell.store(value, std::memory_order_relaxed);
}
uint64_t Load(const std::atomic<uint64_t>& cell) {
  return cell.load(std::memory_order_relaxed);
}

}  // namespace

struct MetricsRegistry::Shard {
  /// Per-shard accumulators of one histogram. Cells are relaxed atomics
  /// written only by the owning thread (plain load-modify-store, exact) and
  /// read by Snapshot, so concurrent snapshots are race-free. Slot storage
  /// is allocated lazily, one 128-slot range (one power of two above 256
  /// units) at a time: a dense slot array would cost HdrHistogram::kNumSlots
  /// * 8 B (59 KB) per (thread, histogram) pair, while a metric's samples
  /// usually touch a few ranges.
  struct HistShard {
    static constexpr size_t kRangeSlots = HdrHistogram::kSubBucketHalf;
    static constexpr size_t kNumRanges = HdrHistogram::kNumSlots / kRangeSlots;
    static_assert(HdrHistogram::kNumSlots % kRangeSlots == 0);
    using Range = std::array<std::atomic<uint64_t>, kRangeSlots>;

    HistShard() = default;
    HistShard(const HistShard&) = delete;
    HistShard& operator=(const HistShard&) = delete;
    ~HistShard() {
      for (auto& range : ranges) delete range.load(std::memory_order_relaxed);
    }
    /// Published with release by the owner on first use; null until then.
    std::array<std::atomic<Range*>, kNumRanges> ranges{};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{std::numeric_limits<uint64_t>::max()};
    std::atomic<uint64_t> max{0};
  };

  std::array<std::atomic<uint64_t>, kMaxMetrics> counters{};
  std::array<std::atomic<HistShard*>, kMaxMetrics> hists{};
  /// Owns the HistShards published in `hists`. Appended only by the owning
  /// thread; freed with the registry.
  std::vector<std::unique_ptr<HistShard>> owned;
};

// ---------------------------------------------------------------------------
// MetricsRegistry

namespace {
std::atomic<uint64_t> g_next_registry_id{1};
}  // namespace

MetricsRegistry::MetricsRegistry()
    : registry_id_(g_next_registry_id.fetch_add(1, std::memory_order_relaxed)) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked deliberately: bench exporters run from atexit handlers, which
  // would otherwise race static destruction order.
  static MetricsRegistry* global = new MetricsRegistry();
  return *global;
}

uint32_t MetricsRegistry::Register(std::string_view name, Kind kind) {
  JXP_CHECK(!name.empty());
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t id = 0; id < metrics_.size(); ++id) {
    if (metrics_[id].name != name) continue;
    JXP_CHECK(metrics_[id].kind == kind)
        << "metric '" << metrics_[id].name << "' re-registered with a different kind";
    return static_cast<uint32_t>(id);
  }
  JXP_CHECK_LT(metrics_.size(), kMaxMetrics) << "metrics registry full";
  metrics_.push_back({std::string(name), kind});
  return static_cast<uint32_t>(metrics_.size() - 1);
}

Counter MetricsRegistry::GetCounter(std::string_view name) {
  return Counter(this, Register(name, Kind::kCounter));
}

Histogram MetricsRegistry::GetHistogram(std::string_view name) {
  return Histogram(this, Register(name, Kind::kHistogram));
}

MetricsRegistry::Shard& MetricsRegistry::LocalShard() {
  struct CacheEntry {
    uint64_t registry_id;
    Shard* shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.registry_id == registry_id_) return *entry.shard;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  shards_.push_back(std::make_unique<Shard>());
  Shard* shard = shards_.back().get();
  cache.push_back({registry_id_, shard});
  return *shard;
}

void MetricsRegistry::AddCounter(uint32_t id, uint64_t n) {
  std::atomic<uint64_t>& cell = LocalShard().counters[id];
  Store(cell, Load(cell) + n);
}

void MetricsRegistry::ObserveHistogram(uint32_t id, double value) {
  // The range test also rejects NaN and infinities.
  JXP_CHECK(value >= 0 && value <= Histogram::kMaxValue)
      << "histogram sample must be finite and in [0, 1e12]: " << value;
  // floor(v * 2^20 + 0.5): deterministic round-half-up into integer units;
  // exact integer math from here on, so shards merge associatively.
  const auto units =
      static_cast<uint64_t>(std::floor(value * Histogram::kUnitsPerValue + 0.5));
  Shard& shard = LocalShard();
  using HistShard = Shard::HistShard;
  HistShard* hist = shard.hists[id].load(std::memory_order_acquire);
  if (hist == nullptr) {
    shard.owned.push_back(std::make_unique<HistShard>());
    hist = shard.owned.back().get();
    shard.hists[id].store(hist, std::memory_order_release);
  }
  const size_t slot = HdrHistogram::SlotIndexOf(units);
  std::atomic<HistShard::Range*>& range_cell = hist->ranges[slot / HistShard::kRangeSlots];
  HistShard::Range* range = range_cell.load(std::memory_order_acquire);
  if (range == nullptr) {
    range = new HistShard::Range{};
    range_cell.store(range, std::memory_order_release);
  }
  std::atomic<uint64_t>& cell = (*range)[slot % HistShard::kRangeSlots];
  Store(cell, Load(cell) + 1);
  Store(hist->count, Load(hist->count) + 1);
  Store(hist->sum, Load(hist->sum) + units);
  if (units < Load(hist->min)) Store(hist->min, units);
  if (units > Load(hist->max)) Store(hist->max, units);
}

void Counter::Increment(uint64_t n) {
  if (!Enabled() || registry_ == nullptr) return;
  registry_->AddCounter(id_, n);
}

void Histogram::Observe(double value) {
  if (!Enabled() || registry_ == nullptr) return;
  registry_->ObserveHistogram(id_, value);
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t id = 0; id < metrics_.size(); ++id) {
    const MetricInfo& info = metrics_[id];
    switch (info.kind) {
      case Kind::kCounter: {
        uint64_t total = 0;
        for (const auto& shard : shards_) {
          total += Load(shard->counters[id]);
        }
        snapshot.counters.push_back({info.name, total});
        break;
      }
      case Kind::kHistogram: {
        using HistShard = Shard::HistShard;
        MetricsSnapshot::HistogramValue value{info.name, {}};
        for (const auto& shard : shards_) {
          const HistShard* hist = shard->hists[id].load(std::memory_order_acquire);
          if (hist == nullptr) continue;
          for (size_t r = 0; r < HistShard::kNumRanges; ++r) {
            const HistShard::Range* range = hist->ranges[r].load(std::memory_order_acquire);
            if (range == nullptr) continue;
            for (size_t i = 0; i < HistShard::kRangeSlots; ++i) {
              value.data.AddToSlot(r * HistShard::kRangeSlots + i, Load((*range)[i]));
            }
          }
          value.data.AddMoments(Load(hist->count), Load(hist->sum), Load(hist->min),
                                Load(hist->max));
        }
        snapshot.histograms.push_back(std::move(value));
        break;
      }
    }
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    for (auto& counter : shard->counters) Store(counter, 0);
    for (auto& hist : shard->owned) {
      for (auto& range : hist->ranges) {
        Shard::HistShard::Range* slots = range.load(std::memory_order_relaxed);
        if (slots == nullptr) continue;
        for (auto& cell : *slots) Store(cell, 0);
      }
      Store(hist->count, 0);
      Store(hist->sum, 0);
      Store(hist->min, std::numeric_limits<uint64_t>::max());
      Store(hist->max, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot serialization

bool IsTimingMetric(std::string_view name) {
  return name.ends_with("_ms") || name.ends_with("_seconds") || name.ends_with("_ns");
}

std::string MetricNameViolation(std::string_view name) {
  if (name.empty()) return "empty name";
  for (const char c : name) {
    if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.') {
      continue;
    }
    return std::string("illegal character '") + c + "' (allowed: [a-z0-9_.])";
  }
  if (name.front() == '.' || name.back() == '.' ||
      name.find("..") != std::string_view::npos) {
    return "empty dot-separated segment";
  }
  if (name.front() == '_' || name.back() == '_') {
    return "leading or trailing underscore";
  }
  // Timing metrics must use the three canonical suffixes and nothing that
  // merely looks like one: a near-miss suffix would carry nondeterministic
  // values yet survive ToJsonLines(include_timing=false), breaking the
  // cross-thread-count byte-for-byte determinism tests.
  if (!IsTimingMetric(name)) {
    static constexpr std::string_view kNearMisses[] = {
        "_millis", "_msec",   "_msecs",  "_sec",      "_secs",
        "_nanos",  "_micros", "_us",     "_duration", "_elapsed",
        "_latency", "_time",  "_wall",   "_cpu"};
    for (const std::string_view suffix : kNearMisses) {
      if (name.ends_with(suffix)) {
        return std::string("suffix '") + std::string(suffix) +
               "' looks like a timing unit; timing metrics must end in _ms, "
               "_seconds, or _ns";
      }
    }
  }
  return "";
}

std::string MetricsSnapshot::ToJsonLines(bool include_timing) const {
  std::string out;
  JsonWriter writer;
  for (const CounterValue& counter : counters) {
    if (!include_timing && IsTimingMetric(counter.name)) continue;
    writer.Field("type", "counter").Field("name", counter.name).Field("value",
                                                                      counter.value);
    out += writer.TakeLine();
    out.push_back('\n');
  }
  for (const HistogramValue& histogram : histograms) {
    const HdrHistogram& data = histogram.data;
    if (data.count() == 0) continue;
    if (!include_timing && IsTimingMetric(histogram.name)) continue;
    const auto value = [](auto units) {
      return static_cast<double>(units) / Histogram::kUnitsPerValue;
    };
    writer.Field("type", "histogram")
        .Field("name", histogram.name)
        .Field("count", data.count())
        .Field("sum", value(data.sum()))
        .Field("mean", value(data.mean()))
        .Field("min", value(data.min()))
        .Field("max", value(data.max()))
        .Field("p50", value(data.ValueAtPercentile(50)))
        .Field("p90", value(data.ValueAtPercentile(90)))
        .Field("p99", value(data.ValueAtPercentile(99)))
        .Field("p999", value(data.ValueAtPercentile(99.9)));
    out += writer.TakeLine();
    out.push_back('\n');
  }
  return out;
}

}  // namespace obs
}  // namespace jxp
