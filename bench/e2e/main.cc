// End-to-end benchmark binary. Runs one workload and prints one JSON object
// of raw measurements on stdout; bench/e2e/run.py builds this binary, runs
// it and reduces the measurements to metrics.
//
//   e2e_bench --workload=sim_meet --seed=7 --seconds=30 --trace=0 --out=DIR
//
// Workloads: sim_meet, net_replay, serve_zipf (README.md says why each was
// chosen). Exit code 0 = the run finished and every correctness gate passed.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "bench/e2e/e2e.h"
#include "common/flags.h"
#include "obs/json_writer.h"

namespace jxp {
namespace e2e {

void Result::Check(bool ok, std::string_view what) {
  if (ok) return;
  std::fprintf(stderr, "e2e: CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
               what.data());
  // Keep the report bounded when one gate fails on every operation.
  if (failed_checks_.size() < 16) failed_checks_.emplace_back(what);
}

std::string Result::ToJson(const RunOptions& options) const {
  obs::JsonWriter writer;
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016" PRIx64, digest_);
  writer.Field("workload", options.workload)
      .Field("seed", options.seed)
      .Field("trace", options.trace)
      .Field("correct", correct())
      .Field("attempted", attempted_)
      .Field("failed", failed_)
      .Field("digest", std::string_view(digest));
  writer.BeginArray("failed_checks");
  for (const std::string& what : failed_checks_) writer.Element(what);
  writer.End();
  writer.BeginObject("values");
  for (const auto& [key, value] : values_) writer.Field(key, value);
  writer.End();
  writer.BeginObject("samples");
  for (const auto& [series, values] : samples_) {
    writer.BeginArray(series);
    for (const double value : values) writer.Element(value);
    writer.End();
  }
  writer.End();
  return writer.TakeLine();
}

SpanRecorder::SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

int32_t SpanRecorder::Add(const char* name, const char* layer, uint64_t op,
                          int32_t parent, uint64_t start_ns, uint64_t end_ns) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(Span{name, layer, op, start_ns, end_ns, parent});
  return static_cast<int32_t>(spans_.size() - 1);
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanRecorder*>& recorders, uint64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  int64_t base = 0;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      if (span.end_ns == 0) continue;  // Never closed: the run aborted mid-op.
      std::fprintf(out,
                   "{\"id\":%" PRId64 ",\"parent\":%" PRId64
                   ",\"op\":%" PRIu64 ",\"name\":\"%s\",\"layer\":\"%s\","
                   "\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64 "}\n",
                   base + static_cast<int64_t>(i),
                   span.parent < 0 ? int64_t{-1} : base + span.parent, span.op, span.name,
                   span.layer, span.start_ns - origin_ns, span.end_ns - origin_ns);
    }
    base += static_cast<int64_t>(spans.size());
  }
  return std::fclose(out) == 0;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double PeakRssMb() {
  // This process' own high-water mark. getrusage(RUSAGE_SELF) would also
  // count the image that exec'd it (the launching script), so it is the
  // fallback only.
  long self_kb = 0;
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1) break;
    }
    std::fclose(status);
  }
  if (self_kb == 0) {
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    self_kb = self.ru_maxrss;
  }
  // Forked daemons never exec, so their maximum is their own.
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

}  // namespace e2e
}  // namespace jxp

int main(int argc, char** argv) {
  jxp::Flags flags;
  if (jxp::Status status = flags.Parse(argc, argv); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 2;
  }
  jxp::e2e::RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  options.seconds = flags.GetDouble("seconds", options.seconds);
  options.trace = flags.GetBool("trace", false);
  options.out_dir = flags.GetString("out", ".");
  if (options.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  jxp::e2e::Result result;
  if (options.workload == "sim_meet") {
    jxp::e2e::RunSimMeet(options, result);
  } else if (options.workload == "net_replay") {
    jxp::e2e::RunNetReplay(options, result);
  } else if (options.workload == "serve_zipf") {
    jxp::e2e::RunServeZipf(options, result);
  } else {
    std::fprintf(stderr, "unknown --workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", result.ToJson(options).c_str());
  return result.correct() ? 0 : 1;
}
