"""Reduction of e2e_bench's raw measurements into named metrics.

The C++ binary reports raw samples, scalar values and, in a traced run,
spans; everything here is pure Python over those, so the percentile rule,
the best-of-rounds rule, the self-time reduction and the bound arithmetic
are unit-tested in one place (tests/test_reducer.py).
"""

import json
import math
import re
import statistics

WORKLOADS = ("sim_meet", "net_replay", "serve_zipf")
MEETINGS = ("sim_meet", "net_replay")

# Layers named in spans, in report order. "bench" is the benchmark's own
# glue around the calls: a root span's self time, the unattributed residual.
LAYERS = ("wire", "core", "net", "qp", "loadgen")

# At least this many samples must lie beyond a reported percentile.
MIN_TAIL_SAMPLES = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def percentile(values, p):
    """Nearest-rank percentile, or None when fewer than MIN_TAIL_SAMPLES
    samples lie beyond it (the sample cannot support that percentile)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


def best_of_rounds(values, rounds):
    """Every round runs the same operations in the same order and appends
    one time per operation, so `values` holds `rounds` equal runs back to
    back. Returns each operation's fastest time over the rounds."""
    if rounds < 1 or len(values) % rounds:
        raise ValueError("%d samples do not split into %d rounds" % (len(values), rounds))
    per_round = len(values) // rounds
    return [min(values[r * per_round + i] for r in range(rounds)) for i in range(per_round)]


def spread(values):
    """(max - min) / median: the --repeat report's run-to-run spread."""
    median = statistics.median(values)
    return (max(values) - min(values)) / abs(median) if median else math.inf


def worsening(parent, child, better):
    """Share by which `child` is worse than `parent` (negative = better)."""
    if parent == 0:
        return 0.0 if child == parent else math.inf
    change = (child - parent) / abs(parent)
    return change if better == "lower" else -change


def within_bound(parent, child, better, bound):
    """True when `child` is no worse than `parent` by more than `bound`."""
    return worsening(parent, child, better) <= bound


# --- Metric definitions ------------------------------------------------------
#
# Each metric reads the raw run record. `workloads` lists where the metric is
# measured; elsewhere it reports 0 (the layer does no work there). A metric
# that is measured on a workload but cannot be computed is a benchmark error.
# Series named "traced.*", and the series only a traced round records
# (spans, wire.encode_ms, core.apply_ms, qp.stage_*), exist in traced runs.


class Metric:
    def __init__(self, unit, better, workloads, compute, doc):
        self.unit = unit
        self.better = better
        self.workloads = workloads
        self.compute = compute
        self.doc = doc


def _series(run, name):
    return run["samples"].get(name, [])


def _pct(series, p):
    return lambda run: percentile(_series(run, series), p)


def _median(series):
    return lambda run: (statistics.median(_series(run, series))
                        if _series(run, series) else None)


def _mean(series):
    return lambda run: (statistics.fmean(_series(run, series))
                        if _series(run, series) else None)


def _value(key):
    return lambda run: run["values"].get(key)


def _best(run, series):
    return best_of_rounds(_series(run, series), int(run["values"]["rounds"]))


def _latency_p50_ms(run):
    return percentile(_best(run, "op_ms"), 50)


def _throughput_per_s(run):
    """Meetings per second of meeting time, or queries per second of the
    capacity chunks, each operation or chunk at its fastest round."""
    if run["workload"] in MEETINGS:
        return 1e3 * len(_best(run, "op_ms")) / sum(_best(run, "op_ms"))
    chunks = _best(run, "capacity_chunk_s")
    return run["values"]["capacity_chunk_queries"] * len(chunks) / sum(chunks)


def _encode_mb_per_s(run):
    seconds = sum(_series(run, "wire.encode_ms")) / 1e3
    return sum(_series(run, "wire.encode_bytes")) / 1e6 / seconds if seconds else None


def _overhead_latency_ms(run):
    traced = percentile(_series(run, "traced.op_ms"), 50)
    timed = percentile(_series(run, "op_ms"), 50)
    return None if traced is None or timed is None else traced - timed


def _overhead_throughput_share(run):
    return 1 - statistics.fmean(_series(run, "op_ms")) / statistics.fmean(
        _series(run, "traced.op_ms"))


END_TO_END = {
    "setup_s": Metric(
        "s", "lower", WORKLOADS, _median("setup_s"),
        "set-up before the first timed operation (data, partition, baseline "
        "PageRank, peer init, daemon spawn, index freeze); median of the rounds"),
    "latency_p50_ms": Metric(
        "ms", "lower", WORKLOADS, _latency_p50_ms,
        "median latency of one operation at its fastest round: a meeting, or a "
        "query at 6,000 qps timed from its scheduled arrival"),
    "throughput_per_s": Metric(
        "1/s", "higher", WORKLOADS, _throughput_per_s,
        "meetings per second (serial, one in flight), or queries per second "
        "of the 2 serving workers in a closed loop"),
    "peak_rss_mb": Metric(
        "MB", "lower", WORKLOADS, _value("peak_rss_mb"),
        "largest resident set of the benchmark process or any daemon"),
}

MEET = ("sim_meet",)
NET = ("net_replay",)
SERVE = ("serve_zipf",)
DATA = MEET + SERVE

PER_LAYER = {}


def _layer(name, unit, better, workloads, compute, doc):
    PER_LAYER[name] = Metric(unit, better, workloads, compute, doc)


# Set-up stages.
_layer("datasets.collection_s", "s", "lower", DATA, _median("datasets.collection_s"),
       "MakeWebCrawlLike")
_layer("crawler.partition_s", "s", "lower", DATA, _median("crawler.partition_s"),
       "crawl or fragment partition")
_layer("pagerank.baseline_s", "s", "lower", DATA, _median("pagerank.baseline_s"),
       "centralized ComputePageRank")
_layer("core.peer_init_s", "s", "lower", MEET, _median("core.peer_init_s"),
       "JxpPeer construction, one local PageRank each")
_layer("search.index_s", "s", "lower", SERVE, _median("search.index_s"),
       "PeerIndex::AddDocument over all peers")
_layer("qp.freeze_s", "s", "lower", SERVE, _median("qp.freeze_s"),
       "QueryServer::AddPeer (compressed freeze) over all peers")
_layer("net.spawn_s", "s", "lower", NET, _median("net.spawn_s"),
       "fork of 8 daemons until each reports its port")
# The tail of the end-to-end latency, over every timed round's samples.
_layer("latency_p99_ms", "ms", "lower", WORKLOADS, _pct("op_ms", 99),
       "p99 operation latency")
# The meeting path.
_layer("wire.encode_ms.p50", "ms", "lower", MEET, _pct("wire.encode_ms", 50),
       "JxpPeer::EncodeMeetingBytes")
_layer("wire.decode_ms.p50", "ms", "lower", MEET, _pct("wire.decode_ms", 50),
       "core::DecodeMeetingMessage of the bytes the other side applies")
_layer("wire.encode_mb_per_s", "MB/s", "higher", MEET, _encode_mb_per_s,
       "encoded bytes per second of encode time")
_layer("wire.bytes_per_meeting", "B", "lower", MEETINGS, _mean("wire.bytes_per_meeting"),
       "both messages of a meeting")
_layer("core.apply_ms.p50", "ms", "lower", MEET, _pct("core.apply_ms", 50),
       "JxpPeer::ApplyMeetingBytes: decode, merge and local PageRank")
_layer("core.apply_ms.p99", "ms", "lower", MEET, _pct("core.apply_ms", 99),
       "JxpPeer::ApplyMeetingBytes")
_layer("core.merge_solve_ms.p50", "ms", "lower", MEET, _pct("core.merge_solve_ms", 50),
       "apply minus decode of the same message")
_layer("markov.pr_iterations_per_apply", "count", "lower", MEET,
       _mean("markov.pr_iterations_per_apply"), "RemoteMeetingApply::pr_iterations")
_layer("core.recrawl_ms.p50", "ms", "lower", MEET, _pct("core.recrawl_ms", 50),
       "JxpPeer::ReplaceFragment after a 10% re-crawl, after each round's meetings")
_layer("metrics.eval_ms.median", "ms", "lower", MEET, _median("metrics.eval_ms"),
       "BuildGlobalJxpScores + EvaluateAccuracy, one per 100 meetings")
_layer("metrics.time_to_target_s", "s", "lower", MEET, _median("metrics.time_to_target_s"),
       "meeting and evaluation time until the top-1000 footrule reaches the target")
_layer("metrics.meetings_to_target", "count", "lower", MEET, _value("meetings_to_target"),
       "meetings until the footrule target")
# The networked path.
_layer("net.overhead_ms.p50", "ms", "lower", NET, _pct("net.overhead_ms", 50),
       "Meet round trip minus the in-process twin's time for the same meeting")
_layer("net.overhead_ms.p99", "ms", "lower", NET, _pct("net.overhead_ms", 99),
       "Meet round trip minus the in-process twin's time for the same meeting")
_layer("net.twin_ms.p50", "ms", "lower", NET, _pct("net.twin_ms", 50),
       "the same meeting in process: two encodes and two applies")
_layer("net.dials_per_meeting", "count", "lower", NET, _value("net.dials_per_meeting"),
       "fresh TCP connects per meeting")
_layer("net.pool_reuse_ratio", "ratio", "higher", NET, _value("net.pool_reuse_ratio"),
       "pooled reuses / (dials + reuses)")
_layer("net.frame_overhead_ratio", "ratio", "lower", NET,
       _value("net.frame_overhead_ratio"), "daemon bytes_sent / meeting message bytes")
# The serving path.
_layer("qp.serve_ms.p50", "ms", "lower", SERVE, _pct("qp.serve_ms", 50),
       "QueryServer::ServeConcurrent call time")
_layer("qp.serve_ms.p99", "ms", "lower", SERVE, _pct("qp.serve_ms", 99),
       "QueryServer::ServeConcurrent call time")
_layer("qp.queue_wait_ms.p99", "ms", "lower", SERVE, _pct("qp.queue_wait_ms", 99),
       "scheduled arrival until a worker is free")
_layer("qp.stage_decode_ns.p50", "ns", "lower", SERVE, _value("qp.stage_decode_ns.p50"),
       "LatencyRecorder decode stage")
_layer("qp.stage_scoring_ns.p50", "ns", "lower", SERVE, _value("qp.stage_scoring_ns.p50"),
       "LatencyRecorder scoring stage")
_layer("qp.stage_heap_ns.p50", "ns", "lower", SERVE, _value("qp.stage_heap_ns.p50"),
       "LatencyRecorder heap stage")
_layer("qp.postings_decoded_per_query", "count", "lower", SERVE,
       _value("qp.postings_decoded_per_query"), "QueryStats postings_decoded")
_layer("qp.max_qps_at_slo", "1/s", "higher", SERVE, _value("qp.max_qps_at_slo"),
       "largest offered rate with p99 <= 5 ms and no backlog")
_layer("loadgen.lateness_ms.p99", "ms", "lower", SERVE, _pct("loadgen.lateness_ms", 99),
       "worker free until dispatch; large means the numbers measure the generator")
# Self time of each layer per traced operation, the residual, and the
# tracing overhead.
for _name in LAYERS:
    _layer("self.%s_ms_per_op" % _name, "ms", "lower", WORKLOADS,
           _value("self.%s_ms_per_op" % _name),
           "self time of the %s layer per traced operation" % _name)
_layer("trace.residual_share", "ratio", "lower", WORKLOADS,
       _value("trace.residual_share"),
       "root-span self time (benchmark glue) / operation time")
_layer("trace.overhead_latency_p50_ms", "ms", "lower", WORKLOADS, _overhead_latency_ms,
       "traced minus timed rounds: median operation latency")
_layer("trace.overhead_throughput_share", "ratio", "lower", MEETINGS,
       _overhead_throughput_share, "traced minus timed rounds: lost share of throughput")


# --- Spans -------------------------------------------------------------------


def _covered(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover. Returns {span id: nanoseconds}."""
    children = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(
                (span["start_ns"], span["end_ns"]))
    result = {}
    for span in spans:
        duration = span["end_ns"] - span["start_ns"]
        result[span["id"]] = duration - _covered(children.get(span["id"], []))
    return result


def reduce_spans(spans):
    """Per-layer self time per operation (one root span each: a meeting or
    a query) and the residual share, the roots' own self time. The layer
    self times plus the residual add up to the operations' total."""
    selfs = self_times(spans)
    by_layer = {layer: 0 for layer in LAYERS}
    residual = 0
    root_total = 0
    operations = 0
    for span in spans:
        own = selfs[span["id"]]
        if span["parent"] < 0:
            root_total += span["end_ns"] - span["start_ns"]
            operations += 1
        if span["layer"] in by_layer:
            by_layer[span["layer"]] += own
        else:
            residual += own
    values = {}
    for layer, nanos in by_layer.items():
        values["self." + layer + "_ms_per_op"] = (nanos / 1e6 / operations
                                                  if operations else 0.0)
    values["trace.residual_share"] = residual / root_total if root_total else 0.0
    return values


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


# --- Runs --------------------------------------------------------------------


def compute_metrics(run, table):
    """{name: value} for every metric of `table` on `run`'s workload."""
    workload = run["workload"]
    metrics = {}
    for name, metric in table.items():
        if workload not in metric.workloads:
            metrics[name] = 0.0
            continue
        value = metric.compute(run)
        if value is None:
            raise ValueError("%s: metric %s has no value (too few samples?)"
                             % (workload, name))
        metrics[name] = float(value)
    return metrics


def validate_benchmark(spec):
    """Errors in a BENCHMARK.json object against this reducer's metric and
    workload definitions; an empty list means valid."""
    errors = []
    workloads = [w.get("name") for w in spec.get("workloads", [])]
    end_to_end = spec.get("end_to_end", [])
    per_layer = spec.get("per_layer", [])
    if not 1 <= len(end_to_end) <= 16:
        errors.append("1 to 16 end_to_end metrics")
    if not 1 <= len(per_layer) <= 128:
        errors.append("1 to 128 per_layer metrics")
    for name in workloads:
        if name not in WORKLOADS:
            errors.append("workload %r is not run by run.py" % name)
    for section, entries, table in (("end_to_end", end_to_end, END_TO_END),
                                    ("per_layer", per_layer, PER_LAYER)):
        for entry in entries:
            name = entry.get("name")
            metric = table.get(name)
            if metric is None:
                errors.append("%s %s: not computed by the reducer" % (section, name))
                continue
            if (entry.get("unit"), entry.get("better")) != (metric.unit, metric.better):
                errors.append("%s %s: unit or direction differs from the reducer"
                              % (section, name))
            if not any(w in workloads for w in metric.workloads):
                errors.append("%s %s: measured on no listed workload" % (section, name))
            bound = entry.get("bound")
            if section == "end_to_end" and not (isinstance(bound, (int, float))
                                                and 0 < bound <= 0.25):
                errors.append("end_to_end %s: bound must be in (0, 0.25]" % name)
    names = workloads + [e.get("name") for e in end_to_end + per_layer]
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            errors.append("bad name %r" % (name,))
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    if "setup_s" not in [e.get("name") for e in end_to_end]:
        errors.append("end_to_end needs setup_s")
    return errors
