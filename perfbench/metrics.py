"""Arithmetic of the FZ benchmark.

fzbench (the C++ half) writes raw samples and, in a traced run, each
phase's telemetry sink as a Chrome trace (Sink::write_chrome_trace).  This
module turns them into the metrics that BENCHMARK.json names.  Every figure
carries its unit, its sample count and, for ratios, the numerator and
denominator it came from.

Rules kept here, and tested in test_metrics.py:
  * a percentile is reported only when at least MIN_BEYOND samples lie
    beyond it (so p50 needs 20 samples and p90 needs 100);
  * a span's parent is the innermost span on the same thread whose
    interval contains it, and its self time is its duration minus its
    direct children;
  * spans recorded on worker threads belong to the call whose interval
    contains them (the latest-starting one when calls overlap);
  * failures count against attempts;
  * end-to-end figures use only the samples (set-ups, rounds, bursts)
    during which the hypervisor stole no CPU time, or the least-stolen
    ones when too few qualify (see calm()).
"""

import bisect
import math
import statistics
from collections import namedtuple

MIN_BEYOND = 10

Metric = namedtuple("Metric", "value unit samples basis")
Span = namedtuple("Span", "name tid start dur args")


class NotEnoughSamples(ValueError):
    pass


# ---- order statistics --------------------------------------------------------


def percentile(samples, q):
    """Nearest-rank q-quantile, with the count of samples above its rank.

    Raises NotEnoughSamples unless at least MIN_BEYOND samples lie beyond
    it, so no percentile is read off a handful of outliers.
    """
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise NotEnoughSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    return sorted(samples)[rank - 1], n, beyond


def median(samples):
    if not samples:
        raise NotEnoughSamples("median of no samples")
    return statistics.median(samples)


class Ratio(namedtuple("Ratio", "num den")):
    """A ratio that keeps its bases; 0 when the denominator is 0."""

    @property
    def value(self):
        return self.num / self.den if self.den else 0.0

    def basis(self, unit=""):
        return f"{self.num:.6g}{unit} / {self.den:.6g}{unit}"


# The fewest samples a figure rests on: set-ups per phase, codec rounds per
# operation, and calls of a closed loop (p90 of 240 has 24 beyond it).
KEEP_SETUPS, KEEP_ROUNDS, KEEP_CALLS = 3, 8, 240


def calm(series, need):
    """Indices of the samples of a series to measure with: those during
    which the machine stole no CPU time, when there are at least `need` of
    them, else the `need` least-stolen (the earliest of equals first).

    Time stolen from any vCPU stalls every OpenMP fork/join of a call, and
    on a shared 4-vCPU box the per-burst throughput followed the burst's
    stolen share closely (correlation -0.8 to -0.98), while the steal-free
    bursts of different runs agreed.
    """
    steal, ticks = series["steal"], series["ticks"]
    n = len(steal)
    free = [i for i in range(n) if steal[i] == 0]
    if len(free) >= min(need, n):
        return free
    share = [steal[i] / ticks[i] if ticks[i] else 0.0 for i in range(n)]
    return sorted(sorted(range(n), key=lambda i: (share[i], i))[:need])


def calm_seconds(series, need):
    return [series["seconds"][i] for i in calm(series, need)]


def imbalance(durations):
    """Slowest / mean of parallel parts; the slowest one sets the call time."""
    return Ratio(max(durations), statistics.fmean(durations))


def outcome(attempted, failed):
    """(correct, attempted, failed): correct only if something was attempted
    and nothing failed."""
    attempted, failed = int(attempted), int(failed)
    return attempted >= 1 and failed == 0, attempted, failed


# ---- spans --------------------------------------------------------------------


def read_trace(trace):
    """(spans, counters) of a Chrome trace: complete events ("X", times in
    microseconds with ns digits) and counter events ("C")."""
    spans, counters = [], {}
    for e in trace["traceEvents"]:
        if e["ph"] == "X":
            spans.append(Span(e["name"], e["tid"], round(e["ts"] * 1000),
                              round(e["dur"] * 1000), e.get("args", {})))
        elif e["ph"] == "C":
            counters[e["name"].removeprefix("counter/")] = e["args"]["value"]
    return spans, counters


def end(s):
    return s.start + s.dur


def contains(outer, inner):
    return outer.start <= inner.start and end(inner) <= end(outer)


def nest(spans):
    """Direct same-thread parent of every span (index or None) and every
    span's self time (duration minus its direct children)."""
    parent = [None] * len(spans)
    self_ns = [s.dur for s in spans]
    by_tid = {}
    for i, s in enumerate(spans):
        by_tid.setdefault(s.tid, []).append(i)
    for idxs in by_tid.values():
        # Outer spans first; of two with the same interval, the one recorded
        # later (it closed last) is the outer one.
        idxs.sort(key=lambda i: (spans[i].start, -end(spans[i]), -i))
        stack = []
        for i in idxs:
            while stack and not contains(spans[stack[-1]], spans[i]):
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                self_ns[stack[-1]] -= spans[i].dur
            stack.append(i)
    return parent, self_ns


def assign_by_containment(calls, spans):
    """Group worker-thread spans under the call whose interval contains
    them; when several calls contain a span (concurrent callers), the one
    that started last wins.  Returns (groups per call, unassigned count)."""
    order = sorted(range(len(calls)), key=lambda c: calls[c].start)
    starts = [calls[c].start for c in order]
    groups = [[] for _ in calls]
    unassigned = 0
    for s in spans:
        k = bisect.bisect_right(starts, s.start) - 1
        while k >= 0 and not contains(calls[order[k]], s):
            k -= 1
        if k < 0:
            unassigned += 1
        else:
            groups[order[k]].append(s)
    return groups, unassigned


def covered_ns(intervals, lo, hi):
    """Wall time in [lo, hi] covered by the union of (start, end) intervals."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---- end-to-end metrics -------------------------------------------------------

def latency_metrics(out, prefix, latency_s):
    for q in (0.5, 0.9):
        v, n, beyond = percentile(latency_s, q)
        out[f"{prefix}_ms_p{round(q * 100)}"] = Metric(
            v * 1e3, "ms", n, f"{beyond} samples beyond")


def calm_bursts(loop, keep_calls=KEEP_CALLS):
    """(calls, wall seconds, latencies, bursts) of a closed loop's calm
    bursts, at least keep_calls calls' worth; every burst makes the same
    number of calls."""
    starts = [0]
    for n in loop["calls"]:
        starts.append(starts[-1] + int(n))
    keep = calm(loop["bursts"], math.ceil(keep_calls / loop["calls"][0]))
    calls = sum(loop["calls"][b] for b in keep)
    wall = sum(loop["bursts"]["seconds"][b] for b in keep)
    latency = [x for b in keep for x in loop["latency_s"][starts[b]:starts[b + 1]]]
    return calls, wall, latency, len(keep)


def end_to_end(raw):
    codec, reader, service = raw["codec"], raw["reader"], raw["service"]
    out = {}
    setups = [calm_seconds(p["setup_s"], KEEP_SETUPS)
              for p in (codec, reader, service)]
    out["setup_s"] = Metric(
        sum(median(s) for s in setups), "s", min(len(s) for s in setups),
        "sum of the codec, reader and fzd set-up medians")
    names = {"compress": "compress_gbps", "decompress": "decompress_gbps",
             "compress_1w": "compress_gbps_1w",
             "decompress_1w": "decompress_gbps_1w"}
    for op, rounds in codec["rounds"].items():
        kept = calm_seconds(rounds, KEEP_ROUNDS)
        t = median(kept)
        out[names[op]] = Metric(
            codec["input_bytes"] / t / 1e9, "GB/s", len(kept),
            f"{codec['input_bytes']:.0f} B / median round {t * 1e3:.4g} ms, "
            f"{len(kept)} of {len(rounds['seconds'])} rounds")
    r = Ratio(codec["input_bytes"], codec["stream_bytes"])
    out["ratio"] = Metric(r.value, "x", 1, r.basis(" B"))
    out["peak_rss_mb"] = Metric(codec["peak_rss_kb"] / 1024, "MiB", 1,
                                "process high-water RSS after codec set-up")
    for prefix, rate, phase in (("slice", "slices_per_s", reader),
                                ("job", "jobs_per_s", service)):
        calls, wall, latency, kept = calm_bursts(phase)
        out[rate] = Metric(calls / wall, "1/s", int(calls),
                           f"{kept} of {len(phase['calls'])} bursts, {wall:.3g} s")
        latency_metrics(out, prefix, latency)
    return out


# ---- per-layer metrics --------------------------------------------------------

COMPRESS_STAGES = {
    "resolve-transform": "resolve_transform", "fused-quant-shuffle-mark":
    "fused_quant", "prefix-sum-encode": "encode", "assemble": "assemble"}
DECOMPRESS_STAGES = {"fused-decode": "fused_decode",
                     "reconstruct": "reconstruct"}


def codec_layers(codec, out):
    spans, counters = read_trace(codec["trace"])
    parent, self_ns = nest(spans)
    children = {}
    for i, p in enumerate(parent):
        if p is not None:
            children.setdefault(p, []).append(i)
    calls = [i for i, s in enumerate(spans)
             if s.name in ("bench-compress", "bench-decompress")]
    strips, _ = assign_by_containment(
        [spans[c] for c in calls],
        [s for s in spans if s.name in ("fused-strip", "fused-decode-strip")])

    per = {}  # metric name -> per-call values (all-worker calls)
    misses = []
    for c, mine in zip(calls, strips):
        b = spans[c]
        runs = [k for k in children.get(c, [])
                if spans[k].name in ("compress", "decompress")]
        if len(runs) != 1:
            raise ValueError(f"{b.name} at {b.start} has {len(runs)} run spans")
        run = runs[0]
        misses.append(spans[run].args.get("pool_misses", 0))
        if b.args.get("workers", 0) != 0:
            continue
        compress = b.name == "bench-compress"
        table = COMPRESS_STAGES if compress else DECOMPRESS_STAGES
        for k in children.get(run, []):
            st = spans[k]
            if st.name in table:
                per.setdefault(f"codec.{table[st.name]}_ms", []).append(st.dur / 1e6)
                per.setdefault(f"codec.{table[st.name]}_share", []).append(
                    Ratio(st.dur, b.dur))
            if st.name == "fused-decode":
                tail = st.dur - covered_ns(
                    [(s.start, end(s)) for s in mine], st.start, end(st))
                per.setdefault("kernels.decode_tail_ms", []).append(tail / 1e6)
        direction = "compress" if compress else "decompress"
        per.setdefault(f"codec.{direction}_coverage", []).append(
            Ratio(b.dur - self_ns[c] - self_ns[run], b.dur))
        durs = [s.dur for s in mine]
        if compress:
            per.setdefault("kernels.strips", []).append(len(mine))
        if durs:
            name = "kernels.strip_imbalance" if compress else \
                "kernels.decode_strip_imbalance"
            per.setdefault(name, []).append(imbalance(durs))

    units = {"_ms": "ms", "_share": "ratio", "_coverage": "ratio",
             "imbalance": "ratio", "strips": "count"}
    for name, values in per.items():
        unit = next(u for suffix, u in units.items() if name.endswith(suffix))
        ratios = [v for v in values if isinstance(v, Ratio)]
        if ratios:
            mid = sorted(ratios, key=lambda r: r.value)[len(ratios) // 2]
            out[name] = Metric(median([r.value for r in ratios]), unit,
                               len(ratios), "median call: " + mid.basis(" ns"))
        else:
            out[name] = Metric(median(values), unit, len(values), "per call")
    out["pool.misses_per_call"] = Metric(
        statistics.fmean(misses), "count", len(misses), "all traced calls")
    out["pool.retained_mb"] = Metric(
        counters["pool_bytes_retained"] / 2**20, "MiB", 1,
        "pool_bytes_retained gauge")
    r = Ratio(sum(median(s["seconds"]) for s in codec["rounds"].values()),
              sum(median(s["seconds"]) for s in codec["traced_rounds"].values()))
    n = min(len(s["seconds"]) for s in codec["traced_rounds"].values())
    out["telemetry.overhead"] = Metric(
        r.value - 1, "ratio", n,
        "untraced / traced round time - 1, summed medians of the "
        "operations: " + r.basis(" s"))


def reader_layers(reader, out):
    spans, _ = read_trace(reader["trace"])
    fetch = [s.dur / 1e6 for s in spans if s.name == "chunk-fetch"]
    v, n, beyond = percentile(fetch, 0.5)
    out["reader.fetch_ms_p50"] = Metric(v, "ms", n, f"{beyond} beyond")
    # Warm-up reads count too: the cache counters include them.
    st = reader["stats"]
    reads = sum(1 for s in spans if s.name == "bench-read")
    ratios = {
        "reader.hit_ratio": Ratio(st["hits"], st["hits"] + st["misses"]),
        "reader.fetches_per_read": Ratio(len(fetch), reads),
        "reader.evictions_per_read": Ratio(st["evictions"], reads),
        "reader.prefetch_useful": Ratio(st["prefetch_hits"],
                                        st["prefetch_issued"]),
    }
    for name, r in ratios.items():
        out[name] = Metric(r.value, "ratio", int(r.den), r.basis())


def service_layers(service, out):
    spans, _ = read_trace(service["trace"])
    exec_ms, n, beyond = percentile(
        [s.dur / 1e6 for s in spans if s.name == "service-job"], 0.5)
    c = service["counters"]
    latency_ms = median(service["latency_p50_us"]) / 1e3
    job_ms, jobs, _ = percentile(service["latency_s"], 0.5)
    out["service.exec_ms_p50"] = Metric(exec_ms, "ms", n, f"{beyond} beyond")
    out["service.latency_ms_p50"] = Metric(
        latency_ms, "ms", len(service["latency_p50_us"]),
        "median over server instances of the Service's own p50")
    out["service.queue_wait_ms_p50"] = Metric(
        latency_ms - exec_ms, "ms", n, "latency p50 - exec p50")
    out["wire.overhead_ms_p50"] = Metric(
        job_ms * 1e3 - latency_ms, "ms", jobs, "job p50 - latency p50")
    r = Ratio(c["batched_jobs"], c["completed"])
    out["service.batched_share"] = Metric(r.value, "ratio", int(r.den),
                                          r.basis())
    out["service.rejected"] = Metric(c["rejected"], "count", int(c["completed"]),
                                     "all rejection causes")


def per_layer(raw, steal_share):
    out = {}
    codec_layers(raw["codec"], out)
    reader_layers(raw["reader"], out)
    service_layers(raw["service"], out)
    dropped = sum(read_trace(raw[p]["trace"])[1]["events_dropped"]
                  for p in ("codec", "reader", "service"))
    out["telemetry.events_dropped"] = Metric(dropped, "count", 1,
                                             "all phase sinks")
    out["machine.copy_gbps"] = Metric(raw["copy_gbps"], "GB/s", 5,
                                      "median of 5 single-thread copies")
    out["machine.steal_share"] = Metric(steal_share.value, "ratio", 1,
                                        steal_share.basis(" ticks"))
    return out
