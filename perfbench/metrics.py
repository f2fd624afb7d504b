"""Metric arithmetic for the serving benchmark.

Every function here works on the raw observations serve_bench prints
(per-request due / submit / admit / token timestamps in seconds from the
start of the timed phase), so the definitions live in one place and
test_metrics.py can check them without running the engine.
"""

import math
import statistics

# A tail percentile is reported only where at least this many samples
# lie beyond it; with fewer samples the nominal percentile is lowered to
# the highest one the sample supports.
MIN_BEYOND = 10


def tail_index(n, p):
    """Sorted-sample index reported for percentile ``p`` of ``n`` samples.

    Nearest rank, capped at the highest index that keeps ``MIN_BEYOND``
    samples beyond it.  None when no index does (n <= MIN_BEYOND).
    """
    if n <= MIN_BEYOND:
        return None
    k = max(0, math.ceil(p / 100.0 * n) - 1)
    return min(k, n - 1 - MIN_BEYOND)


def percentile(values, p):
    """(value, percentile actually reported, sample count) for ``p``.

    The reported percentile is ``p`` when the sample supports it and the
    highest supported one below ``p`` otherwise; value is None when the
    sample supports none.
    """
    vals = sorted(values)
    k = tail_index(len(vals), p)
    if k is None:
        return None, None, len(vals)
    return vals[k], 100.0 * (k + 1) / len(vals), len(vals)


def ttft_ms(req):
    """Time to first token, from when the request was due (its schedule
    time, or the client's send time) — not from when it was submitted,
    so a late generator or a stalled driver counts against latency."""
    if not req["token_times"]:
        return None
    return (req["token_times"][0] - req["due"]) * 1e3


def itl_gaps_ms(req):
    t = req["token_times"]
    return [(b - a) * 1e3 for a, b in zip(t, t[1:])]


def queue_ms(req):
    """Due time to the start of the first step with the request active."""
    if req["admitted"] < 0:
        return None
    return (req["admitted"] - req["due"]) * 1e3


def finished(reqs):
    return [r for r in reqs if r["finished"]]


def slo_pct(reqs, attempted, ttft_limit_ms, itl_limit_ms):
    """Share of *attempted* requests that finished with TTFT and mean
    inter-token gap within the limits.  A request that failed, was
    refused or never finished is a miss: it is in ``attempted`` but
    cannot pass."""
    if attempted <= 0:
        return 0.0
    met = 0
    for r in finished(reqs):
        t = ttft_ms(r)
        gaps = itl_gaps_ms(r)
        mean_itl = sum(gaps) / len(gaps) if gaps else 0.0
        if t is not None and t <= ttft_limit_ms and mean_itl <= itl_limit_ms:
            met += 1
    return 100.0 * met / attempted


def offered_tokens(reqs):
    """Submitted prompt tokens plus tokens generated.  Fixed by the
    workload: prompt rows a shared prefix let the engine skip still
    count, so sharing lowers CPU per token instead of inflating it."""
    return sum(r["prompt"] + len(r["token_times"]) for r in reqs)


def cpu_ms_per_tok(cpu_s, reqs):
    return cpu_s * 1e3 / offered_tokens(reqs)


def batch_gen_tok_s(reqs):
    """Median over offline batches (requests sharing one due time) of
    tokens generated per wall second from due to the batch's last token."""
    batches = {}
    for r in reqs:
        batches.setdefault(r["due"], []).append(r)
    rates = []
    for due, rs in batches.items():
        end = max(r["done"] for r in rs)
        rates.append(sum(len(r["token_times"]) for r in rs) / (end - due))
    return statistics.median(rates)


def backlog_growing(samples, window_s):
    """True when the pending queue is still growing at the end of an
    open-loop arrival window: the last quarter's mean backlog exceeds
    one request and twice the second quarter's.  Such a run offered more
    than the host can serve, and its latencies are not comparable."""

    def mean_in(lo, hi):
        v = [n for t, n in samples if lo <= t < hi]
        return sum(v) / len(v) if v else 0.0

    q = window_s / 4.0
    late = mean_in(3 * q, window_s)
    return late > 1.0 and late > 2.0 * mean_in(q, 2 * q)

