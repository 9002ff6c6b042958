"""Metric arithmetic of the benchmark: percentiles, geomeans, error
rates, span self times and the scaling of timings to the reference
speed.  Pure functions, tested by test_metrics.py."""

import bisect
import math
import statistics

# The percentiles a tail latency may be reported at, highest first.
TAIL_LADDER = (99, 90, 50)
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100.0 * n))


def reportable(n, p):
    """A percentile is reported only where at least MIN_BEYOND samples
    lie beyond it."""
    return beyond(n, p) >= MIN_BEYOND


def tail_percentile(n):
    """The highest percentile of TAIL_LADDER that n samples support, or
    None when even the median has too few samples beyond it."""
    for p in TAIL_LADDER:
        if reportable(n, p):
            return p
    return None


def geomean(values):
    """Geometric mean of values; values that are not positive are left
    out and counted.  Returns (mean, used, left_out)."""
    logs = [math.log(v) for v in values if v > 0.0]
    left_out = len(values) - len(logs)
    if not logs:
        return (float("nan"), 0, left_out)
    return (math.exp(sum(logs) / len(logs)), len(logs), left_out)


def error_rate(attempted, exception=0, invalid_row=0, nondeterministic=0,
               bad_response=0, start_failure=0):
    """Failures of every kind over the ops attempted: exceptions, rows not
    validated, rows that differ from their reference, non-`ok` or
    mismatched responses and server start failures."""
    if attempted <= 0:
        raise ValueError("no ops attempted")
    failed = (exception + invalid_row + nondeterministic + bad_response
              + start_failure)
    return failed / attempted


def span_times(spans):
    """Per-name totals from spans given as (id, parent, op, name, t0, t1).

    Returns {name: (count, total_s, self_s)}.  A span's self time is its
    duration minus the time its direct children cover."""
    children = {}
    for sid, parent, _op, _name, t0, t1 in spans:
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (t1 - t0)
    out = {}
    for sid, _parent, _op, name, t0, t1 in spans:
        dur = t1 - t0
        count, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (count + 1, total + dur,
                     self_s + max(0.0, dur - children.get(sid, 0.0)))
    return out


def unattributed_share(spans, root):
    """The part of the root spans' time that no child span covers."""
    times = span_times(spans)
    if root not in times or times[root][1] <= 0.0:
        return 0.0
    _count, total, self_s = times[root]
    return self_s / total


def speed_factors(calibrations, intervals, ref_s, k=9):
    """Scale of each interval (start, end, ...) to the reference speed:
    ref_s over the median duration of the k calibrations (midpoint,
    seconds) whose midpoints lie nearest the interval's midpoint."""
    if not calibrations:
        raise ValueError("no calibrations")
    cal = sorted(calibrations)
    mids = [m for m, _ in cal]
    out = []
    for iv in intervals:
        mid = (iv[0] + iv[1]) / 2.0
        i = bisect.bisect_left(mids, mid)
        near = sorted(range(max(0, i - k), min(len(cal), i + k)),
                      key=lambda j: abs(mids[j] - mid))[:k]
        out.append(ref_s / statistics.median(cal[j][1] for j in near))
    return out


def scale_ops(starts, values, segments, factors):
    """Each op's value times the factor of the segment it started in;
    an op that starts before the first segment takes the first's."""
    seg_starts = [s[0] for s in segments]
    return [v * factors[max(0, bisect.bisect_right(seg_starts, t) - 1)]
            for t, v in zip(starts, values)]
