"""Arithmetic shared by run.py and compare.py.

Everything that turns raw samples into reported numbers lives here, so
test_harness.py can check it on synthetic samples:

- percentiles, printed only when at least 10 samples lie beyond them;
- ratios that carry their base;
- per-span self time;
- the compare verdicts and the claim rule.
"""

import math
import statistics

MIN_BEYOND = 10  # samples that must lie beyond a reported percentile
MIN_PAIRS = 10   # parent/change pairs a verdict or a claim needs

# A per-layer value that does not exist for the workload's core is reported
# as NA_VALUE in the result line (which takes numbers only) and as
# "n/a (reason)" everywhere a person reads it.
NA_VALUE = -1.0


class NA:
    """A metric that cannot be measured on this run, with the reason."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"n/a ({self.reason})"


def percentile(values, p):
    """Nearest-rank p-th percentile of `values`, or NA when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    rank = math.ceil(p * n / 100.0)
    if n == 0 or n - rank < MIN_BEYOND:
        need = math.ceil(MIN_BEYOND * 100.0 / (100.0 - p))
        return NA(f"{n} samples; p{p:g} needs at least {need}")
    return sorted(values)[max(rank, 1) - 1]


class Ratio:
    """num / base, kept with its base so it is never printed without it."""

    def __init__(self, num, base):
        self.num = num
        self.base = base

    @property
    def value(self):
        return self.num / self.base if self.base else 0.0

    def __str__(self):
        return f"{self.value:.4f} ({self.num}/{self.base})"


def hit_ratio(hits, misses):
    """Cache hits over lookups; 0 with base 0 when the cache was never
    consulted (bypassed or every query skipped it)."""
    return Ratio(hits, hits + misses)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


# ---------------------------------------------------------------------------
# Spans


def self_times(spans):
    """{name: [self time in ms]} where self time is the span's duration
    minus the part of its interval that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start_ms"]
        kids = sorted(children.get(s["id"], []), key=lambda c: c["start_ms"])
        for c in kids:  # union of the children's intervals, clipped to s
            lo = max(c["start_ms"], reach)
            hi = min(c["end_ms"], s["end_ms"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.setdefault(s["name"], []).append(
            s["end_ms"] - s["start_ms"] - covered)
    return out


# ---------------------------------------------------------------------------
# Comparing two result sets


def _better(a, b, better):
    return a < b if better == "lower" else a > b


def claim(parent, change, better):
    """The claim rule: over at least MIN_PAIRS pairs (parent[i] against
    change[i]; ties count for neither) the change wins at least 9 in 10,
    and the medians differ, in the better direction, by more than the
    parent's interquartile distance.  Returns (met, wins, pairs)."""
    if len(parent) != len(change):
        raise ValueError(f"{len(parent)} parent runs against "
                         f"{len(change)} change runs")
    pairs = len(parent)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    if pairs < MIN_PAIRS:
        return False, wins, pairs
    q1, pm, q3 = quartiles(parent)
    cm = median(change)
    met = (wins * 10 >= pairs * 9 and _better(cm, pm, better)
           and abs(cm - pm) > q3 - q1)
    return met, wins, pairs


def verdict(parent, change, better, bound):
    """better / worse / unchanged / unresolved for one (workload, metric).

    With a bound (end-to-end metrics): unresolved when either side's
    run-to-run spread is wider than the bound, unless every change run
    beats (or loses to) every parent run; worse when the change median is
    worse than the parent's by more than the bound; better when the claim
    rule holds.  Without a bound (per-layer metrics) the claim rule decides
    in either direction.  Fewer than MIN_PAIRS pairs are unresolved."""
    if len(parent) < MIN_PAIRS or len(change) < MIN_PAIRS:
        return "unresolved"
    if bound is not None and max(spread(parent), spread(change)) > bound:
        if all(_better(c, p, better) for c in change for p in parent):
            return "better"
        if all(_better(p, c, better) for c in change for p in parent):
            return "worse"
        return "unresolved"
    pm, cm = median(parent), median(change)
    if bound is not None and pm:
        worse_share = (cm - pm) / abs(pm)
        if better == "higher":
            worse_share = -worse_share
        if worse_share > bound:
            return "worse"
    if claim(parent, change, better)[0]:
        return "better"
    if bound is None:
        worse_way = "higher" if better == "lower" else "lower"
        if claim(parent, change, worse_way)[0]:
            return "worse"
    return "unchanged"
