"""Pure helpers of the benchmark: the tail-percentile rule, the spread of
repeated runs, and the behaviour-fingerprint comparator.  They import
nothing from the program, so the benchmark's own tests can run them alone.
"""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99, 99.999)
TAIL_MIN_BEYOND = 10


def tail_level(n, min_beyond=TAIL_MIN_BEYOND, ladder=TAIL_LADDER):
    """The highest percentile of `ladder` that leaves at least `min_beyond`
    of `n` samples above its nearest-rank position; 100 if none does."""
    best = 100.0
    for p in ladder:
        if n - _rank(p, n) >= min_beyond:
            best = p
    return best


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))  # no float overshoot


def tail_percentile(samples, level=None):
    """(percentile, value, samples beyond it).  The percentile is
    `tail_level` of the sample count unless `level` fixes it, as the
    harness does with the op count of one pass, so that the number of
    passes a run completes cannot move the percentile."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    p = tail_level(n) if level is None else level
    rank = _rank(p, n)
    return p, xs[rank - 1], n - rank


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# A fingerprint is {"verdicts": {group: "PRUT..."}, "totals": {...}}.
# P proved, R refuted, U unknown, T cut by the per-goal time limit,
# D an algebra op that completed.

def compare_fingerprints(reference, current):
    """Problems in `current` against `reference`.  A Proved<->Refuted flip,
    a lost verdict (decided to Unknown) and any change in a total are
    problems; Unknown to decided is allowed, and a goal cut by the time
    limit on either side is not compared, since the limit is wall time."""
    problems = []
    ref_v = reference.get("verdicts", {})
    cur_v = current.get("verdicts", {})
    for group in sorted(set(ref_v) | set(cur_v)):
        a, b = ref_v.get(group), cur_v.get(group)
        if a is None or b is None or len(a) != len(b):
            problems.append(f"{group}: op list differs from the reference")
            continue
        for i, (x, y) in enumerate(zip(a, b)):
            if x == y or "T" in (x, y) or (x == "U" and y in "PR"):
                continue
            if {x, y} == {"P", "R"}:
                problems.append(f"{group}[{i}]: {x}->{y} flip")
            else:
                problems.append(f"{group}[{i}]: {x}->{y}")
    ref_t, cur_t = reference.get("totals", {}), current.get("totals", {})
    for key in sorted(set(ref_t) | set(cur_t)):
        if ref_t.get(key) != cur_t.get(key):
            problems.append(f"total {key}: {ref_t.get(key)} -> "
                            f"{cur_t.get(key)}")
    return problems


def verdict_counts(fingerprint):
    """{group: {verdict letter: count}} from a fingerprint."""
    return {group: {v: s.count(v) for v in sorted(set(s))}
            for group, s in fingerprint.get("verdicts", {}).items()}
