"""Benchmark operations that go through the public Python API.

Each takes the `dssyklab` package and the op's arguments and returns
`(ok, detail, payload)`: `ok` says whether the identities held, `detail`
names the first mismatch, and `payload` holds the computed values, which
the worker digests after the timed region.  Functions are looked up on the
modules at call time, so the traced run sees every call.
"""

from __future__ import annotations

import math


def routes_gf(lab, max_n):
    """reduced_moment(n) == reduced_moment_gf(n) for n = 1..max_n."""
    values = []
    for n in range(1, max_n + 1):
        direct = lab.moments.reduced_moment(n)
        if direct != lab.moments.reduced_moment_gf(n):
            return False, f"reduced_moment({n}) != reduced_moment_gf({n})", values
        values.append(direct)
    return True, "", values


def routes_words(lab, max_n):
    """word_sum_moment(n) minus the pure-x (RT) moment == reduced_moment(n)."""
    values = []
    for n in range(1, max_n + 1):
        words = lab.mixed.word_sum_moment(n)
        if n % 2 == 0:
            words = words - lab.qhermite.rt_moment(n // 2)
        if words != lab.moments.reduced_moment(n):
            return False, f"word_sum_moment({n}) - RT != reduced_moment({n})", values
        values.append(words)
    return True, "", values


def qtilde_limits(lab, max_n):
    """qtilde_limit_check at qt = 0 and qt = 1 for n = 1..max_n."""
    values = []
    for n in range(1, max_n + 1):
        for which in (0, 1):
            try:
                values.append(lab.moments.qtilde_limit_check(n, which))
            except ValueError as exc:
                return False, str(exc), values
    return True, "", values


def rt_oracle(lab, k):
    """rt_moment(k) == pair_partition_polynomial(2k) (chord enumeration)."""
    rt = lab.qhermite.rt_moment(k)
    if rt != lab.chordcombi.pair_partition_polynomial(2 * k):
        return False, f"rt_moment({k}) != pair_partition_polynomial({2 * k})", [rt]
    return True, "", [rt]


def cf_sweep_grid(points):
    return [-0.25 + 0.5 * i / (points - 1) for i in range(points)], (-1.0, 0.0, 1.0)


def cf_sweep(lab, points, q, qt):
    """b_continued_fraction over a z grid in [-0.25, 0.25] at x0 = -1, 0, 1."""
    zs, x0s = cf_sweep_grid(points)
    values = [lab.moments.b_continued_fraction(z, x0, q, qt) for z in zs for x0 in x0s]
    bad = [v for v in values if not math.isfinite(v)]
    return not bad, f"{len(bad)} non-finite values" if bad else "", values


OPS = {f.__name__: f for f in (routes_gf, routes_words, qtilde_limits, rt_oracle, cf_sweep)}
