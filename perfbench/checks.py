"""Output checks, run in the benchmark process after the operation's worker
has exited, so reference values computed once serve every pass.

`check(op, rc, text, api_result, lab)` returns a list of problems; an
empty list means the output is correct.  A check never raises for a bad
output: a parse error is itself a problem.  Reference values come from
routes independent of the one under test (the generating-function route
for moment tables, the transfer-matrix RT moment for mixed words).
"""

from __future__ import annotations

import functools
import json
import math
import re
from fractions import Fraction

import numpy as np

from apiops import cf_sweep_grid

_NONFINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")


def _argv_value(op, flag, default=None):
    argv = op.get("argv", [])
    return argv[argv.index(flag) + 1] if flag in argv else default


def _csv_rows(text: str, header_start: str) -> list[list[str]]:
    """Data rows of the first CSV block whose header starts with `header_start`."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(header_start):
            rows = []
            for row in lines[i + 1:]:
                if not row or row.startswith("#") or row.startswith("{"):
                    break
                rows.append(row.split(","))
            return rows
    raise ValueError(f"no CSV block with header {header_start!r}")


def _floats(rows, col) -> list[float]:
    return [float(r[col]) for r in rows]


def _trapezoid(ys, xs) -> float:
    return sum(0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


def _json_tail(text: str):
    """The JSON object that follows a CSV block (freeconv summary)."""
    start = text.index("\n{") + 1 if not text.startswith("{") else 0
    return json.loads(text[start:])


# -- per-kind checks ---------------------------------------------------------

def _moments_symbolic(op, text, lab):
    obj = json.loads(text)
    max_n = int(_argv_value(op, "--n"))
    problems = []
    for n in range(1, max_n + 1):
        if obj["moments"][str(n)] != lab.moments.reduced_moment_gf(n).to_json_obj():
            problems.append(f"m_{n} differs from the generating-function route")
    return problems


def _specialization(op, lab):
    if "--N" in op["argv"]:
        N, p, k = (int(_argv_value(op, f)) for f in ("--N", "--p", "--k"))
        q = lab.edlab.qn_finite(p, N)
        qt = lab.edlab.qtilde_weight(p, N, k) if k >= 1 else Fraction(1)
    else:
        q, qt = Fraction(_argv_value(op, "--q")), Fraction(_argv_value(op, "--qtilde"))
    return q, qt, Fraction(_argv_value(op, "--theta"))


def _moments_table(op, text, lab):
    q, qt, theta = _specialization(op, lab)
    rows = _csv_rows(text, "n,m_n")
    max_n = int(_argv_value(op, "--n"))
    if len(rows) != max_n:
        return [f"{len(rows)} rows, expected {max_n}"]
    problems = []
    for n, (col_n, value) in enumerate(rows, start=1):
        poly = lab.moments.reduced_moment_gf(n).substitute(q=q, qt=qt, theta=theta)
        want = format(float(poly.constant_value()), ".12g")
        if col_n != str(n) or value != want:
            problems.append(f"m_{n} = {value}, generating-function route gives {want}")
    return problems


def _double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2))


def _mixed(op, text, lab):
    obj = json.loads(text)
    word = _argv_value(op, "--word")
    nx, nd = word.count("x"), word.count("d")
    problems = []
    if obj["matchings"] != _double_factorial(nx - 1):
        problems.append(f"{obj['matchings']} matchings, expected {_double_factorial(nx - 1)}")
    value = lab.qcore.MultiPoly.from_json_obj(obj["value"])
    walls_off = lab.qhermite.rt_moment(nx // 2) * lab.qcore.MultiPoly.monomial(theta_pow=nd)
    if value.substitute(qt=1) != walls_off:
        problems.append("qt = 1 specialization differs from the RT moment times theta^#d")
    return problems


def _compare(op, text, lab):
    rows = _csv_rows(text, "n,analytic")
    n_max = int(_argv_value(op, "--n-max", 6))
    return [] if len(rows) == n_max else [f"{len(rows)} rows, expected {n_max}"]


def _phase_scan(op, text, lab):
    rows = _csv_rows(text, "theta,k")
    want = len(_argv_value(op, "--phase-thetas").split(","))
    return [] if len(rows) == want else [f"{len(rows)} rows, expected {want}"]


def _spectrum(op, text, lab):
    N, k = int(_argv_value(op, "--N")), int(_argv_value(op, "--k", 0))
    samples = int(_argv_value(op, "--samples", 1))
    theta = float(_argv_value(op, "--theta", 0.0))
    rows = _csv_rows(text, "sample_index,eigenvalue")
    dim = 1 << (N // 2)
    if len(rows) != dim * samples:
        return [f"{len(rows)} eigenvalues, expected {dim * samples}"]
    problems = []
    for s in range(samples):
        eigs = _floats(rows[s * dim:(s + 1) * dim], 1)
        mean = math.fsum(eigs) / dim
        # H_random is traceless, so the mean eigenvalue is theta * r
        if abs(mean - theta * 2.0 ** -k) > 1e-9:
            problems.append(f"sample {s}: mean eigenvalue {mean!r}, expected {theta * 2.0 ** -k}")
    return problems


def _freeconv(op, text, lab):
    rows = _csv_rows(text, "x,density")
    mass = _json_tail(text)["total_mass"]
    problems = []
    if abs(mass - 1.0) > 1e-4:
        problems.append(f"total mass {mass!r} is not within 1e-4 of 1")
    if any(d < 0 for d in _floats(rows, 1)):
        problems.append("negative density")
    return problems


def _zn(op, text, lab):
    (row,) = _csv_rows(text, "n,beta")
    n = int(_argv_value(op, "--n"))
    beta, q, qt = (float(_argv_value(op, f)) for f in ("--beta", "--q", "--qtilde"))
    quad = lab.qhermite.QGaussianQuadrature(q, panels=256)
    y = np.exp(-beta * quad.nodes) * lab.moments.coherent_state_factor(quad.nodes, q, qt)
    want = float(np.sum(quad.weights * y ** n))
    got = float(row[-1])
    if abs(got - want) > 1e-8 * max(1.0, abs(want)):
        return [f"z_n = {got}, 256-panel rule gives {want}"]
    return []


def _density(op, text, lab):
    rows = _csv_rows(text, "x,value")
    grid = int(_argv_value(op, "--grid"))
    if len(rows) != grid:
        return [f"{len(rows)} rows, expected {grid}"]
    xs, ys = _floats(rows, 0), _floats(rows, 1)
    mass = _trapezoid(ys, xs)
    problems = [] if abs(mass - 1.0) <= 1e-5 else [f"density integrates to {mass!r}"]
    return problems + (["negative density"] if min(ys) < 0 else [])


def _kernel(op, text, lab):
    rows = _csv_rows(text, "x,y,value")
    grid = int(_argv_value(op, "--grid"))
    if len(rows) != grid:
        return [f"{len(rows)} rows, expected {grid}"]
    q = float(_argv_value(op, "--q"))
    R = lab.qhermite.support_radius(q)
    ys, ks = _floats(rows, 1), _floats(rows, 2)
    # printed to 12 digits, the end points can land just outside [-R, R]
    weighted = [k * lab.qhermite.nu_q_density(max(-R, min(R, y)), q) for y, k in zip(ys, ks)]
    mass = _trapezoid(weighted, ys)
    return [] if abs(mass - 1.0) <= 1e-5 else [f"kernel integrates to {mass!r} against nu_q"]


@functools.lru_cache(maxsize=None)
def _deep_fractions(lab, points, q, qt):
    zs, x0s = cf_sweep_grid(points)
    return [lab.moments.b_continued_fraction(z, x0, q, qt, depth=90) for z in zs for x0 in x0s]


def _api_ok(op, result, lab):
    ok, detail, payload = result
    if not ok:
        return [detail or "identity failed"]
    if op["api"] == "cf_sweep":
        deep = _deep_fractions(lab, op["args"]["points"], op["args"]["q"], op["args"]["qt"])
        worst = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(payload, deep))
        if worst > 1e-12:
            return [f"depth-60 and depth-90 fractions differ by {worst:.3e}"]
    return []


TEXT_CHECKS = {
    "moments_symbolic": _moments_symbolic, "moments_table": _moments_table, "mixed": _mixed,
    "compare": _compare, "phase_scan": _phase_scan, "spectrum": _spectrum,
    "freeconv": _freeconv, "zn": _zn, "density": _density, "kernel": _kernel,
}


def check(op, rc, text, api_result, lab) -> list[str]:
    """Problems with one operation's output; empty when it is correct."""
    try:
        if op["kind"] == "api":
            return _api_ok(op, api_result, lab)
        if rc != 0:
            return [f"exit code {rc}"]
        if _NONFINITE.search(text):
            return ["non-finite number in the output"]
        return TEXT_CHECKS[op["check"]](op, text, lab)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparsable output: {type(exc).__name__}: {exc}"]
