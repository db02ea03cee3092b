"""Seeded operation lists for the three benchmark workloads.

An operation is one cold invocation: either a `dssyklab` CLI argv
("cli") or a call into the public API defined in `apiops` ("api").  The
seed only picks values inside fixed shapes, so every seed costs the same
amount of work; `cost` names an operation's shape without the seeded
values and must be identical across seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact", "ed", "numeric")

# Arc sizes of the x letters between consecutive d letters in the mixed
# words: 12 x letters, 4 d letters, always four nonempty arcs, so every
# seeded word enumerates the same 11!! matchings over the same arc count.
MIXED_ARCS = (2, 3, 3, 4)
MIXED_WORDS = 2
# Free convolution runs at the (r, theta) points the program's own test
# suite pins to a total mass within 1e-4 of 1, from low to high theta.
# Between them the mass misses 1e-4 at some thetas (most of all above 3.5,
# up to 1.4e-4 off), so a seeded theta would fail the operation on some
# seeds; the points are fixed and cost the same on every seed.
FREECONV_POINTS = (("0.25", "1.0"), ("0.1", "2.0"), ("0.25", "3.0"), ("0.75", "4.0"))


def _op(name, kind, check, cost, argv=None, api=None, args=None):
    op = {"name": name, "kind": kind, "check": check, "cost": cost}
    if kind == "cli":
        op["argv"] = list(argv) + ["--deterministic"]
    else:
        op["api"] = api
        op["args"] = dict(args or {})
    return op


def _mixed_word(rng: random.Random) -> str:
    arcs = list(MIXED_ARCS)
    rng.shuffle(arcs)
    word = "".join("x" * a + "d" for a in arcs)
    shift = rng.randrange(len(word))
    return word[shift:] + word[:shift]


def exact_ops(seed: int) -> list[dict]:
    rng = random.Random(f"exact:{seed}")
    ops = [
        _op("moments_symbolic", "cli", "moments_symbolic", "moments n14 symbolic",
            argv=["moments", "--n", "14", "--symbolic"]),
        _op("routes_gf", "api", "api_ok", "routes_gf 14", api="routes_gf", args={"max_n": 14}),
        _op("routes_words", "api", "api_ok", "routes_words 10", api="routes_words",
            args={"max_n": 10}),
        _op("qtilde_limits", "api", "api_ok", "qtilde_limits 14", api="qtilde_limits",
            args={"max_n": 14}),
        _op("rt_oracle", "api", "api_ok", "rt_oracle 6", api="rt_oracle", args={"k": 6}),
    ]
    for i in range(MIXED_WORDS):
        word = _mixed_word(rng)
        ops.append(_op(f"mixed_{i}", "cli", "mixed", "mixed x12 d4 arcs4",
                       argv=["mixed", "--word", word]))
    return ops


def ed_ops(seed: int) -> list[dict]:
    # Sample counts at N = 16 are cut from the 50 of the README examples so
    # that three passes fit in a run.  The diagonalization-bound N = 20 step
    # writes spectra rather than running compare: compare's |z| <= 5 guard
    # is a t-test, and with the 6 samples a pass affords it trips by chance
    # on about one seed in 30 (seed 5 gives z = 6.5).
    s = str(seed)
    return [
        _op("compare_n16", "cli", "compare", "compare N16 k2 samples20",
            argv=["compare", "--N", "16", "--k", "2", "--theta", "5", "--samples", "20",
                  "--seed", s]),
        _op("phase_scan_n16", "cli", "phase_scan", "ed N16 k2 samples10 thetas4",
            argv=["ed", "--N", "16", "--k", "2", "--samples", "10", "--phase-thetas",
                  "1,2,3,5", "--seed", s]),
        _op("spectrum_n20", "cli", "spectrum", "ed N20 k2 samples4",
            argv=["ed", "--N", "20", "--k", "2", "--theta", "5", "--samples", "4",
                  "--seed", s]),
        _op("spectrum_n22", "cli", "spectrum", "ed N22 samples1",
            argv=["ed", "--N", "22", "--theta", "5", "--samples", "1", "--seed", s]),
    ]


def numeric_ops(seed: int) -> list[dict]:
    # Nothing here is seeded: see FREECONV_POINTS.
    ops = []
    for j, (r, theta) in enumerate(FREECONV_POINTS):
        ops.append(_op(f"freeconv_{j}", "cli", "freeconv", f"freeconv r{r} theta{theta}",
                       argv=["freeconv", "--r", r, "--theta", theta]))
    for n in (1, 2, 3):
        ops.append(_op(f"zn_{n}", "cli", "zn", f"zn n{n}",
                       argv=["zn", "--n", str(n), "--beta", "1", "--q", "0.5",
                             "--qtilde", "0.25"]))
    ops += [
        _op("density", "cli", "density", "density grid2000",
            argv=["density", "--q", "0.5", "--grid", "2000"]),
        _op("kernel", "cli", "kernel", "kernel grid2000",
            argv=["density", "--q", "0.5", "--grid", "2000", "--kernel-r", "0.6",
                  "--kernel-x", "0.7"]),
        _op("cf_sweep", "api", "api_ok", "cf_sweep 2001x3", api="cf_sweep",
            args={"points": 2001, "q": 0.5, "qt": 0.25}),
        _op("moments_finite_n", "cli", "moments_table", "moments n14 derived",
            argv=["moments", "--n", "14", "--N", "26", "--p", "4", "--k", "2",
                  "--theta", "5"]),
        _op("moments_rational", "cli", "moments_table", "moments n14 rational",
            argv=["moments", "--n", "14", "--q", "1/2", "--qtilde", "1/4", "--theta", "3"]),
    ]
    return ops


def operations(workload: str, seed: int) -> list[dict]:
    """The operations of one pass of `workload`, in run order."""
    builders = {"exact": exact_ops, "ed": ed_ops, "numeric": numeric_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return builders[workload](seed)
