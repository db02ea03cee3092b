"""Out-of-tree tracing for the traced benchmark run.

The tracer wraps public functions of the `dssyklab` modules from outside:
each wrapper replaces the function wherever callers look it up, including
names bound by `from ... import` in other modules and method aliases on a
class (`__rmul__ = __mul__`).  Coarse functions record spans (name, start,
end, parent, tag) in memory; hot ring operations only bump counters, so the
traced run stays close to the untraced one.  `uninstall` restores every
original, so checks run after the timed region are not traced.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"


def _reduced_moment_tag(args, kwargs):
    return f"n{args[0] if args else kwargs['n']}"


def _build_tag(args, kwargs):
    params = args[0] if args else kwargs["params"]
    return f"N{params.N}"


def _eig_after(tracer, args, kwargs, result):
    dim = args[0].shape[-1]
    tracer.counters["edlab.eig_dim3_sum"] += dim ** 3


def _linearization_after(tracer, args, kwargs, result):
    degrees = args[0] if args else kwargs["degrees"]
    tracer.linearization_keys.add(tuple(sorted(degrees)))


def _mixed_after(tracer, args, kwargs, result):
    tracer.counters["mixed.matchings"] += result.partition_count


def _enumerate_after(tracer, args, kwargs, result):
    tracer.counters["chordcombi.matchings_enumerated"] += len(result)


def _called_from_lab() -> bool:
    """Whether the wrapper's caller is code of the dssyklab package."""
    return sys._getframe(2).f_globals.get("__name__", "").startswith("dssyklab")


# (module, attribute path, kind, metric name, tag, after-hook)
PLAN = [
    ("dssyklab.qcore", "MultiPoly.__mul__", COUNT, "qcore.mul", None, None),
    ("dssyklab.qcore", "MultiPoly.__add__", COUNT, "qcore.add", None, None),
    ("dssyklab.qcore", "MultiPoly.substitute", SPAN, "qcore.substitute", None, None),
    ("dssyklab.qcore", "q_multinomial", COUNT, "qcore.q_multinomial", None, None),
    ("dssyklab.qhermite", "linearization", COUNT, "qhermite.linearization", None,
     _linearization_after),
    ("dssyklab.qhermite", "monomial_to_hermite", SPAN, "qhermite.monomial_to_hermite", None, None),
    ("dssyklab.qhermite", "rt_moment", SPAN, "qhermite.rt_moment", None, None),
    ("dssyklab.qhermite", "QGaussianQuadrature.__init__", SPAN, "qhermite.quadrature", None, None),
    ("dssyklab.qhermite", "nu_q_density", SPAN, "qhermite.nu_q_density", None, None),
    ("dssyklab.qhermite", "conditional_kernel", SPAN, "qhermite.conditional_kernel", None, None),
    ("dssyklab.moments", "reduced_moment", SPAN, "moments.reduced_moment", _reduced_moment_tag,
     None),
    ("dssyklab.moments", "reduced_moment_gf", SPAN, "moments.reduced_moment_gf", None, None),
    ("dssyklab.moments", "qtilde_limit_check", SPAN, "moments.qtilde_limit_check", None, None),
    ("dssyklab.moments", "boolean_moment_c1", SPAN, "moments.boolean_moment_c1", None, None),
    ("dssyklab.moments", "z_n", SPAN, "moments.z_n", None, None),
    ("dssyklab.moments", "b_continued_fraction", SPAN, "moments.b_continued_fraction", None, None),
    ("dssyklab.mixed", "mixed_moment", SPAN, "mixed.mixed_moment", None, _mixed_after),
    ("dssyklab.mixed", "word_sum_moment", SPAN, "mixed.word_sum_moment", None, None),
    ("dssyklab.chordcombi", "pair_partition_polynomial", SPAN,
     "chordcombi.pair_partition_polynomial", None, None),
    ("dssyklab.chordcombi", "enumerate_pair_partitions", SPAN,
     "chordcombi.enumerate_pair_partitions", None, _enumerate_after),
    ("dssyklab.chordcombi", "transfer_vacuum_moment", SPAN, "chordcombi.transfer_vacuum_moment",
     None, None),
    ("dssyklab.edlab", "build_h_syk", SPAN, "edlab.build_h_syk", _build_tag, None),
    ("dssyklab.edlab", "sample_spectra", SPAN, "edlab.sample_spectra", None, None),
    ("dssyklab.edlab", "paired_reduced_moments", SPAN, "edlab.paired_reduced_moments", None,
     None),
    ("dssyklab.edlab", "phase_scan", SPAN, "edlab.phase_scan", None, None),
    ("numpy.linalg", "eigvalsh", SPAN, "edlab.eigvalsh", None, _eig_after),
    ("dssyklab.freeconv", "semicircle_plus_atomic", SPAN, "freeconv.semicircle_plus_atomic",
     None, None),
    ("dssyklab.freeconv", "outlier_location", SPAN, "freeconv.outlier_location", None, None),
    ("dssyklab.cli", "main", SPAN, "cli.main", None, None),
] + [("dssyklab.cli", f"run_{sub}", SPAN, f"cli.{sub}", None, None)
     for sub in ("moments", "mixed", "ed", "compare", "density", "freeconv", "zn")]


class Tracer:
    """Spans and counters of one operation, recorded in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None, tag]
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.linearization_keys: set[tuple] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, name, fn, tag=None, after=None):
        spans, stack = self.spans, self._stack
        # a numpy function is traced only when dssyklab calls it directly
        foreign = not (getattr(fn, "__module__", None) or "").startswith("dssyklab")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if foreign and not _called_from_lab():
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   tag(args, kwargs) if tag else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def count_wrapper(self, name, fn, tag=None, after=None):
        counters, depth = self.counters, self._depth
        calls, seconds = name + "_calls", name + "_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[calls] += 1
            if depth[name]:  # nested call: already inside the outermost timing
                result = fn(*args, **kwargs)
            else:
                depth[name] = 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    counters[seconds] += perf_counter() - start
                    depth[name] = 0
            if after:
                after(self, args, kwargs, result)
            return result
        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, owner, original, wrapper):
        for attr, value in list(vars(owner).items()):
            if value is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def install(self, plan=PLAN):
        """Wrap every function in `plan` wherever a loaded module binds it."""
        scan = [m for name, m in sys.modules.items()
                if m is not None and (name == "dssyklab" or name.startswith("dssyklab."))]
        for module_name, path, kind, name, tag, after in plan:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            make = self.span_wrapper if kind == SPAN else self.count_wrapper
            wrapper = make(name, original, tag, after)
            for target in ([owner] if owner_name else [module] + scan):
                self._replace(target, original, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.counters["qhermite.linearization_unique"] = len(self.linearization_keys)


# -- span arithmetic ----------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def outermost(spans) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion counted once)."""
    flags = []
    for name, _, _, parent, _ in spans:
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        flags.append(parent is None)
    return flags


def op_metrics(spans, counters) -> dict[str, float]:
    """Per-layer figures of one operation: counters, plus `<name>_s` (outermost
    inclusive time), `<name>_s.<tag>`, `<name>_calls` from spans, and
    `cli.self_s`, the self time of the cli spans."""
    out = defaultdict(float, counters)
    for (name, start, end, _, tag), top, own in zip(spans, outermost(spans), self_times(spans)):
        out[f"{name}_calls"] += 1
        if top:
            out[f"{name}_s"] += end - start
            if tag:
                out[f"{name}_s.{tag}"] += end - start
        if name.startswith("cli."):
            out["cli.self_s"] += own
    return dict(out)
