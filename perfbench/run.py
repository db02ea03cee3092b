"""Cold-start CLI benchmark for dssyklab.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact|ed|numeric --seed N --seconds S --trace 0|1

Each operation of a workload runs in a fresh interpreter (`worker.py`), one
at a time, with BLAS threads capped at the core count, so every
`lru_cache` starts empty as it does for a CLI user.  Passes over the
workload's operation list repeat until the next pass would overrun
`--seconds` (at least one pass).  Every output is checked; a failed check,
a nonzero exit, an exception or an output digest that differs from an
earlier repetition of the same seed on the same sources (kept in
perfbench/out/digests.json) fails the operation.

`--trace 0` reports the end-to-end metrics: wall_s is the sum over the
operations of each one's median time over passes, setup_s the median
import time over all workers, peak_rss_mb the median over passes of the
largest worker peak;
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes, plus the tracing overhead.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
A full record (machine, per-operation results, spans) goes to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from checks import check
from workloads import WORKLOADS, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # a run, passes and set-up included, ends within this
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]

PER_LAYER = (
    [("qcore.mul_calls", "count"), ("qcore.mul_s", "s"), ("qcore.add_calls", "count"),
     ("qcore.add_s", "s"), ("qcore.substitute_s", "s"), ("qcore.q_multinomial_calls", "count"),
     ("qcore.q_multinomial_s", "s"),
     ("qhermite.linearization_calls", "count"), ("qhermite.linearization_unique", "count"),
     ("qhermite.linearization_hit_ratio", "ratio"), ("qhermite.linearization_s", "s"),
     ("qhermite.monomial_to_hermite_s", "s"), ("qhermite.rt_moment_s", "s"),
     ("qhermite.quadrature_builds", "count"), ("qhermite.quadrature_s", "s"),
     ("qhermite.nu_q_density_s", "s"), ("qhermite.conditional_kernel_s", "s")]
    + [(f"moments.reduced_moment_s.n{n}", "s") for n in range(10, 15)]
    + [("moments.reduced_moment_gf_s", "s"), ("moments.qtilde_limit_check_s", "s"),
       ("moments.boolean_moment_c1_s", "s"), ("moments.z_n_s", "s"),
       ("moments.b_continued_fraction_s", "s"),
       ("mixed.mixed_moment_calls", "count"), ("mixed.mixed_moment_s", "s"),
       ("mixed.matchings", "count"), ("mixed.word_sum_moment_s", "s"),
       ("chordcombi.pair_partition_polynomial_s", "s"),
       ("chordcombi.matchings_enumerated", "count"),
       ("chordcombi.transfer_vacuum_moment_s", "s"),
       ("edlab.build_h_syk_calls", "count"), ("edlab.build_h_syk_s", "s")]
    + [(f"edlab.build_h_syk_s.N{N}", "s") for N in (16, 20, 22)]
    + [("edlab.eigvalsh_calls", "count"), ("edlab.eigvalsh_s", "s"),
       ("edlab.eig_dim3_sum", "count"), ("edlab.sample_spectra_s", "s"),
       ("edlab.paired_reduced_moments_s", "s"), ("edlab.phase_scan_s", "s"),
       ("freeconv.semicircle_plus_atomic_calls", "count"),
       ("freeconv.semicircle_plus_atomic_s", "s"), ("freeconv.outlier_location_s", "s")]
    + [(f"cli.{sub}_s", "s") for sub in ("moments", "mixed", "ed", "compare", "density",
                                         "freeconv", "zn")]
    + [("cli.self_s", "s"), ("cli.bytes_out", "bytes"), ("trace.overhead_s", "s")]
)


# -- machine ------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def worker_env() -> dict:
    """Environment for workers: BLAS threads capped at the core count, and
    bytecode caching on, as for an installed package, so that setup_s is
    import work rather than compilation."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in BLAS_THREAD_VARS:
        current = env.get(var, "")
        env[var] = str(min(int(current), nproc()) if current.isdigit() else nproc())
    return env


def machine_info(env) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]), "workers_in_parallel": 1}


# -- running operations -----------------------------------------------------

def run_op(op, trace, env, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), "1" if trace else "0",
           json.dumps(op)]
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"problems": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    if proc.returncode != 0:
        record.setdefault("problems", []).append(f"worker exit code {proc.returncode}")
    return record


def load_lab():
    """The dssyklab package under test, imported here for the output checks."""
    sys.path.insert(0, str(ROOT / "src"))
    import dssyklab.cli  # noqa: F401  (imports every module)
    return sys.modules["dssyklab"]


def run_pass(ops, trace, env, deadline, digests, lab) -> list[dict]:
    records = []
    for op in ops:
        rec = run_op(op, trace, env, deadline)
        rec["op"], rec["traced"] = op["name"], trace
        output, api_result = rec.pop("output", ""), rec.pop("api_result", None)
        if not rec["problems"]:
            rec["problems"] = check(op, rec["rc"], output, api_result, lab)
        digest, key = rec.get("digest"), json.dumps([op["name"], op.get("argv"), op.get("args")])
        if digest and digests.setdefault(key, digest) != digest:
            rec["problems"].append("output digest differs from an earlier repetition of this seed")
        records.append(rec)
    return records


def source_hash() -> str:
    """Identifies the program's sources, so digests compare one commit only."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_digests() -> dict:
    try:
        return json.loads((OUT / "digests.json").read_text())
    except (OSError, ValueError):
        return {}


# -- aggregation ----------------------------------------------------------------

def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pass_layers(records) -> dict[str, float]:
    """Per-layer figures of one traced pass: sums over its operations."""
    sums = defaultdict(float)
    for rec in records:
        for key, value in rec.get("layers", {}).items():
            sums[key] += value
        sums["cli.bytes_out"] += rec.get("bytes_out", 0)
    out = {name: sums.get(name, 0.0) for name, _ in PER_LAYER}
    calls = sums.get("qhermite.linearization_calls", 0.0)
    out["qhermite.linearization_hit_ratio"] = (
        1.0 - sums.get("qhermite.linearization_unique", 0.0) / calls if calls else 0.0)
    out["qhermite.quadrature_builds"] = sums.get("qhermite.quadrature_calls", 0.0)
    return out


def op_median_wall(passes) -> float:
    """Sum over the operations of each one's median wall time across passes.

    Host noise on a shared machine comes in bursts that slow whole passes;
    per-operation medians shed a slow stretch that a median of pass sums
    would keep whenever it touches most passes."""
    return sum(statistics.median(p[i].get("wall_s", 0.0) for p in passes)
               for i in range(len(passes[0])))


def summarize(passes, trace):
    """End-to-end samples and values, per-layer medians and tracing overhead."""
    plain = [p for p in passes if not p[0]["traced"]]
    traced = [p for p in passes if p[0]["traced"]]
    samples = {
        "wall_s": [sum(r.get("wall_s", 0.0) for r in p) for p in plain],
        "setup_s": [r["setup_s"] for p in passes for r in p if "setup_s" in r],
        "peak_rss_mb": [max((r.get("peak_rss_mb", 0.0) for r in p), default=0.0)
                        for p in plain],
    }
    values = {"wall_s": op_median_wall(plain),
              "setup_s": statistics.median(samples["setup_s"] or [0.0]),
              "peak_rss_mb": statistics.median(samples["peak_rss_mb"])}
    layers = {}
    if trace:
        per_pass = [pass_layers(p) for p in traced]
        layers = {name: statistics.median(pp[name] for pp in per_pass) for name, _ in PER_LAYER}
        layers["trace.overhead_s"] = op_median_wall(traced) - values["wall_s"]
    return samples, values, layers


def write_outputs(stem, info, passes, samples, values, layers):
    OUT.mkdir(exist_ok=True)
    if info["trace"]:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for index, records in enumerate(passes):
                for rec in records:
                    op_id = f"{index}:{rec['op']}"
                    for name, start, end, parent, tag in rec.pop("spans", []):
                        fh.write(json.dumps({"op": op_id, "name": name, "start": start,
                                             "end": end, "parent": parent, "tag": tag}) + "\n")
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**info, "values": values, "samples": samples, "layers": layers,
                   "passes": passes}, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dssyklab" / "cli.py").is_file():
        print(f"no dssyklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t0 = perf_counter()
    deadline = t0 + RUN_LIMIT_S
    env = worker_env()
    lab = load_lab()
    ops = operations(args.workload, args.seed)
    trace = bool(args.trace)
    all_digests = load_digests()
    digest_key = f"{source_hash()}:{args.workload}:{args.seed}"
    digests = all_digests.setdefault(digest_key, {})
    passes = []
    while True:
        start = perf_counter()
        passes.append(run_pass(ops, trace and len(passes) % 2 == 1, env, deadline, digests,
                               lab))
        took = perf_counter() - start
        need_more = trace and len(passes) < 2
        if not need_more and perf_counter() + took - t0 > args.seconds:
            break
        if perf_counter() + took > deadline:
            break

    attempted = sum(len(p) for p in passes)
    failures = [(i, r["op"], r["problems"]) for i, p in enumerate(passes) for r in p
                if r["problems"]]
    samples, values, layers = summarize(passes, trace)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_info(env), "operations": ops}
    write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", info, passes,
                  samples, values, layers)
    (OUT / "digests.json").write_text(json.dumps(all_digests, indent=1, sort_keys=True))

    print(f"machine: {json.dumps(info['machine'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} cold operations, {perf_counter() - t0:.1f} s")
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles(samples[name])
        what = "operations" if name == "setup_s" else "passes"
        note = " [sum of per-operation medians]" if name == "wall_s" else ""
        print(f"  {name}: {values[name]:.6g} {unit}{note} (samples: q1 {q1:.6g}, median "
              f"{med:.6g}, q3 {q3:.6g}; n={len(samples[name])} {what})")
    print(f"  error_rate: {len(failures) / attempted:.6g} ratio ({len(failures)} failed of "
          f"{attempted} attempted)")
    for index, op_name, problems in failures[:10]:
        print(f"  FAILED pass {index} {op_name}: {'; '.join(problems)[:500]}")
    if trace:
        print(f"  tracing overhead: {layers['trace.overhead_s']:.6g} s per pass")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
