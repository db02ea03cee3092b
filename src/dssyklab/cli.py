"""Batch command-line front end.

Each subcommand wires one computation to CSV/JSON output for plotting and
comparison.  All file outputs carry '#'-prefixed metadata lines with the
full parameter set; pass --deterministic to suppress the timestamp line.

Reproducibility: given the same flags and seed, the exact subcommands
(`moments`, `mixed`, `qtilde`) write the same bytes everywhere.  The float
subcommands write the same bytes on one machine, BLAS build and BLAS thread
count; across thread counts their exit codes and non-numeric lines agree,
and a number may move in its last printed digit.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence,
4 regression-guard trip.  An exit other than 0 or 4 writes nothing to
stdout: a side file (`--summary`, `--histogram`) is written before the
main output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from datetime import datetime, timezone
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, edlab, freeconv, mixed, moments, qhermite
from .qhermite import ConvergenceError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_GUARD = 4

ZSCORE_GUARD = 5.0
MAX_GRID = 10 ** 6  # cap on --grid and --bins: every row or bin is held in memory
# Cap on the eigenvalues that one `ed` or `compare` run computes: --samples
# times the dimension 2^(N/2), times the number of --phase-thetas entries
# for a scan.  `ed` holds them all until it writes (a scan holds every
# pooled spectrum), as floats and then as CSV rows: at the cap, 16 384
# samples at N = 12, it peaked at 177 MiB against 38 MiB for 16 samples.
# The cap is 256 samples at N = 24 and 4096 at N = 16, where the README's
# runs take 50 and its scan 50 x 4 (51 200 levels).
MAX_LEVELS = 2 ** 20
# Cap on the --phase-thetas entries: each one diagonalizes block 0 once per
# sample and pools a copy of every spectrum.  1000 points resolve a scanned
# theta range to 0.1 %, where the README's scan and the benchmark's use 4.
MAX_PHASE_THETAS = 1000
# the message of the ValueError that str(int) raises past sys.get_int_max_str_digits()
INT_DIGITS_ERROR = "for integer string conversion"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _metadata_lines(args, extra: dict | None = None) -> list[str]:
    pairs = {"artifact": "dssyklab", "version": __version__, "subcommand": args.subcommand}
    for key, val in sorted(vars(args).items()):
        if key in ("subcommand", "func", "out", "deterministic") or val is None:
            continue
        pairs[key] = val
    if extra:
        pairs.update(extra)
    lines = [f"# {k}={v}" for k, v in pairs.items()]
    if not args.deterministic:
        lines.append(f"# timestamp={datetime.now(timezone.utc).isoformat()}")
    return lines


def _write(args, pieces, path: str | None = None):
    """Write the text pieces in order to path (default --out; none or '-' is
    stdout, whose output always ends in a newline)."""
    path = path if path is not None else args.out
    if path in (None, "-"):
        text = ""
        for text in pieces:
            sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.writelines(pieces)
        print(f"wrote {path}", file=sys.stderr)


def _csv_pieces(args, header: str, blocks, extra: dict | None = None):
    """The '#' metadata lines and the header, then each block of rows, as
    text made only when it is written."""
    yield "\n".join(_metadata_lines(args, extra) + [header]) + "\n"
    for rows in blocks:
        if rows:
            yield "\n".join(rows) + "\n"


def _write_csv(args, header: str, rows: list[str], extra: dict | None = None,
               path: str | None = None):
    """The rows under the '#' metadata lines and the header."""
    _write(args, _csv_pieces(args, header, [rows], extra), path)


# how json.dumps writes a scalar of each exact type; ints and strings are
# formatted directly, as a call to json.dumps costs more than the formatting
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                float: json.dumps, bool: json.dumps, type(None): json.dumps}


def _record_lines(items, indent: str) -> list[str] | None:
    """The items of a JSON list at `indent`, each written from one template,
    when they are flat records: dicts with one set of str keys whose values
    are scalars of the types in `_SCALAR_TEXT`.  None for any other list."""
    first = items[0]
    if not isinstance(first, dict) or not first or any(type(key) is not str for key in first):
        return None
    keys = sorted(first)
    fields = ",\n".join(f"{indent}  {encode_basestring_ascii(key).replace('%', '%%')}: %s"
                         for key in keys)
    template = f"{indent}{{\n{fields}\n{indent}}}"
    lines = []
    for record in items:
        if not isinstance(record, dict) or len(record) != len(keys):
            return None
        try:
            values = [_SCALAR_TEXT[type(value)](value) for value in map(record.__getitem__, keys)]
        except KeyError:  # a key of another set, or a value of another type
            return None
        lines.append(template % tuple(values))
    return lines


def _json_text(obj, indent: str = "") -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` with every line after the
    first indented by `indent` as well.

    json.dumps runs its pure-Python encoder whenever it indents, so dicts
    with str keys and nonempty lists are written here, a list of flat
    records from one template (`_record_lines`), and scalars as json.dumps
    writes them.  Anything else (an empty container, a dict with other
    keys) is left to json.dumps: with ASCII output a JSON string holds no
    raw newline, so its every newline is indentation.
    """
    inner = indent + "  "
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        lines = [f"{inner}{encode_basestring_ascii(key)}: {_json_text(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{\n" + ",\n".join(lines) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)) and obj:
        lines = _record_lines(obj, inner) or [inner + _json_text(value, inner) for value in obj]
        return "[\n" + ",\n".join(lines) + f"\n{indent}]"
    if isinstance(obj, (dict, list, tuple)):
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)
    return _SCALAR_TEXT.get(type(obj), json.dumps)(obj)


def _write_json(args, payload: dict, extra: dict | None = None, path: str | None = None):
    """The payload with its metadata lines under "metadata", keys sorted,
    as `json.dumps(payload, indent=2, sort_keys=True)` writes it."""
    payload["metadata"] = [line[2:] for line in _metadata_lines(args, extra)]
    _write(args, [_json_text(payload)], path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _fraction(text: str, flag: str) -> Fraction:
    """The rational value of `flag`; malformed, zero-denominator or overlong
    input is a ValueError."""
    limit = sys.get_int_max_str_digits()  # 0 when unlimited
    # a digit run past the int-parsing limit fails inside Fraction with a
    # message about the interpreter; underscores separate digits, as in int()
    if limit and any(len(run.replace("_", "")) > limit for run in re.findall(r"[\d_]+", text)):
        raise ValueError(f"{flag} is too large to parse: a number in it passes {limit} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {flag} {text!r}") from None


def _derive_q_qt(args) -> tuple[Fraction | None, Fraction | None, dict]:
    """Resolve the (q, qtilde) pair from direct flags or from (N, p, k)."""
    direct = args.q is not None or args.qtilde is not None
    derived = args.N is not None or args.p is not None or args.k is not None
    if direct and derived:
        raise ValueError("give either --q/--qtilde or --N/--p/--k, not both")
    if derived:
        if args.N is None or args.p is None or args.k is None:
            raise ValueError("finite-size mode needs all of --N, --p, --k")
        q, qt = edlab.finite_size_weights(args.N, args.p, args.k)
        return q, qt, {"derived_q": str(q), "derived_qtilde": str(qt)}
    q = _fraction(args.q, "--q") if args.q is not None else None
    qt = _fraction(args.qtilde, "--qtilde") if args.qtilde is not None else None
    return q, qt, {}


def _largest_rational_flag(args) -> str:
    """The --q/--qtilde/--theta input with the longest numerator or denominator."""
    given = {flag: _fraction(text, flag) for flag, text in
             (("--q", args.q), ("--qtilde", args.qtilde), ("--theta", args.theta))
             if text is not None}
    if not given:
        return "--N/--p/--k"
    return max(given, key=lambda flag: max(abs(given[flag].numerator), given[flag].denominator))


def run_moments(args) -> int:
    if args.n < 1 or args.n > moments.MAX_MOMENT_ORDER:
        raise ValueError(f"--n must lie in 1..{moments.MAX_MOMENT_ORDER}")
    q, qt, note = _derive_q_qt(args)
    if args.symbolic and (q is not None or qt is not None or args.theta is not None):
        raise ValueError("--symbolic cannot be combined with numeric parameters")
    theta = _fraction(args.theta, "--theta") if args.theta is not None else None
    try:
        table = moments.MomentTable.specialized(args.n, q=q, qt=qt, theta=theta)
        fully_numeric = all(v.is_constant() for v in table.values)
        payload = None if fully_numeric and not args.symbolic else table.to_json_obj()
    except ValueError as exc:
        if INT_DIGITS_ERROR not in str(exc):
            raise
        # an exact value has more digits than an int may print
        raise ValueError(
            f"{_largest_rational_flag(args)} is too large for an exact table at --n {args.n}: "
            f"a value passes {sys.get_int_max_str_digits()} digits") from None
    if payload is None:
        _write_csv(args, "n,m_n", [f"{n},{_fmt(v)}" for n, v in table.numeric_rows()], note)
    else:
        _write_json(args, payload, note)
    return EXIT_OK


def run_mixed(args) -> int:
    try:
        word = mixed.Word.parse(args.word)
        result = mixed.mixed_moment(word)
    except ValueError as exc:  # an empty word, a bad letter or too many x letters
        raise ValueError(f"--word: {exc}") from None
    _write_json(args, {"word": str(word), "value": result.value.to_json_obj(),
                       "matchings": result.partition_count})
    return EXIT_OK


def _phase_thetas(args) -> list[float]:
    """The --phase-thetas list.  A scan writes no spectra, so --histogram
    is refused with it."""
    if args.histogram:
        raise ValueError("--histogram cannot be combined with --phase-thetas: "
                         "a phase scan writes no spectra")
    entries = args.phase_thetas.split(",")
    if len(entries) > MAX_PHASE_THETAS:
        raise ValueError(f"--phase-thetas has {len(entries)} entries; "
                         f"at most {MAX_PHASE_THETAS} are allowed")
    return [_phase_theta(entry) for entry in entries]


def _phase_theta(entry: str) -> float:
    """One entry of the --phase-thetas list as a finite float."""
    try:
        theta = float(entry)
    except ValueError:
        raise ValueError(f"--phase-thetas entry {entry!r} is not a number") from None
    if not math.isfinite(theta):
        raise ValueError(f"--phase-thetas entry {entry!r} is not a finite number")
    if abs(theta) > edlab.MAX_ABS_THETA:
        raise ValueError(f"--phase-thetas entry {entry!r} is larger than "
                         f"{edlab.MAX_ABS_THETA:g} in absolute value")
    return theta


def _model_params(args, entries: int) -> edlab.ModelParams:
    """The ED run parameters of `ed` and `compare`, for a scan over
    `entries` thetas."""
    if not math.isfinite(args.theta):
        raise ValueError("--theta must be finite")
    if abs(args.theta) > edlab.MAX_ABS_THETA:
        raise ValueError(f"--theta must be at most {edlab.MAX_ABS_THETA:g} in absolute value")
    params = edlab.ModelParams(N=args.N, p=args.p, theta=args.theta, k=args.k,
                               seed=args.seed, samples=args.samples)
    levels = params.samples * params.dim * entries
    if levels > MAX_LEVELS:
        raise ValueError(f"--samples {params.samples} asks for {levels} levels at N={params.N}"
                         + (f" over {entries} --phase-thetas entries" if entries > 1 else "")
                         + f"; at most {MAX_LEVELS} are allowed")
    return params


def run_ed(args) -> int:
    if not 1 <= args.bins <= MAX_GRID:
        raise ValueError(f"--bins must be positive and at most {MAX_GRID}")
    thetas = _phase_thetas(args) if args.phase_thetas else None
    params = _model_params(args, len(thetas) if thetas else 1)
    if thetas:
        rows = edlab.phase_scan(params, thetas)
        body = [f"{_fmt(r['theta'])},{r['k']},{r['samples']},{_fmt(r['max_gap'])},"
                f"{_fmt(r['median_gap'])},{_fmt(r['gap_ratio'])},{int(r['bimodal'])},{_fmt(r['gap'])}"
                for r in rows]
        _write_csv(args, "theta,k,samples,max_gap,median_gap,gap_ratio,bimodal,gap", body)
        return EXIT_OK
    spectra = edlab.sample_spectra(params)
    if args.histogram:
        pooled = np.concatenate(spectra)
        try:
            hist = edlab.histogram(pooled, bins=args.bins)
        except ValueError:  # numpy's edges repeat: the width is too narrow for the bins
            raise ValueError(f"--bins {args.bins} is too many for the spectrum's width "
                             f"{_fmt(pooled.max() - pooled.min())}: the bin edges "
                             f"would not be distinct floats") from None
        # the side file first, so a path that cannot be written leaves stdout empty
        hrows = [f"{_fmt(a)},{c},{_fmt(d)}" for a, c, d in hist]
        _write_csv(args, "left_edge,count,density", hrows, path=args.histogram)
    # one sample's rows at a time: the text of all of them outweighs the spectra
    blocks = ([f"{s},{_fmt(e)}" for e in levels] for s, levels in enumerate(spectra))
    _write(args, _csv_pieces(args, "sample_index,eigenvalue", blocks))
    return EXIT_OK


def run_compare(args) -> int:
    if not 1 <= args.n_max <= moments.MAX_MOMENT_ORDER:
        raise ValueError(f"--n-max must lie in 1..{moments.MAX_MOMENT_ORDER}")
    params = _model_params(args, 1)
    q, qt = edlab.finite_size_weights(args.N, args.p, args.k)
    note = {"q_finite": str(q), "qtilde": str(qt)}
    means, errs = edlab.paired_reduced_moments(params, args.n_max)
    table = moments.MomentTable.specialized(args.n_max, q=q, qt=qt)
    rows = []
    guard_trip = False
    for n in range(1, args.n_max + 1):
        try:
            analytic = float(table.moment(n).evaluate(theta=args.theta))
        except OverflowError:
            analytic = math.inf
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are reported below
            dev = means[n - 1] - analytic
            scale = max(errs[n - 1], 1e-12 * max(1.0, abs(analytic)))
            z = dev / scale
        if not all(map(math.isfinite, (analytic, means[n - 1], errs[n - 1], z))):
            raise ConvergenceError(f"order {n} overflows a float at theta={args.theta}")
        if n <= 6 and abs(z) > ZSCORE_GUARD:
            guard_trip = True
        rows.append(f"{n},{_fmt(analytic)},{_fmt(means[n - 1])},{_fmt(errs[n - 1])},{_fmt(z)}")
    _write_csv(args, "n,analytic,empirical,stderr,zscore", rows, note)
    if guard_trip:
        print("regression guard: |zscore| > 5 for some n <= 6", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_OK


def _check_grid(args):
    if not 2 <= args.grid <= MAX_GRID:
        raise ValueError(f"--grid must lie in 2..{MAX_GRID}")


def _check_q(args):
    if not 0.0 <= args.q <= qhermite.Q_NUMERIC_MAX:
        raise ValueError(f"--q must lie in [0, {qhermite.Q_NUMERIC_MAX}]")


def run_density(args) -> int:
    _check_q(args)
    _check_grid(args)
    if args.kernel_r is None and args.kernel_x is not None:
        raise ValueError("--kernel-x needs --kernel-r")
    if args.kernel_r is not None:
        x0 = args.kernel_x = 0.0 if args.kernel_x is None else args.kernel_x  # for the metadata
        R = qhermite.support_radius(args.q)
        ys = np.linspace(-R, R, args.grid)
        values = qhermite.conditional_kernel(x0, ys, args.kernel_r, args.q)
        rows = [f"{_fmt(x0)},{_fmt(y)},{_fmt(v)}" for y, v in zip(ys, values)]
        _write_csv(args, "x,y,value", rows)
        return EXIT_OK
    R = qhermite.support_radius(args.q)
    xs = np.linspace(-R, R, args.grid)
    rows = [f"{_fmt(x)},{_fmt(v)}" for x, v in zip(xs, qhermite.nu_q_density(xs, args.q))]
    _write_csv(args, "x,value", rows)
    return EXIT_OK


def run_freeconv(args) -> int:
    _check_grid(args)
    if not abs(args.theta) <= freeconv.MAX_ABS_THETA:
        raise ValueError(f"--theta must be finite and at most {freeconv.MAX_ABS_THETA:g} "
                         f"in absolute value")
    result = freeconv.semicircle_plus_atomic(args.r, args.theta, args.grid)
    rows = [f"{_fmt(x)},{_fmt(d)}" for x, d in zip(result.measure.grid, result.measure.density)]
    summary = {
        "support_intervals": [[a, b] for a, b in result.support_intervals],
        "outliers": [],
        "total_mass": result.measure.total_mass(),
        "small_r_outlier_prediction": freeconv.outlier_location(args.theta),
    }
    summary_path = args.summary or (args.out + ".json" if args.out not in (None, "-") else None)
    if summary_path is None:  # both go to stdout, the density first
        _write_csv(args, "x,density", rows)
        _write_json(args, summary)
    else:  # the side file first, so a path that cannot be written leaves stdout empty
        _write_json(args, summary, path=summary_path)
        _write_csv(args, "x,density", rows)
    return EXIT_OK


def run_qtilde(args) -> int:
    q, qt = edlab.finite_size_weights(args.N, args.p, args.k)
    payload = {
        "N": args.N, "p": args.p, "k": args.k,
        "q_finite": str(q),
        "q_j": [str(edlab.qj_weight(args.p, args.N, j)) for j in range(args.k)],
        "qtilde": str(qt),
        "qtilde_float": float(qt),
    }
    _write_json(args, payload)
    return EXIT_OK


def run_zn(args) -> int:
    _check_q(args)
    if not 0.0 <= args.qtilde < 1.0:
        raise ValueError("--qtilde must lie in [0, 1)")
    value = moments.z_n(args.n, args.beta, args.q, args.qtilde)
    row = f"{args.n},{_fmt(args.beta)},{_fmt(args.q)},{_fmt(args.qtilde)},{_fmt(value)}"
    _write_csv(args, "n,beta,q,qtilde,z_n", [row])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _moments_args(p):
    p.add_argument("--n", type=int, required=True, help="highest moment order")
    p.add_argument("--symbolic", action="store_true", help="force fully symbolic output")
    p.add_argument("--q", type=str, default=None, help="rational q, e.g. 1/3")
    p.add_argument("--qtilde", type=str, default=None, help="rational qtilde")
    p.add_argument("--theta", type=str, default=None, help="rational defect strength")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--k", type=int, default=None)


def _mixed_args(p):
    p.add_argument("--word", type=str, required=True)


def _ed_args(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--histogram", type=str, default=None, help="also write a histogram CSV here")
    p.add_argument("--bins", type=int, default=80)
    p.add_argument("--phase-thetas", type=str, default=None,
                   help="comma list of theta values: emit a gap report instead of spectra")


def _compare_args(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=int, default=4)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)


def _density_args(p):
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--kernel-r", type=float, default=None,
                   help="emit the conditional kernel at this memory parameter")
    p.add_argument("--kernel-x", type=float, default=None, help="kernel x (default 0)")


def _freeconv_args(p):
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--grid", type=int, default=2000)
    p.add_argument("--summary", type=str, default=None, help="JSON summary path")


def _qtilde_args(p):
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)


def _zn_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--qtilde", type=float, required=True)


def _common_args(p):
    p.add_argument("--out", default=None, help="output path ('-' or omit for stdout)")
    p.add_argument("--deterministic", action="store_true",
                   help="suppress the timestamp metadata line")


def _subcommands():
    """(name, help, argument adder, runner) for each subcommand, in help
    order.  Built per call, so a runner rebound on this module after import
    (a tracing wrapper, say) is the one the parser dispatches to."""
    return (
        ("moments", "exact or specialized moment table", _moments_args, run_moments),
        ("mixed", "mixed moment of a word over {x,d}", _mixed_args, run_mixed),
        ("ed", "sample spectra (or a phase scan) at finite N", _ed_args, run_ed),
        ("compare", "analytic vs empirical reduced moments", _compare_args, run_compare),
        ("density", "q-Gaussian density (or conditional kernel) samples", _density_args,
         run_density),
        ("freeconv", "two-atom measure (+) semicircle density", _freeconv_args, run_freeconv),
        ("qtilde", "exact finite-size wall weight", _qtilde_args, run_qtilde),
        ("zn", "n-boundary partition function", _zn_args, run_zn),
    )


def _subparser(build: bool, **kwargs) -> argparse.ArgumentParser | None:
    """The parser class of the subcommands: a full parser for a subcommand
    that is built, and nothing for one that is only registered."""
    return argparse.ArgumentParser(**kwargs) if build else None


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is registered with its
    name and help, but only those whose name is a token of `argv` get a
    parser and their arguments: argparse hands the rest of the command line
    to the subparser named by a token, so no other subparser is ever parsed
    or printed."""
    parser = argparse.ArgumentParser(prog="dssyklab",
                                     description="moment laboratory for the defect-perturbed model")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_subparser)
    tokens = set(argv)
    for name, text, add_args, runner in _subcommands():
        build = name in tokens
        p = sub.add_parser(name, help=text, build=build)
        if build:
            add_args(p)
            _common_args(p)
            p.set_defaults(func=runner)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
