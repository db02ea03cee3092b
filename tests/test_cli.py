import argparse
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dssyklab import cli, edlab
from dssyklab.moments import MomentTable, reduced_moment
from dssyklab.qcore import MultiPoly
from dssyklab.qhermite import rt_moment


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# JSON payloads: str keys with non-ASCII and control characters (and the
# '%' of a template), scalars of every JSON type, flat records with equal
# and with unequal key sets, and nesting
JSON_KEYS = st.text(max_size=4) | st.sampled_from(
    ["num", "den", "q", "100%", "\x00\n\t", "\u00e9\u4e2d", "\U0001f600", ""])
JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 60, 10 ** 60)
                | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
                | JSON_KEYS)
SHARED_KEY_RECORDS = st.lists(JSON_KEYS, min_size=1, max_size=5, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({key: JSON_SCALARS for key in keys}),
                          max_size=4))
JSON_VALUES = st.recursive(
    JSON_SCALARS | SHARED_KEY_RECORDS | st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_KEYS, inner, max_size=4)
    | st.tuples(SHARED_KEY_RECORDS, inner).map(lambda pair: pair[0] + [{"nested": pair[1]}]),
    max_leaves=12)


@settings(derandomize=True, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(JSON_KEYS, JSON_VALUES, max_size=5))
@example({"moments": {"1": [{"den": "1", "num": "2", "q": 0}] * 2, "2": []}, "x": [[1.5, {}]]})
@example({"grown": [{"a": 1}, {"a": 2, "b": 3}], "int keys": {"k": {2: {"x": [1]}, 1: []}}})
def test_json_writer_equals_the_indented_dump(capsys, payload):
    args = argparse.Namespace(subcommand="mixed", deterministic=True, out=None)
    cli._write_json(args, payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestMomentsCommand:
    def test_symbolic_json(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "4", "--symbolic", "--deterministic"], capsys)
        assert code == 0
        moments = json.loads(out)["moments"]
        assert [MultiPoly.from_json_obj(moments[str(n)]) for n in range(1, 5)] == [
            reduced_moment(n) for n in range(1, 5)]

    def test_trivial_numeric(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "1", "--theta", "2", "--deterministic"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1] == "1,2"

    def test_finite_size_mode(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "4", "--N", "26", "--p", "4", "--k", "2",
                                "--theta", "5", "--deterministic"], capsys)
        assert code == 0
        assert "# derived_q=1227/7475" in out
        q = edlab.qn_finite(4, 26)
        qt = edlab.qtilde_weight(4, 26, 2)
        expected = float(reduced_moment(4).evaluate_exact(q, qt, 5))
        row = [l for l in out.splitlines() if l.startswith("4,")][0]
        assert float(row.split(",")[1]) == pytest.approx(expected, rel=1e-12)

    def test_conflicting_flag_sets(self, capsys):
        code, _, err = run_cli(["moments", "--n", "4", "--q", "1/2", "--N", "26",
                                "--p", "4", "--k", "1"], capsys)
        assert code == 2
        assert "not both" in err

    def test_incomplete_finite_size(self, capsys):
        code, _, _ = run_cli(["moments", "--n", "4", "--N", "26"], capsys)
        assert code == 2

    def test_over_cap(self, capsys):
        code, _, _ = run_cli(["moments", "--n", "31", "--symbolic"], capsys)
        assert code == 2

    def test_at_cap(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "30", "--q", "1/2", "--qtilde", "1/4",
                                "--theta", "3", "--deterministic"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line[0].isdigit()]
        assert [int(n) for n, _ in rows] == list(range(1, 31))
        assert all(math.isfinite(float(v)) and float(v) > 0 for _, v in rows)

    def test_other_table_errors_are_not_reported_as_too_large(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("something else went wrong")
        monkeypatch.setattr(MomentTable, "specialized", fail)
        code, out, err = run_cli(["moments", "--n", "4", "--q", "1/2"], capsys)
        assert code == 2
        assert out == "" and err == "error: something else went wrong\n"

    def test_partially_symbolic_falls_back_to_json(self, capsys):
        code, out, _ = run_cli(["moments", "--n", "4", "--theta", "2", "--deterministic"], capsys)
        assert code == 0
        obj = json.loads(out)  # qt stays symbolic at n = 4
        assert obj["params"]["qt"] == "symbolic"

    def test_any_rational_is_evaluated(self, capsys):
        # q = 2 and qt = 3 lie outside the model's range, but m_n is a
        # polynomial and the table is its exact value there
        code, out, err = run_cli(["moments", "--n", "4", "--q", "2", "--qtilde", "3",
                                  "--theta", "1", "--deterministic"], capsys)
        assert (code, err) == (0, "")
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows == ["n,m_n", "1,1", "2,1", "3,4", "4,11"]


class TestMixedCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(["mixed", "--word", "xdxd", "--deterministic"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == [{"q": 0, "qt": 1, "theta": 2, "num": "1", "den": "1"}]

    def test_bad_word(self, capsys):
        code, _, _ = run_cli(["mixed", "--word", "xyz"], capsys)
        assert code == 2


class TestEdCommand:
    def test_spectra_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code, _, _ = run_cli(["ed", "--N", "8", "--theta", "1", "--k", "1", "--samples", "2",
                              "--seed", "1", "--deterministic", "--out", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any("seed=1" in l for l in meta)
        body = [l for l in lines if not l.startswith("#")]
        assert body[0] == "sample_index,eigenvalue"
        assert len(body) == 1 + 2 * 16

    def test_byte_reproducible(self, tmp_path, capsys):
        args = ["ed", "--N", "8", "--theta", "1", "--k", "1", "--samples", "2",
                "--seed", "1", "--deterministic"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(args + ["--out", str(a)], capsys)
        run_cli(args + ["--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_histogram_output(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        hist = tmp_path / "hist.csv"
        code, _, _ = run_cli(["ed", "--N", "8", "--samples", "2", "--seed", "3", "--bins", "20",
                              "--histogram", str(hist), "--deterministic", "--out", str(out)],
                             capsys)
        assert code == 0
        body = [l for l in hist.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "left_edge,count,density"
        assert len(body) == 21

    def test_phase_scan_csv(self, capsys):
        code, out, _ = run_cli(["ed", "--N", "12", "--p", "4", "--k", "2", "--samples", "5",
                                "--seed", "3", "--phase-thetas", "1,5", "--deterministic"],
                               capsys)
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "theta,k,samples,max_gap,median_gap,gap_ratio,bimodal,gap"
        flags = [int(row.split(",")[6]) for row in body[1:]]
        assert flags == [0, 1]

    def test_invalid_params(self, capsys):
        code, _, _ = run_cli(["ed", "--N", "7"], capsys)
        assert code == 2

    def test_phase_scan_pools_a_doubled_level_by_value(self, capsys):
        # N/2 = 7 odd, p = 4: block 1 mirrors block 0, and a shift of 1e-20
        # rounds away on every level, so both thetas pool the same levels once
        code, out, _ = run_cli(["ed", "--N", "14", "--k", "2", "--samples", "4",
                                "--phase-thetas", "1e-20,0", "--deterministic"], capsys)
        assert code == 0
        tiny, zero = [row.split(",") for row in out.splitlines()[-2:]]
        assert tiny[0] == "1e-20" and zero[0] == "0"
        assert tiny[1:] == zero[1:]

    @pytest.mark.parametrize("argv", [
        ["ed", "--N", "8", "--k", "2", "--theta", "1e6", "--samples", "2"],
        ["ed", "--N", "12", "--k", "2", "--samples", "2", "--phase-thetas=-1e6,1e6"],
        ["compare", "--N", "8", "--k", "1", "--theta=-1e6", "--samples", "2"],
    ], ids=["ed", "phase-scan", "compare"])
    def test_theta_at_the_cap(self, argv, capsys):
        code, out, err = run_cli(argv + ["--deterministic"], capsys)
        assert code == 0, err
        assert all(map(math.isfinite, _numbers(out)))

    @pytest.mark.parametrize("argv,allowed", [
        (["ed", "--N", "8", "--samples", "4"], True),  # 4 x 16 levels
        (["ed", "--N", "8", "--samples", "5"], False),
        (["ed", "--N", "8", "--samples", "2", "--phase-thetas", "1,2"], True),
        (["ed", "--N", "8", "--samples", "2", "--phase-thetas", "1,2,3"], False),
        (["compare", "--N", "8", "--k", "1", "--theta", "1", "--samples", "4"], True),
        (["compare", "--N", "8", "--k", "1", "--theta", "1", "--samples", "5"], False),
    ], ids=["ed-at", "ed-past", "scan-at", "scan-past", "compare-at", "compare-past"])
    def test_level_cap_counts_samples_dim_and_entries(self, argv, allowed, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_LEVELS", 64)
        monkeypatch.setattr(edlab, "sample_rng", _first_sample)
        if allowed:
            with pytest.raises(Sampled):
                cli.main(argv + ["--deterministic"])
            return
        code, out, err = run_cli(argv + ["--deterministic"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: --samples ") and err.endswith("; at most 64 are allowed\n")

    def test_phase_thetas_entries_are_capped(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PHASE_THETAS", 3)
        monkeypatch.setattr(edlab, "sample_rng", _first_sample)
        argv = ["ed", "--N", "8", "--samples", "2", "--deterministic", "--phase-thetas"]
        with pytest.raises(Sampled):
            cli.main(argv + ["1,2,3"])
        code, out, err = run_cli(argv + ["1,2,3,4"], capsys)
        assert (code, out, err) == (2, "", "error: --phase-thetas has 4 entries; "
                                           "at most 3 are allowed\n")

    @pytest.mark.parametrize("argv", [
        ["ed", "--N", "8", "--k", "1", "--samples", "2", "--phase-thetas", "1,2",
         "--histogram", "HIST"],
        ["ed", "--N", "12", "--samples", "100000"],
        ["ed", "--N", "16", "--k", "2", "--samples", "10", "--phase-thetas",
         ",".join(["1"] * 410)],
        ["ed", "--N", "8", "--phase-thetas", ",".join(["1"] * 1001)],
        ["compare", "--N", "16", "--k", "2", "--theta", "5", "--samples", "4097"],
    ], ids=["histogram-with-scan", "samples", "scan-levels", "scan-entries", "compare-samples"])
    def test_caps_reject_before_any_sample(self, argv, tmp_path, capsys, monkeypatch):
        hist = tmp_path / "h.csv"
        monkeypatch.setattr(edlab, "sample_rng", _first_sample)
        code, out, err = run_cli([str(hist) if a == "HIST" else a for a in argv]
                                 + ["--deterministic"], capsys)
        assert (code, out) == (2, "") and err.startswith("error: --")
        assert not hist.exists()


class Sampled(Exception):
    """Raised where an ED run would draw its first sample."""


def _first_sample(*args):
    raise Sampled


class TestCompareCommand:
    def test_small_run_passes_guard(self, capsys):
        code, out, _ = run_cli(["compare", "--N", "12", "--p", "4", "--k", "2", "--theta", "3",
                                "--samples", "10", "--seed", "42", "--n-max", "4",
                                "--deterministic"], capsys)
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "n,analytic,empirical,stderr,zscore"
        assert len(body) == 5

    def test_guard_trips_on_biased_estimates(self, capsys, monkeypatch):
        def biased(params, max_n):
            return [1000.0] * max_n, [1.0] * max_n
        monkeypatch.setattr(edlab, "paired_reduced_moments", biased)
        code, _, err = run_cli(["compare", "--N", "12", "--p", "4", "--k", "2", "--theta", "3",
                                "--samples", "2", "--n-max", "4", "--deterministic"], capsys)
        assert code == 4
        assert "regression guard" in err

    def test_k0_analytic_is_the_binomial_shift(self, capsys):
        # k = 0 makes the defect theta times the identity: qtilde = 1 and
        # m_n = sum over even j < n of C(n, j) theta^(n-j) m_j^SYK
        code, out, _ = run_cli(["compare", "--N", "12", "--p", "4", "--k", "0", "--theta", "3",
                                "--samples", "20", "--seed", "1", "--deterministic"], capsys)
        assert code == 0
        assert "# qtilde=1" in out
        q = float(edlab.qn_finite(4, 12))
        body = [l.split(",") for l in out.splitlines() if l[0].isdigit()]
        for n, analytic, *_ in body:
            n = int(n)
            shift = sum(math.comb(n, j) * 3.0 ** (n - j) * float(rt_moment(j // 2).evaluate(q=q))
                        for j in range(0, n, 2))
            assert float(analytic) == pytest.approx(shift, rel=1e-11)

    def test_k3_reports_one_qtilde(self, capsys):
        # the paper's alternate k = 3 weight (q_0 + 2 q_1)/4 is refuted by the
        # exact m_4, so only the domino-subset weight is printed
        code, out, _ = run_cli(["compare", "--N", "12", "--p", "4", "--k", "3", "--theta", "2",
                                "--samples", "3", "--n-max", "2", "--deterministic"], capsys)
        assert code == 0
        assert f"# qtilde={edlab.qtilde_weight(4, 12, 3)}" in out
        assert "qtilde_main_text" not in out


class TestDensityCommand:
    def test_semicircle_samples(self, capsys):
        code, out, _ = run_cli(["density", "--q", "0", "--grid", "101", "--deterministic"],
                               capsys)
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        mid = body[1 + 50]
        x, val = map(float, mid.split(","))
        assert x == pytest.approx(0.0, abs=1e-12)
        assert val == pytest.approx(1 / 3.141592653589793, abs=1e-9)

    def test_kernel_csv(self, capsys):
        code, out, _ = run_cli(["density", "--q", "0.5", "--grid", "5", "--kernel-r", "0.6",
                                "--kernel-x", "0.7", "--deterministic"], capsys)
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert body[0] == "x,y,value"
        assert len(body) == 6

    def test_kernel_x_is_recorded_only_on_kernel_runs(self, capsys):
        _, plain, _ = run_cli(["density", "--q", "0.5", "--grid", "3", "--deterministic"], capsys)
        assert "kernel_x" not in plain
        _, kernel, _ = run_cli(["density", "--q", "0.5", "--grid", "3", "--kernel-r", "0.6",
                                "--deterministic"], capsys)
        assert "# kernel_x=0.0" in kernel.splitlines()
        assert [l.split(",")[0] for l in kernel.splitlines()[-3:]] == ["0"] * 3

    def test_q_out_of_range(self, capsys):
        code, _, _ = run_cli(["density", "--q", "1.5"], capsys)
        assert code == 2


class TestFreeconvCommand:
    def test_density_and_summary(self, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code, _, _ = run_cli(["freeconv", "--r", "0.25", "--theta", "3", "--deterministic",
                              "--out", str(out)], capsys)
        assert code == 0
        summary = json.loads((tmp_path / "fc.csv.json").read_text())
        assert len(summary["support_intervals"]) == 2
        assert summary["total_mass"] == pytest.approx(1.0, abs=1e-4)
        assert summary["small_r_outlier_prediction"] == pytest.approx(3 + 1 / 3, abs=1e-6)

    def test_negative_theta_outlier_below_the_bulk(self, tmp_path, capsys):
        summary = tmp_path / "fc.json"
        code, _, _ = run_cli(["freeconv", "--r", "0.25", "--theta", "-3", "--grid", "200",
                              "--summary", str(summary), "--deterministic"], capsys)
        assert code == 0
        prediction = json.loads(summary.read_text())["small_r_outlier_prediction"]
        assert prediction == -3.3333333333333335

    def test_validation(self, capsys):
        code, _, _ = run_cli(["freeconv", "--r", "1.5", "--theta", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("theta,expected", [
        ("1e7", 2), ("1e16", 2), ("-1e16", 2), ("1e30", 2), ("1e50", 2), ("1e154", 2),
        ("1e155", 2), ("-1000001", 2),
        # inside the cap, at r near 1 the support edges already lose the mass
        ("74989", 3), ("-23714", 3),
    ])
    def test_large_theta_is_refused_without_output(self, theta, expected, tmp_path, capsys):
        r = "0.5" if expected == 2 else "0.999999"
        out, summary = tmp_path / "fc.csv", tmp_path / "fc.json"
        code, stdout, err = run_cli(["freeconv", "--r", r, "--grid", "200", f"--theta={theta}",
                                     "--out", str(out), "--summary", str(summary),
                                     "--deterministic"], capsys)
        assert code == expected
        assert "Traceback" not in err and stdout == ""
        assert "--theta" in err if expected == 2 else err.startswith("non-convergence:")
        assert not out.exists() and not summary.exists()

    @pytest.mark.parametrize("theta", ["1e6", "-1e6"])
    def test_theta_at_the_cap(self, theta, tmp_path, capsys):
        out = tmp_path / "fc.csv"
        code, _, _ = run_cli(["freeconv", "--r", "0.5", "--grid", "200", f"--theta={theta}",
                              "--out", str(out), "--deterministic"], capsys)
        assert code == 0
        text = out.read_text() + (tmp_path / "fc.csv.json").read_text()
        assert "nan" not in text.lower() and "inf" not in text.lower()
        mass = json.loads((tmp_path / "fc.csv.json").read_text())["total_mass"]
        assert mass == pytest.approx(1.0, abs=1e-4)


class TestQtildeCommand:
    def test_k1_exact(self, capsys):
        code, out, _ = run_cli(["qtilde", "--N", "26", "--p", "4", "--k", "1",
                                "--deterministic"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["qtilde"] == "1"
        assert obj["q_j"] == ["1"]

    def test_k3_reports_one_qtilde(self, capsys):
        code, out, _ = run_cli(["qtilde", "--N", "26", "--p", "4", "--k", "3",
                                "--deterministic"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["qtilde"] == str(edlab.qtilde_weight(4, 26, 3))
        assert "qtilde_main_text" not in obj


    def test_k0_has_no_wall(self, capsys):
        code, out, _ = run_cli(["qtilde", "--N", "8", "--p", "4", "--k", "0",
                                "--deterministic"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["qtilde"] == "1" and obj["q_j"] == []


class TestZnCommand:
    def test_beta_zero(self, capsys):
        code, out, _ = run_cli(["zn", "--n", "2", "--beta", "0", "--q", "0.5",
                                "--qtilde", "0", "--deterministic"], capsys)
        assert code == 0
        body = [l for l in out.splitlines() if not l.startswith("#")]
        assert float(body[1].split(",")[-1]) == pytest.approx(1.0, abs=1e-10)

    def test_validation(self, capsys):
        code, _, err = run_cli(["zn", "--n", "1", "--beta", "1", "--q", "0.5",
                                "--qtilde", "1.0"], capsys)
        assert code == 2
        assert err == "error: --qtilde must lie in [0, 1)\n"


@pytest.mark.parametrize("args,reason", [
    pytest.param(["density", "--q", "1"], "--q must lie", id="density-q-1"),
    pytest.param(["density", "--q", "1.5"], "--q must lie", id="density-q-1.5"),
    pytest.param(["moments", "--n", "3", "--q", "1/0"], "zero denominator",
                 id="moments-zero-denominator"),
    pytest.param(["zn", "--n", "1", "--beta", "nan", "--q", "0.5", "--qtilde", "0.25"],
                 "beta must be finite", id="zn-beta-nan"),
    pytest.param(["freeconv", "--r", "0.25", "--theta", "nan"], "theta must be finite",
                 id="freeconv-theta-nan"),
    pytest.param(["mixed", "--word", "x" * 30], "capped", id="mixed-30-x"),
    pytest.param(["ed", "--N", "8", "--theta", "nan"], "--theta must be finite",
                 id="ed-theta-nan"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "inf"], "--theta must be finite",
                 id="compare-theta-inf"),
    pytest.param(["ed", "--N", "8", "--phase-thetas", "1,nan"],
                 "--phase-thetas entry 'nan' is not a finite number", id="ed-phase-thetas-nan"),
    pytest.param(["ed", "--N", "8", "--phase-thetas", "1,inf"],
                 "--phase-thetas entry 'inf' is not a finite number", id="ed-phase-thetas-inf"),
    pytest.param(["ed", "--N", "8", "--phase-thetas=-inf"],
                 "--phase-thetas entry '-inf' is not a finite number",
                 id="ed-phase-thetas-minus-inf"),
    pytest.param(["ed", "--N", "12", "--k", "2", "--theta", "1e308"],
                 "--theta must be at most 1e+06 in absolute value", id="ed-theta-1e308"),
    pytest.param(["ed", "--N", "8", "--theta=-1000001"],
                 "--theta must be at most 1e+06 in absolute value", id="ed-theta-past-the-cap"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1e7"],
                 "--theta must be at most 1e+06 in absolute value", id="compare-theta-1e7"),
    pytest.param(["ed", "--N", "12", "--k", "2", "--samples", "2", "--phase-thetas", "1e200"],
                 "--phase-thetas entry '1e200' is larger than 1e+06 in absolute value",
                 id="ed-phase-thetas-1e200"),
    pytest.param(["ed", "--N", "12", "--k", "2", "--samples", "2", "--phase-thetas",
                  "1,1e308,1e308"], "--phase-thetas entry '1e308' is larger than 1e+06",
                 id="ed-phase-thetas-1e308"),
    pytest.param(["ed", "--N", "16", "--phase-thetas", "1,,2"],
                 "--phase-thetas entry '' is not a number", id="ed-phase-thetas-empty-entry"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1", "--samples", "1",
                  "--n-max", "2"], "samples >= 2", id="compare-samples-1"),
    pytest.param(["ed", "--N", "8", "--bins", "0"], "--bins must be positive", id="ed-bins-0"),
    pytest.param(["density", "--q", "0.5", "--kernel-r", "0.5", "--kernel-x", "nan"],
                 "inside the support", id="density-kernel-x-nan"),
    pytest.param(["density", "--q", "0.5", "--kernel-x", "0.7"], "--kernel-x needs --kernel-r",
                 id="density-kernel-x-without-kernel-r"),
    pytest.param(["ed", "--N", "8", "--seed", "-1"], "seed must satisfy", id="ed-seed-negative"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1", "--seed", str(2 ** 64)],
                 "seed must satisfy", id="compare-seed-2^64"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1", "--n-max", "-1"],
                 "--n-max must lie", id="compare-n-max-negative"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1", "--n-max", "0"],
                 "--n-max must lie", id="compare-n-max-0"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1", "--n-max", "31"],
                 "--n-max must lie", id="compare-n-max-above-order-cap"),
    pytest.param(["ed", "--N", "4", "--samples", "5", "--phase-thetas", "1"], "too degenerate",
                 id="ed-phase-scan-degenerate"),
    # at seed 3260 the two levels lie 1.7e-5 apart at 1e6, closer than a
    # million bins can split in float64
    pytest.param(["ed", "--N", "2", "--p", "2", "--theta", "1e6", "--seed", "3260",
                  "--bins", str(10 ** 6), "--histogram", "h.csv"],
                 "--bins 1000000 is too many for the spectrum's width 1.67479738593e-05",
                 id="ed-histogram-fails-before-spectra"),
    pytest.param(["ed", "--N", "8", "--k", "1", "--samples", "2", "--phase-thetas", "1,2",
                  "--histogram", "h.csv"],
                 "--histogram cannot be combined with --phase-thetas",
                 id="ed-histogram-with-phase-thetas"),
    pytest.param(["ed", "--N", "12", "--samples", "100000"],
                 "--samples 100000 asks for 6400000 levels at N=12; at most 1048576 are allowed",
                 id="ed-samples-past-the-level-cap"),
    pytest.param(["ed", "--N", "16", "--samples", "10", "--phase-thetas", ",".join(["1"] * 410)],
                 "--samples 10 asks for 1049600 levels at N=16 over 410 --phase-thetas entries",
                 id="ed-phase-scan-past-the-level-cap"),
    pytest.param(["ed", "--N", "4", "--phase-thetas", ",".join(["1"] * 1001)],
                 "--phase-thetas has 1001 entries; at most 1000 are allowed",
                 id="ed-phase-thetas-past-the-entry-cap"),
    pytest.param(["compare", "--N", "24", "--k", "1", "--theta", "1", "--samples", "257"],
                 "--samples 257 asks for 1052672 levels at N=24", id="compare-samples-past-the-cap"),
    pytest.param(["zn", "--n", "1", "--beta", "1", "--q", "0.995", "--qtilde", "0.25"],
                 "--q must lie in [0, 0.99]", id="zn-q-0.995"),
    pytest.param(["zn", "--n", "1", "--beta", "1", "--q", "0.5", "--qtilde=-0.1"],
                 "--qtilde must lie in [0, 1)", id="zn-qtilde-negative"),
    pytest.param(["qtilde", "--N", "3", "--p", "4", "--k", "1"], "need 0 < p <= N",
                 id="qtilde-p-above-N"),
    pytest.param(["qtilde", "--N", "3", "--p", "2", "--k", "1"], "N must be a positive even",
                 id="qtilde-N-odd"),
    pytest.param(["qtilde", "--N", "8", "--p", "4", "--k", "5"], "k must satisfy",
                 id="qtilde-k-above-N/2"),
    pytest.param(["moments", "--n", "4", "--N", "3", "--p", "2", "--k", "1"],
                 "N must be a positive even", id="moments-N-odd"),
    pytest.param(["moments", "--n", "4", "--N", "8", "--p", "4", "--k", "5"], "k must satisfy",
                 id="moments-k-above-N/2"),
    pytest.param(["compare", "--N", "8", "--k", "-1", "--theta", "1"], "k must satisfy",
                 id="compare-k-negative"),
    pytest.param(["density", "--q", "0.5", "--grid", str(10 ** 12)], "--grid must lie",
                 id="density-grid-10^12"),
    pytest.param(["density", "--q", "0.5", "--grid", "0"], "--grid must lie", id="density-grid-0"),
    pytest.param(["density", "--q", "0.5", "--grid", "-5"], "--grid must lie",
                 id="density-grid-negative"),
    pytest.param(["freeconv", "--r", "0.25", "--theta", "3", "--grid", str(10 ** 12)],
                 "--grid must lie", id="freeconv-grid-10^12"),
    pytest.param(["ed", "--N", "4", "--bins", str(10 ** 12), "--histogram", "h.csv"],
                 "--bins must be positive and at most", id="ed-bins-10^12"),
])
def test_boundary_rejects_before_output(args, reason, capsys):
    code, out, err = run_cli(args + ["--deterministic"], capsys)
    assert code == 2
    assert "Traceback" not in err and err.startswith("error:") and reason in err
    assert out == ""


THETAS = st.one_of(st.floats(-8, 8), st.sampled_from([0.0, 1e6, -1e6, 1e17, 1e60, -1e300]))
VALID = {"--N": st.sampled_from([8, 10, 6, 4, 2]), "--p": st.sampled_from([4, 2, 6]),
         "--k": st.sampled_from([2, 1, 3, 0]), "--theta": THETAS,
         "--samples": st.sampled_from([3, 2, 4]), "--seed": st.sampled_from([3, 0, 2 ** 64 - 1])}
INVALID = {"--N": st.sampled_from([0, 7, 26]), "--p": st.sampled_from([0, 3, 12]),
           "--k": st.sampled_from([-1, 6]), "--theta": st.sampled_from([math.nan, math.inf]),
           "--samples": st.sampled_from([0, 1, cli.MAX_LEVELS // 2 + 1, 10 ** 9]),
           "--seed": st.sampled_from([-1, 2 ** 64])}
# a phase scan one entry past its cap
TOO_MANY_THETAS = st.just([1.0] * (cli.MAX_PHASE_THETAS + 1))


@st.composite
def ed_or_compare_argv(draw):
    """Valid flags with at most one replaced by an invalid value."""
    sub = draw(st.sampled_from(["ed", "compare"]))
    flags = {flag: draw(strategy) for flag, strategy in VALID.items()}
    broken = draw(st.sampled_from([None, None, None, *INVALID]))
    if broken:
        flags[broken] = draw(INVALID[broken])
    argv = [sub] + [f"{flag}={value!r}" for flag, value in flags.items()]
    if sub == "compare":
        return argv + ["--n-max", str(draw(st.integers(0, 6)))]
    if draw(st.booleans()):
        thetas = draw(st.lists(THETAS, min_size=1, max_size=3) | TOO_MANY_THETAS)
        argv += ["--phase-thetas=" + ",".join(map(repr, thetas))]
        if draw(st.integers(0, 3)) == 0:  # a scan writes no histogram
            argv += ["--histogram", "HIST"]
    elif draw(st.booleans()):
        argv += ["--bins", str(draw(st.integers(0, 5))), "--histogram", "HIST"]
    return argv


def _numbers(text, echoed=()):
    """Every comma-separated field that parses as a float, metadata values included.

    A field equal to one of the `echoed` flag values is the user's own text
    copied into the metadata, not a computed number, and is skipped.
    """
    for line in text.splitlines():
        for field in line.split("=", 1)[-1].split(","):
            if field in echoed:
                continue
            try:
                yield float(field)
            except ValueError:
                pass


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ed_or_compare_argv())
def test_ed_and_compare_keep_the_exit_code_contract(tmp_path, capsys, argv):
    hist = tmp_path / "hist.csv"
    hist.unlink(missing_ok=True)
    argv = [str(hist) if a == "HIST" else a for a in argv] + ["--deterministic"]
    code, out, err = run_cli(argv, capsys)
    written = out + (hist.read_text() if hist.exists() else "")
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert all(math.isfinite(x) for x in _numbers(written))


HUGE = ["1e400", "-1e400", "1" + "0" * 400 + "/3", "1/" + "1" + "0" * 400]
RATIONALS = st.one_of(st.fractions(-4, 4, max_denominator=60).map(str), st.sampled_from(HUGE))
BAD_RATIONALS = st.sampled_from(["1/0", "abc", "nan", "inf", "1/1e3"])
# p > N is in the valid space (N = 4, p = 6)
FINITE_SIZE = {"--N": st.sampled_from([26, 8, 12, 4, 10 ** 6]), "--p": st.sampled_from([4, 2, 6]),
               "--k": st.sampled_from([1, 2, 3, 0])}
FINITE_SIZE_INVALID = {"--N": st.sampled_from([0, 3, -4]), "--p": st.sampled_from([0, 3, -2, 40]),
                       "--k": st.sampled_from([-1, 30])}
MOMENTS_INVALID = {**FINITE_SIZE_INVALID, "--n": st.sampled_from([0, 31, -3]),
                   "--q": BAD_RATIONALS, "--qtilde": BAD_RATIONALS, "--theta": BAD_RATIONALS}


@st.composite
def moments_mixed_or_qtilde_argv(draw):
    """Valid flags with at most one replaced by an invalid value."""
    sub = draw(st.sampled_from(["moments", "mixed", "qtilde"]))
    if sub == "mixed":
        word = draw(st.one_of(st.text("xd", min_size=1, max_size=12),
                              st.sampled_from(["", "xdy", "x" * 16, "XXdD"])))
        return ["mixed", f"--word={word}"]
    valid, invalid, extra = dict(FINITE_SIZE), FINITE_SIZE_INVALID, []
    if sub == "moments":
        invalid = MOMENTS_INVALID
        mode = draw(st.sampled_from(["direct", "finite-size", "symbolic"]))
        if mode == "direct":
            names = draw(st.lists(st.sampled_from(["--q", "--qtilde", "--theta"]), unique=True))
            valid = {name: RATIONALS for name in names}
        elif mode == "symbolic":
            valid, extra = {}, ["--symbolic"]
        elif draw(st.booleans()):
            valid["--theta"] = RATIONALS
        valid["--n"] = st.sampled_from([4, 1, 2, 7, 14])
    flags = {flag: draw(strategy) for flag, strategy in valid.items()}
    broken = draw(st.sampled_from([None, None, *flags]))
    if broken:
        flags[broken] = draw(invalid[broken])
    return [sub] + [f"{flag}={value}" for flag, value in flags.items()] + extra


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(moments_mixed_or_qtilde_argv())
@example(["qtilde", "--N=3", "--p=4", "--k=1"])
@example(["moments", "--n=2", "--theta=1e400"])
def test_moments_mixed_and_qtilde_keep_the_exit_code_contract(capsys, argv):
    code, out, err = run_cli(argv + ["--deterministic"], capsys)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if out.startswith("{"):
        json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in the output"))
    else:
        echoed = [a.split("=", 1)[1] for a in argv if "=" in a]
        assert all(math.isfinite(x) for x in _numbers(out, echoed))


KERNEL_OVERFLOW = ["density", "--q=0.99", "--kernel-r=0.9", "--grid=3"]
GRIDS = st.one_of(st.integers(2, 40), st.sampled_from([0, 1, -5, 10 ** 12]))


@st.composite
def density_freeconv_or_zn_argv(draw):
    """Numeric flags with q up to 0.99 and grids from a small valid range or the boundary."""
    sub = draw(st.sampled_from(["density", "freeconv", "zn"]))
    q = draw(st.floats(0, 0.99))
    if sub == "density":
        argv = ["density", f"--q={q!r}", f"--grid={draw(GRIDS)}"]
        if draw(st.booleans()):
            argv += [f"--kernel-r={draw(st.floats(0, 0.99))!r}",
                     f"--kernel-x={draw(st.floats(-25, 25))!r}"]
        return argv
    if sub == "freeconv":
        return ["freeconv", f"--r={draw(st.floats(0.01, 0.99))!r}",
                f"--theta={draw(st.floats(-8, 8))!r}",
                f"--grid={draw(st.one_of(st.integers(100, 300), GRIDS))}", "--summary", "SUMMARY"]
    return ["zn", f"--n={draw(st.integers(1, 4))}", f"--beta={draw(st.floats(-50, 50))!r}",
            f"--q={q!r}", f"--qtilde={draw(st.floats(0, 0.99))!r}"]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(density_freeconv_or_zn_argv())
@example(KERNEL_OVERFLOW)
@example(["freeconv", "--r=0.25", "--theta=3.0", f"--grid={10 ** 12}", "--summary", "SUMMARY"])
def test_density_freeconv_and_zn_keep_the_exit_code_contract(tmp_path, capsys, argv):
    summary = tmp_path / "summary.json"
    summary.unlink(missing_ok=True)
    argv = [str(summary) if a == "SUMMARY" else a for a in argv] + ["--deterministic"]
    code, out, err = run_cli(argv, capsys)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert all(math.isfinite(x) for x in _numbers(out))
    if summary.exists():
        json.loads(summary.read_text(),
                   parse_constant=lambda token: pytest.fail(f"{token} in the summary"))


def test_kernel_where_the_series_overflowed_is_finite(capsys):
    # the terms of the series at y = +-20 overflow a float, so summing them exited 3;
    # the product gives the values of the 450-digit decimal sum
    code, out, err = run_cli(KERNEL_OVERFLOW + ["--deterministic"], capsys)
    assert code == 0 and err == ""
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert body == ["x,y,value", "0,-20,2.32424334758e-78", "0,0,2.31885293108",
                    "0,20,2.32424334758e-78"]


@pytest.mark.parametrize("args,flag", [
    pytest.param(["--n", "14", "--q", "1e400"], "--q", id="q-1e400"),
    pytest.param(["--n", "3", "--q", "1/2", "--theta", "1e5000"], "--theta", id="theta-1e5000"),
    pytest.param(["--n", "2", "--q", "1" + "0" * 5000], "--q", id="q-5001-digits"),
    pytest.param(["--n", "2", "--q", "1/2", "--qtilde", "1/" + "1_0" * 3000], "--qtilde",
                 id="qtilde-6000-digits-underscored"),
])
def test_oversized_rational_names_the_flag(args, flag, capsys):
    code, out, err = run_cli(["moments"] + args + ["--deterministic"], capsys)
    assert code == 2
    assert out == "" and err.startswith(f"error: {flag} is too large")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("argv", [
    pytest.param(["zn", "--n", "1", "--beta", "1000", "--q", "0.5", "--qtilde", "0.25"], id="zn"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta", "1e6", "--samples", "2",
                  "--n-max", "30"], id="compare-1e6"),
    pytest.param(["compare", "--N", "8", "--k", "1", "--theta=-1e6", "--samples", "2",
                  "--n-max", "30"], id="compare-minus-1e6"),
])
def test_overflow_emits_no_runtime_warning(argv, capsys):
    # the overflow is reported by exit 3, not by numpy on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(argv + ["--deterministic"], capsys)
    assert code == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "Warning" not in err


def test_zn_overflow_is_nonconvergence(capsys):
    code, out, err = run_cli(["zn", "--n", "1", "--beta", "1000", "--q", "0.5",
                              "--qtilde", "0.25", "--deterministic"], capsys)
    assert code == 3
    assert "inf" not in out and "nan" not in out


@pytest.mark.parametrize("theta", ["1e6", "-1e6"])
def test_compare_overflow_is_nonconvergence(theta, capsys):
    # at the |theta| cap an order near 30 overflows the stderr column to inf
    code, out, err = run_cli(["compare", "--N", "8", "--k", "1", f"--theta={theta}",
                              "--samples", "2", "--n-max", "30", "--deterministic"], capsys)
    assert code == 3
    assert out == "" and "overflows a float" in err


def test_moments_overflow_is_nonconvergence(capsys):
    # m_1 = theta = 1e400 does not fit a float
    code, out, err = run_cli(["moments", "--n", "2", "--theta", "1e400", "--deterministic"], capsys)
    assert code == 3
    assert out == "" and "overflows a float" in err


def test_timestamp_suppression(capsys):
    _, with_ts, _ = run_cli(["density", "--q", "0", "--grid", "3"], capsys)
    assert "# timestamp=" in with_ts
    _, without_ts, _ = run_cli(["density", "--q", "0", "--grid", "3", "--deterministic"], capsys)
    assert "# timestamp=" not in without_ts


# ---------------------------------------------------------------------------
# the parser builds only the invoked subcommand's arguments; the full parser,
# every subcommand named, is its oracle
# ---------------------------------------------------------------------------

SUBCOMMANDS = [name for name, *_ in cli._subcommands()]
VALID_ARGV = {
    "moments": ["moments", "--n", "6", "--N", "26", "--p", "4", "--k", "2", "--theta", "5"],
    "mixed": ["mixed", "--word", "xdxd", "--deterministic"],
    "ed": ["ed", "--N", "16", "--k", "2", "--samples", "10", "--phase-thetas", "1,2,3,5"],
    "compare": ["compare", "--N", "16", "--k", "2", "--theta", "5", "--n-max", "4",
                "--out", "cmp.csv"],
    "density": ["density", "--q", "0.5", "--grid", "400", "--kernel-r", "0.6"],
    "freeconv": ["freeconv", "--r", "0.25", "--theta", "3", "--summary", "s.json"],
    "qtilde": ["qtilde", "--N", "26", "--p", "4", "--k", "2"],
    "zn": ["zn", "--n", "2", "--beta", "1", "--q", "0.5", "--qtilde", "0.25"],
}


def _parse(parser, argv, capsys):
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", [["-h"]] + [[name, "-h"] for name in SUBCOMMANDS]
                         + list(VALID_ARGV.values()) + [
    ["zn", "--n", "1", "--beta", "1", "--q", "0.5", "--qtilde", "0.25", "--bogus"],  # unknown flag
    ["zn", "--n", "1", "--beta", "1", "--q", "0.5"],  # missing required flag
    ["mom", "--n", "3"],  # abbreviated subcommand
    ["qtilde", "--N", "26", "--p", "4", "--k", "2", "stray"],  # stray positional
    ["mixed", "--word", "zn"],  # another subcommand's name as a value
    [],
])
def test_lazy_parser_matches_the_full_parser(argv, capsys):
    lazy = _parse(cli.build_parser(argv), argv, capsys)
    full = _parse(cli.build_parser(SUBCOMMANDS), argv, capsys)
    assert lazy == full
    assert full[1] or full[2] or full[0].subcommand == argv[0]


def test_parser_builds_only_the_invoked_subcommand():
    parser = cli.build_parser(VALID_ARGV["zn"])
    [subparsers] = parser._subparsers._group_actions
    assert list(subparsers.choices) == SUBCOMMANDS
    built = {name for name, sub in subparsers.choices.items() if sub is not None}
    assert built == {"zn"}
    assert len(subparsers.choices["zn"]._actions) > 1


TOP_USAGE = "usage: dssyklab [-h] {moments,mixed,ed,compare,density,freeconv,qtilde,zn} ...\n"
TOP_HELP = TOP_USAGE + """
moment laboratory for the defect-perturbed model

positional arguments:
  {moments,mixed,ed,compare,density,freeconv,qtilde,zn}
    moments             exact or specialized moment table
    mixed               mixed moment of a word over {x,d}
    ed                  sample spectra (or a phase scan) at finite N
    compare             analytic vs empirical reduced moments
    density             q-Gaussian density (or conditional kernel) samples
    freeconv            two-atom measure (+) semicircle density
    qtilde              exact finite-size wall weight
    zn                  n-boundary partition function

options:
  -h, --help            show this help message and exit
"""
ZN_HELP = """usage: dssyklab zn [-h] --n N --beta BETA --q Q --qtilde QTILDE [--out OUT]
                   [--deterministic]

options:
  -h, --help       show this help message and exit
  --n N
  --beta BETA
  --q Q
  --qtilde QTILDE
  --out OUT        output path ('-' or omit for stdout)
  --deterministic  suppress the timestamp metadata line
"""


@pytest.mark.parametrize("argv,code,out,err", [
    pytest.param(["--help"], 0, TOP_HELP, "", id="help"),
    pytest.param(["zn", "--help"], 0, ZN_HELP, "", id="zn-help"),
    pytest.param(["mom", "--n", "3"], 2, "", TOP_USAGE + (
        "dssyklab: error: argument subcommand: invalid choice: 'mom' (choose from 'moments', "
        "'mixed', 'ed', 'compare', 'density', 'freeconv', 'qtilde', 'zn')\n"), id="invalid-choice"),
    pytest.param([], 2, "", TOP_USAGE + (
        "dssyklab: error: the following arguments are required: subcommand\n"),
        id="missing-subcommand"),
])
def test_parser_output_pinned(argv, code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (code, out, err)
