"""Command-line driver: exit codes, report layout, determinism."""

import csv
import dataclasses
import functools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from todalab import suites
from todalab.cli import main
from todalab.suites import RunConfig, build_param_sets, run_suites


def run_cli(args):
    return main(args)


def test_unknown_suite_exits_2(tmp_path, capsys):
    code = run_cli(["verify", "--config", str(tmp_path / "missing.json")])
    assert code == 2


@pytest.mark.parametrize("args", [["verify", "--n", "abc"], ["verify", "--suite", "bogus"], []],
                         ids=["mistyped-n", "unknown-suite", "no-command"])
def test_argument_error_exits_2_with_one_line(capsys, args):
    # An argument the parser refuses takes the one configuration-error route,
    # without argparse's usage block.
    assert run_cli(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:") and len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_bad_suite_name_in_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["nope"]}))
    code = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2


def test_identities_suite_exit_zero(tmp_path, capsys):
    out = tmp_path / "rep"
    code = run_cli(["verify", "--suite", "identities", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "[PASS]" in captured
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_pass"] is True
    assert summary["failed"] == 0
    assert (out / "identities_detail.csv").exists()
    assert (out / "metadata.json").exists()


def test_summary_excludes_runtimes(tmp_path):
    out = tmp_path / "rep"
    run_cli(["verify", "--suite", "identities", "--out", str(out)])
    text = (out / "summary.json").read_text()
    assert "runtime" not in text
    meta = json.loads((out / "metadata.json").read_text())
    assert "runtimes" in meta and "generated" in meta


def test_determinism_byte_identical(tmp_path):
    args = ["verify", "--suite", "identities", "--suite", "mass",
            "--n", "1", "--count", "1", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    for name in ("summary.json", "identities_detail.csv", "mass_detail.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# The benchmark's three commands: the default run, far field at n = 5 and the grid at n = 4.
BENCHMARK_COMMANDS = [
    [],
    ["--suite", "asymptotics", "--suite", "mass", "--suite", "t-integrals", "--n", "5", "--count", "2"],
    ["--suite", "pde", "--n", "4", "--count", "2"],
]


def test_runs_import_neither_numpy_random_nor_polynomial_nor_openssl(tmp_path):
    # A fresh interpreter runs each command, then lists which of these
    # modules it loaded: numpy.random brings secrets and hashlib, whose
    # OpenSSL alone adds about 3.6 MB of peak RSS.
    script = (
        "import json, sys\n"
        "from todalab.cli import main\n"
        f"for k, args in enumerate({BENCHMARK_COMMANDS!r}):\n"
        f"    assert main(['verify', *args, '--seed', '3', '--out', {str(tmp_path)!r} + f'/{{k}}']) == 0\n"
        "print(json.dumps(sorted(m for m in ('numpy.random', 'numpy.polynomial', 'secrets', '_hashlib')"
        " if m in sys.modules)))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_blas_threads_leave_the_grid_reports_unchanged(tmp_path):
    # Contract 10 across BLAS thread counts: every matrix product of the kernel
    # stays under solution.PRODUCT_SIZE multiply-adds, where OpenBLAS keeps it
    # on one thread, so a grid run writes the same summary.json under
    # OPENBLAS_NUM_THREADS=1 and =2, and the kernel the same bits on a window
    # at n = 5 with every kernel direction and a value block of 4 M values
    # (products of up to 3e8 multiply-adds there give other bits on 2 threads).
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / threads
        args = ["verify", "--suite", "pde", "--suite", "linearized", "--n", "4", "--count", "1",
                "--grid-h", "5e-2", "--seed", "3", "--out", str(out)]
        script = (
            "import sys\nimport numpy as np\nfrom todalab.cli import main\n"
            "from todalab.solution import Grid, kernel_directions, log_det_k_tangent,"
            " sample_params\n"
            "axis = np.linspace(-2.0, 2.0, 801)\n"
            "values = log_det_k_tangent(sample_params(5, 3, 0.3, 3.0), kernel_directions(5),\n"
            "                           Grid(axis[:24], axis), work=np.empty(2**22))\n"
            f"np.save({str(out) + '.npy'!r}, np.concatenate([v.ravel() for v in values]))\n"
            f"sys.exit(main({args!r}))\n")
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
        assert done.returncode in (0, 1), done.stderr
        outputs.append((done.returncode, (out / "summary.json").read_bytes(),
                        Path(str(out) + ".npy").read_bytes()))
    assert outputs[0] == outputs[1]


def test_params_file_round(tmp_path):
    params = {"n": 1, "lambdas": [1.0, 1.0],
              "coeffs": [{"i": 1, "j": 0, "re": 0.1, "im": -0.2}]}
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(params))
    out = tmp_path / "rep"
    code = run_cli(["verify", "--suite", "mass", "--params-file", str(pfile),
                    "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["params_file"] == str(pfile)
    assert any(c["case_id"].startswith("file-n1") for c in summary["cases"])


def test_show_params(tmp_path, capsys):
    code = run_cli(["show-params", "--n", "1", "--count", "1", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "n1-seed0" in out
    assert '"lambdas"' in out


def test_plot_data_missing_dir(tmp_path, capsys):
    code = run_cli(["plot-data", "--out", str(tmp_path / "nothing")])
    assert code == 2


def test_plot_data_out_is_a_file_exits_2(tmp_path, capsys):
    report = tmp_path / "report.txt"
    report.write_text("not a directory\n")
    assert run_cli(["plot-data", "--out", str(report)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_plot_data_detail_without_label_column_exits_2(tmp_path, capsys):
    (tmp_path / "pde_detail.csv").write_text("h,max_residual\n0.01,1e-05\n")
    assert run_cli(["plot-data", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "label" in err[0]


def test_plot_data_emits_csvs(tmp_path, capsys):
    out = tmp_path / "rep"
    run_cli(["verify", "--suite", "pde", "--n", "1", "--count", "1",
             "--grid-h", "0.04", "--out", str(out)])
    code = run_cli(["plot-data", "--out", str(out)])
    assert code == 0
    plots = out / "plots"
    # The far-field errors are asymptotics_detail.csv as it stands: no copy.
    assert [path.name for path in plots.iterdir()] == ["residual_vs_h.csv"]
    residual_csv = (plots / "residual_vs_h.csv").read_text().splitlines()
    assert residual_csv[0] == "suite,label,h,max_residual"
    assert len(residual_csv) > 1


def test_rows_of_far_field_errors_are_distinct(tmp_path, capsys):
    out = tmp_path / "rep"
    run_cli(["verify", "--suite", "asymptotics", "--n", "2", "--count", "2",
             "--out", str(out)])
    with (out / "asymptotics_detail.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    keys = [(row["label"], row["check"], row["m"], row["which"]) for row in rows]
    assert len(keys) > 1 and len(set(keys)) == len(keys)
    # Each set's checks are read at its own R = R_FAR L, which the table carries.
    radii = {row["label"]: row["r"] for row in rows}
    assert len(radii) == 2 and len(set(radii.values())) == 2
    assert len({(row["label"], row["r"]) for row in rows}) == 2


def test_failing_tolerance_exits_1(tmp_path, monkeypatch):
    # No mass verdict is exact to the last bit.
    monkeypatch.setattr(suites, "MASS_REL", 0.0)
    out = tmp_path / "rep"
    code = run_cli(["verify", "--suite", "mass", "--n", "1", "--count", "1", "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] >= 1


def test_t_integral_radii_follow_a_dilated_bubble(tmp_path):
    # The sphere rule is centred on the solution's length scale, so a bubble
    # 100 times wider passes as the default one does.
    out = tmp_path / "rep"
    assert run_cli(["verify", "--suite", "t-integrals", "--n", "3", "--dilation", "100",
                    "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["total"] == 8


# Each pinned tolerance in todalab.suites, its value, and the suite it decides.
TOLERANCES = {
    "PDE_ORDER_CENTER": (2.0, "pde"),
    "PDE_ORDER_SLACK": (0.5, "pde"),
    "LINEARIZED_MAX_RESIDUAL": (1e-3, "linearized"),
    "MASS_REL": (1e-5, "mass"),
    "FIRST_FREQUENCY_REL": (1e-7, "asymptotics"),
    "KERNEL_SIGNATURE_REL": (1e-7, "asymptotics"),
    "LEADING_COEFFICIENT_REL": (1e-7, "asymptotics"),
    "CONSTANT_TERM_REL": (1e-7, "asymptotics"),
    "T_INTEGRAL_REL": (1e-12, "t-integrals"),
}
# A value no passing case meets; 1e-300 for the rest.
EXTREME_TOLERANCES = {"PDE_ORDER_CENTER": 10.0}


@functools.lru_cache(maxsize=None)
def _suite_cases(suite: str, name: str | None = None) -> dict:
    cfg = RunConfig(suites=[suite], n=2, count=1, grid_h=0.04)
    with pytest.MonkeyPatch.context() as mp:
        if name:
            mp.setattr(suites, name, EXTREME_TOLERANCES.get(name, 1e-300))
        return {c.case_id: c.passed for c in run_suites(cfg)[0]}


@pytest.mark.parametrize("name", sorted(TOLERANCES), ids=str.lower)
def test_every_tolerance_key_decides_a_verdict(name):
    pinned, suite = TOLERANCES[name]
    assert getattr(suites, name) == pinned
    default, extreme = _suite_cases(suite), _suite_cases(suite, name)
    assert any(default[case_id] and not passed for case_id, passed in extreme.items())


def test_every_asymptotics_verdict_is_decided(tmp_path):
    out = tmp_path / "rep"
    assert run_cli(["verify", "--suite", "asymptotics", "--n", "2", "--count", "1",
                    "--out", str(out)]) == 0
    cases = json.loads((out / "summary.json").read_text())["cases"]
    assert any("-const-term-" in c["case_id"] for c in cases)
    assert all(c["tolerance"] is not None for c in cases)
    assert not any(c["case_id"].endswith("-info") for c in cases)


def test_run_config_defaults_and_param_sets():
    cfg = RunConfig(suites=["identities"], n=2, count=3, seed=5)
    sets = build_param_sets(cfg)
    assert [label for label, _ in sets] == ["n2-seed5", "n2-seed6", "n2-seed7"]
    with pytest.raises(ValueError):
        RunConfig(suites=["bogus"])


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radus": 5}))
    code = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "radus" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


def test_unknown_tolerance_key_exits_2(tmp_path, capsys):
    # Verdict tolerances are pinned, so a config may not set any of them.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["identities"],
                               "tolerances": {"mass_flux_rel": 1.0}}))
    code = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert "tolerances" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"fields of\s+`todalab\.suites\.RunConfig`\s+\(([^)]*)\)", readme)
    assert listed is not None
    keys = set(re.findall(r"`(\w+)`", listed.group(1)))
    assert keys == {f.name for f in dataclasses.fields(RunConfig)}


@pytest.mark.parametrize("settings,name", [
    ({"n": 2.5}, "n"),
    ({"count": True}, "count"),
    ({"seed": "0"}, "seed"),
    ({"dilation": "1e3"}, "dilation"),
    ({"magnitude": "x"}, "magnitude"),
    ({"grid_h": False}, "grid_h"),
    ({"seed": None}, "seed"),
    ({"suites": "pde"}, "str"),
    # JSON integers past float range.
    ({"dilation": 10**400}, "dilation"),
    ({"magnitude": 10**400}, "magnitude"),
    # Paths that are not strings; out_dir is then not overridden by --out.
    ({"params_file": 5}, "params_file"),
    ({"params_file": ["a"]}, "params_file"),
    ({"out_dir": 5}, "out_dir"),
    # Negative counts and seeds.
    ({"count": -3}, "count"),
    ({"seed": -1}, "seed"),
    # Too coarse for a grid of 3 points, even where no grid suite runs.
    ({"grid_h": 100}, "grid_h"),
    # No system has fewer than one equation.
    ({"n": 0}, "n must be >= 1"),
    ({"n": -1}, "n must be >= 1"),
    ({"n": -2}, "n must be >= 1"),
])
def test_mistyped_config_value_exits_2(tmp_path, capsys, settings, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["mass"], "count": 1, **settings}))
    out = [] if "out_dir" in settings else ["--out", str(tmp_path / "r")]
    code = run_cli(["verify", "--config", str(cfg), *out])
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command", ["verify", "show-params"])
def test_n_below_one_exits_2(tmp_path, capsys, command):
    out = tmp_path / "rep"
    assert run_cli([command, "--n", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "configuration error: n must be >= 1, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "show-params"])
@pytest.mark.parametrize("n", [18, 40])
def test_n_past_the_lambda_product_range_exits_2(tmp_path, capsys, command, n):
    # From n = 18 the product 2^(-n(n+1)) prod (j-i+1)^-2 underflows to 0.0,
    # and the one line says so instead of "math domain error".
    out = tmp_path / "rep"
    assert run_cli([command, "--n", str(n), "--suite", "identities", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"configuration error: n = {n}: "
                   "the lambda product target underflows to 0.0 (n <= 17)\n")
    assert not out.exists()
    assert run_cli(["verify", "--n", "17", "--suite", "identities", "--out", str(out)]) == 0


def test_repeated_suite_exits_2(tmp_path, capsys):
    out = tmp_path / "r"
    code = run_cli(["verify", "--suite", "identities", "--suite", "identities", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "identities" in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["--suite", "pde", "--count", "0"],
    ["--suite", "t-integrals", "--n", "1"],
])
def test_run_without_cases_exits_2(tmp_path, args):
    out = tmp_path / "rep"
    assert run_cli(["verify", *args, "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


def test_nan_lambda_params_file_exits_2(tmp_path):
    pfile = tmp_path / "p.json"
    pfile.write_text('{"n": 1, "lambdas": [NaN, 1.0], "coeffs": []}')
    code = run_cli(["verify", "--suite", "mass", "--params-file", str(pfile),
                    "--out", str(tmp_path / "rep")])
    assert code == 2


@pytest.mark.parametrize("command,text", [
    pytest.param("verify", '{"n": 1, "coeffs": []}', id="no-lambdas"),
    pytest.param("verify", '[1, [1.0, 1.0]]', id="not-an-object"),
    pytest.param("verify", '{"n": 2.5, "lambdas": [1, 1, 1]}', id="fractional-n"),
    pytest.param("verify", '{"n": true, "lambdas": [1, 1]}', id="bool-n"),
    pytest.param("verify", '{"n": 1, "lambdas": 5}', id="lambdas-not-a-list"),
    pytest.param("show-params", '{"n": 2, "lambdas": "123"}', id="lambdas-a-string"),
    pytest.param("show-params", '{"n": 1, "lambdas": [true, 1]}', id="bool-lambda"),
    pytest.param("show-params", '{"n": 1, "lambdas": ["0.8", 1]}', id="string-lambda"),
    pytest.param("show-params", '{"n": 1, "lambdas": [1%s, 1]}' % ("0" * 400),
                 id="huge-int-lambda"),
    pytest.param("show-params", '{"n": 1, "lambdas": [1, 1], '
                 '"coeffs": [{"i": 1, "j": 0, "re": "0.1"}]}', id="string-re"),
    pytest.param("show-params", '{"n": 1, "lambdas": [1, 1], '
                 '"coeffs": [{"i": 1, "j": 0, "im": false}]}', id="bool-im"),
    pytest.param("verify", '{"n": 2, "lambdas": [1, 1, 1], '
                 '"coeffs": [{"i": 2.9, "j": 1, "re": 0.1}]}', id="fractional-i"),
    pytest.param("show-params", '{"n": 1, "lambdas": [NaN, 1.0]}', id="show-nan-lambda"),
    pytest.param("show-params", '{"n": 2, "lambdas": [1, 0.8, 1.2], '
                 '"coefs": [{"i": 2, "j": 0, "re": 0.1}]}', id="unknown-key"),
    pytest.param("show-params", '{"n": 1, "lambdas": [1, 1], '
                 '"coeffs": [{"i": 1, "j": 0, "Re": 0.1}]}', id="unknown-coefficient-key"),
    pytest.param("show-params", '{"n": 1, "lambdas": [1, 1], "coeffs": '
                 '[{"i": 1, "j": 0, "re": 0.1}, {"i": 1, "j": 0, "im": 0.2}]}',
                 id="repeated-coefficient"),
    pytest.param("show-params", None, id="show-missing-file"),
    pytest.param("verify", '{"n": -1, "lambdas": []}', id="negative-n"),
    pytest.param("show-params", '{"n": -1, "lambdas": []}', id="show-negative-n"),
])
def test_bad_params_file_exits_2(tmp_path, capsys, command, text):
    pfile = tmp_path / "p.json"
    if text is not None:
        pfile.write_text(text)
    out = tmp_path / "rep"
    code = run_cli([command, "--suite", "mass", "--params-file", str(pfile), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


CIRCLES_PAST_THE_DOUBLE_RANGE = [
    # c_10 = 1e306 puts the probe circle R_FAR |c_10| past the double range;
    # a c_10 of modulus 2.4e308 is past it itself.
    pytest.param({"n": 1, "lambdas": [1, 1], "coeffs": [{"i": 1, "j": 0, "re": 1e306}]},
                 id="flux-circle-past-the-double-range"),
    pytest.param({"n": 1, "lambdas": [1, 1],
                  "coeffs": [{"i": 1, "j": 0, "re": 1.7e308, "im": 1.7e308}]},
                 id="coefficient-modulus-past-the-double-range"),
]


def _assert_breakdown(tmp_path, capsys, params, suite):
    """verify --suite <suite> on params exits 2 with one numerical-breakdown line."""
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(params))
    out = tmp_path / "rep"
    code = run_cli(["verify", "--suite", suite, "--params-file", str(pfile),
                    "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("params", [
    # |P_i|^2 overflows: log_det_k finds a non-finite det_k.
    {"n": 2, "lambdas": [1, 1, 1], "coeffs": [{"i": 1, "j": 0, "re": 1e200},
                                              {"i": 2, "j": 0, "re": 1e200},
                                              {"i": 2, "j": 1, "re": 1e200}]},
    # e^{U_1} underflows to 0 everywhere: the quadrature mass is 0.
    {"n": 1, "lambdas": [1, 1], "coeffs": [{"i": 1, "j": 0, "re": 1e300}]},
    *CIRCLES_PAST_THE_DOUBLE_RANGE,
])
def test_numeric_breakdown_exits_2(tmp_path, capsys, params):
    _assert_breakdown(tmp_path, capsys, params, "mass")


@pytest.mark.parametrize("params", CIRCLES_PAST_THE_DOUBLE_RANGE)
def test_far_field_circle_past_the_double_range_exits_2(tmp_path, capsys, params):
    # The far-field circle is the flux circle, so it breaks down the same
    # way, before any sample reaches the kernel (no RuntimeWarning).
    _assert_breakdown(tmp_path, capsys, params, "asymptotics")


def test_mass_passes_on_a_bubble_of_radius_1e160(tmp_path):
    # A bubble of scale L = 1e160: C_1 = e^{U_1} r^4 at infinity is 4e320,
    # past the double range, but the flux circle follows the bubble to
    # R = R_FAR L = 1e6 L, where the tail pi C_1 / R^2 is 1.3e-11.
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps({"n": 1, "lambdas": [1e160, 1e-160], "coeffs": []}))
    out = tmp_path / "rep"
    assert run_cli(["verify", "--suite", "mass", "--params-file", str(pfile),
                    "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["total"] == 3


@pytest.mark.parametrize("source", ["config", "argument"])
def test_a_flux_radius_setting_exits_2(tmp_path, capsys, source):
    # The mass suite's flux radius follows the solution; no setting chooses it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"radius": 1000.0}))
    out = tmp_path / "rep"
    option = ["--config", str(cfg)] if source == "config" else ["--radius", "1000"]
    assert run_cli(["verify", "--suite", "mass", *option, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "radius" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [["--magnitude", "1e3"], ["--dilation", "1e-300"]])
def test_overflowing_sampling_exits_2_with_one_line(tmp_path, capsys, args):
    out = tmp_path / "rep"
    code = run_cli(["verify", *args, "--suite", "pde", "--n", "1", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_case_runtimes_split_across_cases(tmp_path):
    # metadata.json carries one measured wall time per selected suite.
    out = tmp_path / "rep"
    t0 = time.perf_counter()
    code = run_cli(["verify", "--suite", "asymptotics", "--suite", "linearized",
                    "--n", "1", "--count", "1", "--grid-h", "0.04", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert code == 0
    runtimes = json.loads((out / "metadata.json").read_text())["runtimes"]
    assert set(runtimes) == {"asymptotics", "linearized"}
    assert all(dt > 0 for dt in runtimes.values())
    assert sum(runtimes.values()) <= wall
