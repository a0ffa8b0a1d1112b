"""Command-line driver: exit codes, report layout, determinism."""

import csv
import functools
import json
import time

import pytest

from todalab.cli import main
from todalab.suites import DEFAULT_TOLERANCES, RunConfig, build_param_sets, run_suites


def run_cli(args):
    return main(args)


def test_unknown_suite_exits_2(tmp_path, capsys):
    code = run_cli(["verify", "--config", str(tmp_path / "missing.json")])
    assert code == 2


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


def test_plot_data_emits_csvs(tmp_path, capsys):
    out = tmp_path / "rep"
    run_cli(["verify", "--suite", "pde", "--n", "1", "--count", "1",
             "--grid-h", "0.04", "--out", str(out)])
    code = run_cli(["plot-data", "--out", str(out)])
    assert code == 0
    plots = out / "plots"
    assert (plots / "error_vs_radius.csv").exists()
    residual_csv = (plots / "residual_vs_h.csv").read_text().splitlines()
    assert residual_csv[0] == "suite,label,h,max_residual"
    assert len(residual_csv) > 1


def test_plot_rows_of_error_vs_radius_are_distinct(tmp_path, capsys):
    out = tmp_path / "rep"
    run_cli(["verify", "--suite", "asymptotics", "--n", "2", "--count", "2",
             "--out", str(out)])
    assert run_cli(["plot-data", "--out", str(out)]) == 0
    with (out / "plots" / "error_vs_radius.csv").open() as fh:
        keys = [(row["label"], row["check"], row["m"], row["which"])
                for row in csv.DictReader(fh)]
    assert len(keys) > 1 and len(set(keys)) == len(keys)


def test_failing_tolerance_exits_1(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suites": ["mass"], "n": 1, "count": 1,
        "tolerances": {"mass_flux_rel": 1e-12},
    }))
    out = tmp_path / "rep"
    code = run_cli(["verify", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] >= 1


def test_t_integral_ratio_tolerance_decides_verdict(tmp_path):
    # No partial-integral sequence shrinks by 1e9 per radius doubling.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "suites": ["t-integrals"], "n": 2, "count": 1,
        "tolerances": {"t_integral_ratio": 1e9},
    }))
    out = tmp_path / "rep"
    assert run_cli(["verify", "--config", str(cfg), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failed"] == summary["total"] == 2


# The suite each tolerance key decides, and a value no passing case meets.
TOLERANCE_SUITES = {
    "pde_order_center": "pde",
    "pde_order_slack": "pde",
    "linearized_max_residual": "linearized",
    "mass_flux_rel": "mass",
    "mass_route_agreement": "mass",
    "mass_sum_rule_rel": "mass",
    "first_frequency_rel": "asymptotics",
    "kernel_signature_rel": "asymptotics",
    "leading_coefficient_rel": "asymptotics",
    "t_integral_ratio": "t-integrals",
}
EXTREME_TOLERANCES = {"pde_order_center": 10.0, "t_integral_ratio": 1e300}


@functools.lru_cache(maxsize=None)
def _suite_cases(suite: str, key: str | None = None) -> dict:
    tolerances = {key: EXTREME_TOLERANCES.get(key, 1e-300)} if key else {}
    cfg = RunConfig(suites=[suite], n=2, count=1, grid_h=0.04, tolerances=tolerances)
    return {c.case_id: c.passed for c in run_suites(cfg)[0]}


@pytest.mark.parametrize("key", sorted(DEFAULT_TOLERANCES))
def test_every_tolerance_key_decides_a_verdict(key):
    suite = TOLERANCE_SUITES[key]
    default, extreme = _suite_cases(suite), _suite_cases(suite, key)
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
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["identities"],
                               "tolerances": {"mass_flux_rell": 1.0}}))
    code = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "mass_flux_rell" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("settings,name", [
    ({"n": 2.5}, "n"),
    ({"count": True}, "count"),
    ({"seed": "0"}, "seed"),
    ({"radius": "1e3"}, "radius"),
    ({"tolerances": {"mass_flux_rel": "x"}}, "mass_flux_rel"),
    ({"tolerances": {"mass_flux_rel": False}}, "mass_flux_rel"),
    # A non-positive shrink ratio would pass every T-integral.
    ({"tolerances": {"t_integral_ratio": -1.5}}, "t_integral_ratio"),
])
def test_mistyped_config_value_exits_2(tmp_path, capsys, settings, name):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suites": ["mass"], "count": 1, **settings}))
    code = run_cli(["verify", "--config", str(cfg), "--out", str(tmp_path / "r")])
    assert code == 2
    err = capsys.readouterr().err
    assert name in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "r").exists()


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
    pytest.param("verify", '{"n": 2, "lambdas": [1, 1, 1], '
                 '"coeffs": [{"i": 2.9, "j": 1, "re": 0.1}]}', id="fractional-i"),
    pytest.param("show-params", '{"n": 1, "lambdas": [NaN, 1.0]}', id="show-nan-lambda"),
    pytest.param("show-params", None, id="show-missing-file"),
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


@pytest.mark.parametrize("params", [
    # |P_i|^2 overflows: log_det_k finds a non-finite det_k.
    {"n": 2, "lambdas": [1, 1, 1], "coeffs": [{"i": 1, "j": 0, "re": 1e200},
                                              {"i": 2, "j": 0, "re": 1e200},
                                              {"i": 2, "j": 1, "re": 1e200}]},
    # e^{U_1} underflows to 0 everywhere: the quadrature mass is 0.
    {"n": 1, "lambdas": [1, 1], "coeffs": [{"i": 1, "j": 0, "re": 1e300}]},
])
def test_numeric_breakdown_exits_2(tmp_path, capsys, params):
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(params))
    out = tmp_path / "rep"
    code = run_cli(["verify", "--suite", "mass", "--params-file", str(pfile),
                    "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical breakdown:") and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_negative_radius_exits_2(tmp_path):
    code = run_cli(["verify", "--suite", "mass", "--n", "1", "--count", "1",
                    "--radius", "-1000", "--out", str(tmp_path / "rep")])
    assert code == 2


def test_case_runtimes_split_across_cases(tmp_path):
    out = tmp_path / "rep"
    t0 = time.perf_counter()
    code = run_cli(["verify", "--suite", "asymptotics", "--suite", "linearized",
                    "--n", "1", "--count", "1", "--grid-h", "0.04", "--out", str(out)])
    wall = time.perf_counter() - t0
    assert code == 0
    runtimes = json.loads((out / "metadata.json").read_text())["runtimes"]
    assert any(key.endswith("-order") for key in runtimes)
    assert any("-freq1-" in key for key in runtimes)
    assert all(dt > 0 for dt in runtimes.values())
    assert sum(runtimes.values()) <= wall
    # One linearized call serves both n=1 directions: its time is split
    # evenly over their residual and order cases.
    linearized = [dt for key, dt in runtimes.items()
                  if key.endswith(("-residual", "-order"))]
    assert len(linearized) == 2 * 2
    assert len(set(linearized)) == 1
