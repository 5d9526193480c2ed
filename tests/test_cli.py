import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import densefield
import densefield.cli as cli
import densefield.sim as sim_mod
from densefield import ConvergenceError


def run_cli(args, capsys=None):
    code = cli.main(args)
    if capsys is None:
        return code, ""
    return code, capsys.readouterr().out


class TestPmaxCurve:
    def test_csv_schema_and_infeasible_flag(self, capsys):
        code, out = run_cli(["pmax-curve", "--model", "exp", "--n", "2,64"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "N,p_max,p_max_over_n,feasible"
        assert lines[2] == "2,nan,nan,false"
        n64 = lines[3].split(",")
        assert n64[0] == "64" and n64[3] == "true"
        assert float(n64[1]) > 0

    def test_ratio_column_consistency(self, capsys):
        code, out = run_cli(["pmax-curve", "--model", "sinc", "--n", "64,128"], capsys)
        rows = [l.split(",") for l in out.strip().split("\n")[2:]]
        for row in rows:
            assert float(row[2]) == pytest.approx(float(row[1]) / int(row[0]),
                                                  rel=1e-12)

    def test_sinc_slopes_stay_within_band(self, capsys):
        code, out = run_cli(["pmax-curve", "--model", "sinc", "--n", "64,128,256"],
                            capsys)
        slopes = [float(l.split(",")[2]) for l in out.strip().split("\n")[2:]]
        assert max(slopes) / min(slopes) < 1.3

    def test_exp_pmax_monotone(self, capsys):
        code, out = run_cli(["pmax-curve", "--model", "exp", "--n", "32,64,128"],
                            capsys)
        pmax = [float(l.split(",")[1]) for l in out.strip().split("\n")[2:]]
        assert pmax == sorted(pmax)

    def test_json_format(self, capsys):
        code, out = run_cli(["pmax-curve", "--model", "exp", "--n", "16",
                             "--format", "json"], capsys)
        obj = json.loads(out)
        assert obj["rows"][0]["N"] == 16
        assert obj["config"]["model"] == "exp"

    def test_missing_n_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pmax-curve", "--model", "exp"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [["--n", "64", "--n-range", "128:256:128"],
                                       ["--n", "64", "--n", "128"]])
    def test_more_than_one_n_flag_is_usage_error(self, flags, capsys):
        # neither flag may silently override the other
        with pytest.raises(SystemExit) as exc:
            cli.main(["rates", "--model", "exp", *flags])
        assert exc.value.code == 2
        assert "give one --n or one --n-range" in capsys.readouterr().err

    def test_bad_n_range_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pmax-curve", "--model", "exp", "--n-range", "10-20"])
        assert exc.value.code == 2

    def test_n_range_expansion(self, capsys):
        code, out = run_cli(["pmax-curve", "--model", "exp",
                             "--n-range", "16:48:16"], capsys)
        ns = [int(l.split(",")[0]) for l in out.strip().split("\n")[2:]]
        assert ns == [16, 32, 48]


class TestRates:
    def test_csv_schema(self, capsys):
        code, out = run_cli(["rates", "--model", "exp", "--n", "16,32"], capsys)
        lines = out.strip().split("\n")
        assert lines[1] == ("N,d_prime,d_double_prime,p_max,dsc_rate_nats,"
                            "centralized_rate_nats,loss_bound_nats,feasible")
        assert len(lines) == 4

    def test_csv_schema_and_units(self, capsys):
        _, text = run_cli(["rates", "--model", "exp", "--n", "8,32"], capsys)
        lines = text.strip().split("\n")[1:]
        assert lines[0] == ("N,d_prime,d_double_prime,p_max,dsc_rate_nats,"
                            "centralized_rate_nats,loss_bound_nats,feasible")
        assert lines[1].endswith(",false") and "nan" in lines[1]
        assert lines[2].endswith(",true")
        _, bits = run_cli(["rates", "--model", "exp", "--n", "8,32", "--units", "bits"],
                          capsys)
        bits = bits.strip().split("\n")[1:]
        assert "dsc_rate_bits" in bits[0]
        nats_rate = float(lines[2].split(",")[4])
        bits_rate = float(bits[2].split(",")[4])
        assert bits_rate == pytest.approx(nats_rate / np.log(2), rel=1e-12)

    def test_centralized_below_distributed_every_row(self, capsys):
        code, out = run_cli(["rates", "--model", "sinc", "--n", "50,150,300"], capsys)
        for line in out.strip().split("\n")[2:]:
            parts = line.split(",")
            assert parts[-1] == "true"
            assert float(parts[5]) <= float(parts[4])

    def test_bits_flag_scales_by_log2(self, capsys):
        code, nats_out = run_cli(["rates", "--model", "exp", "--n", "32",
                                  "--format", "json"], capsys)
        code, bits_out = run_cli(["rates", "--model", "exp", "--n", "32",
                                  "--units", "bits", "--format", "json"], capsys)
        nats = json.loads(nats_out)["rows"][0]["dsc_rate"]
        bits = json.loads(bits_out)["rows"][0]["dsc_rate"]
        assert bits == pytest.approx(nats / np.log(2), rel=1e-12)

    def test_bits_rename_in_csv_header(self, capsys):
        code, out = run_cli(["rates", "--model", "exp", "--n", "32",
                             "--units", "bits"], capsys)
        assert "dsc_rate_bits" in out.strip().split("\n")[1]

    def test_non_psd_table_exits_3(self, capsys, tmp_path):
        tau = np.linspace(0.0, 1.0, 1001)
        path = tmp_path / "box.csv"
        np.savetxt(path, np.column_stack([tau, (tau < 0.3).astype(float)]),
                   delimiter=",")
        code, out = run_cli(["rates", "--model", f"table:{path}", "--n", "64"], capsys)
        assert code == 3 and out == ""


class TestSharedChain:
    @pytest.mark.parametrize("model,n", [("exp", 64), ("exp", 128), ("sinc", 64)])
    def test_pmax_agrees_across_commands(self, model, n, capsys):
        common = ["--model", model, "--n", str(n), "--dnet", "0.1"]
        _, out = run_cli(["pmax-curve", *common], capsys)
        from_pmax = float(out.strip().split("\n")[2].split(",")[1])
        _, out = run_cli(["rates", *common], capsys)
        from_rates = float(out.strip().split("\n")[2].split(",")[3])
        assert from_pmax == from_rates
        if model == "exp":
            _, out = run_cli(["simulate", "--scheme", "dsc", *common, "--m", "50"],
                             capsys)
            assert json.loads(out)["resolved"]["p"] == from_pmax


@pytest.mark.parametrize("units", ["nats", "bits"])
@pytest.mark.parametrize("command", ["pmax-curve", "rates"])
def test_csv_cells_match_json_values(command, units, capsys):
    # one row writer: nan is null, true/false the bool, and a float cell
    # parses to the JSON value's double; pmax-curve prints no rate, so it
    # takes no --units
    args = [command, "--model", "exp", "--n", "2,64"]
    if command == "rates":
        args += ["--units", units]
    _, text = run_cli(args, capsys)
    _, body = run_cli([*args, "--format", "json"], capsys)
    header, *lines = text.strip().split("\n")[1:]
    rows = json.loads(body)["rows"]
    assert len(lines) == len(rows) == 2
    # the JSON key of each column: rates' rate columns carry the unit
    keys = [c.removesuffix(f"_{units}") for c in header.split(",")]
    assert set(keys) == set(rows[0]) - {"theta", "units"}
    for line, row in zip(lines, rows):
        for cell, key in zip(line.split(","), keys, strict=True):
            value = row[key]
            if value is None:
                assert cell == "nan"
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, float):
                assert float(cell).hex() == value.hex()
            else:
                assert cell == str(value)


@pytest.mark.parametrize("command", ["pmax-curve", "rates"])
def test_infeasible_json_row_is_null_not_nan(command, capsys):
    code, out = run_cli([command, "--model", "exp", "--n", "2,64", "--format", "json"],
                        capsys)

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(out, parse_constant=refuse)["rows"]
    assert code == 0 and [r["feasible"] for r in rows] == [False, True]
    assert rows[0]["p_max"] is None and rows[1]["p_max"] > 0
    if command == "rates":
        assert {k for k, v in rows[0].items() if v is None} == {
            "d_prime", "d_double_prime", "p_max", "dsc_rate", "centralized_rate"}
        assert rows[0]["loss_bound"] == rows[1]["loss_bound"]


def test_cli_import_skips_scipy_linalg_and_optimize():
    # no scipy module at all, and the exp-markov rate chain loads none either
    src = os.path.dirname(os.path.dirname(cli.__file__))
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = (f"import os, sys, densefield.cli; print({loaded}); "
            "densefield.cli.main(['rates', '--model', 'exp', '--n', '64,256', "
            f"'--out', os.devnull]); print({loaded})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


def test_p2p_commands_load_no_scipy():
    # the Lloyd-Max design takes its normal CDF and quantile from the
    # standard library, so neither p2p command loads a scipy module
    src = os.path.dirname(os.path.dirname(cli.__file__))
    loaded = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
    code = ("import os, sys, densefield.cli; "
            "densefield.cli.main(['p2p', '--model', 'exp', '--dnet', '0.1', "
            "'--out', os.devnull]); "
            f"print({loaded}); "
            "densefield.cli.main(['simulate', '--scheme', 'p2p', '--model', 'exp', "
            "'--n', '48', '--m-prime', '50', '--out', os.devnull]); "
            f"print({loaded})")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.split("\n") == ["[]", "[]", ""]


def test_every_sinc_subcommand_loads_no_scipy():
    # the sinc spectrum is numpy subspace iteration, so no command loads scipy
    src = os.path.dirname(os.path.dirname(cli.__file__))
    commands = [
        ["rates", "--model", "sinc", "--n", "64,2048"],
        ["pmax-curve", "--model", "sinc", "--n-range", "16:256:16"],
        ["p2p", "--model", "sinc", "--dnet", "0.1"],
        ["simulate", "--scheme", "dsc", "--model", "sinc", "--n", "32", "--m", "50"],
        ["simulate", "--scheme", "dsc", "--model", "sinc", "--n", "32", "--m", "50",
         "--naive"],
        ["simulate", "--scheme", "p2p", "--model", "sinc", "--n", "48",
         "--m-prime", "50"],
    ]
    code = ("import os, sys, densefield.cli\n"
            f"for args in {commands!r}:\n"
            "    assert densefield.cli.main(args + ['--out', os.devnull]) == 0, args\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout == "[]\n"


def _child_env(timeout):
    # the pytest parent holds OPENBLAS_THREAD_TIMEOUT once it has imported
    # densefield, so each child starts without it unless the test sets one
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout
    return env


@pytest.mark.parametrize("given, seen", [(None, "20"), ("7", "7")])
def test_blas_thread_timeout_is_set_before_numpy_loads(given, seen):
    # OpenBLAS reads the variable only when its library loads, so record it at
    # the first lookup of numpy, which `rates` makes (`import densefield.cli`
    # alone loads no numpy); a value the user set is kept
    code = ("import os, sys\n"
            "class Probe:\n"
            "    seen = []\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not self.seen:\n"
            "            self.seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Probe())\n"
            "import densefield.cli\n"
            "densefield.cli.main(['rates', '--model', 'exp', '--n', '16',\n"
            "                     '--out', os.devnull])\n"
            "print(Probe.seen)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_child_env(given), check=True)
    assert proc.stdout == f"[{seen!r}]\n"


def test_blas_thread_timeout_changes_no_output():
    # 28 is OpenBLAS's own default spin; the shorter one must not move a byte
    commands = [
        ["rates", "--model", "sinc", "--n", "64,2048"],
        ["simulate", "--scheme", "dsc", "--model", "sinc", "--n", "64", "--m", "500"],
        ["p2p", "--model", "exp", "--dnet", "0.1"],
    ]
    for args in commands:
        outs = [subprocess.run([sys.executable, "-m", "densefield.cli", *args],
                               capture_output=True, env=_child_env(timeout),
                               check=True).stdout
                for timeout in ("28", None)]
        assert outs[0] == outs[1] and outs[0], args


def test_every_public_name_resolves():
    assert [name for name in densefield.__all__ if not hasattr(densefield, name)] == []


def test_bench_per_layer_metrics_name_public_functions():
    # the benchmark reads a traced <layer>.<fn>.<x> metric only if it wrapped
    # densefield.<layer>.<fn>, a public callable defined in that module
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    missing = []
    for metric in spec["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) != 3:
            continue
        mod = importlib.import_module(f"densefield.{parts[0]}")
        fn = getattr(mod, parts[1], None)
        if (parts[1].startswith("_") or not callable(fn) or inspect.isclass(fn)
                or getattr(fn, "__module__", None) != mod.__name__):
            missing.append(metric["name"])
    assert missing == []


@pytest.mark.parametrize("model, dnet", [("exp", "0.1"), ("sinc", "0.02")])
def test_simulate_p2p_runs_the_p2p_design(model, dnet, capsys):
    # K* = 24 and 15 divide N = 480, so both commands choose the same K
    _, out = run_cli(["p2p", "--model", model, "--dnet", dnet], capsys)
    _, sim_out = run_cli(["simulate", "--scheme", "p2p", "--model", model,
                          "--dnet", dnet, "--n", "480", "--m-prime", "20"], capsys)
    p2p, resolved = json.loads(out), json.loads(sim_out)["resolved"]
    assert (resolved["k"], resolved["levels"]) == (p2p["K_star"],
                                                   p2p["quantizer"]["levels"])
    assert resolved["sample_budget"] == p2p["sample_budget"]
    assert resolved["designed_distortion"] == p2p["quantizer"]["distortion"]


class TestP2p:
    def test_sinc_headline(self, capsys):
        code, out = run_cli(["p2p", "--model", "sinc", "--k-max", "100"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["K_star"] == 7
        assert obj["sum_rate"] == pytest.approx(11.77, abs=0.02)
        assert obj["quantizer"]["delta_bits"] < 1.0
        assert obj["quantizer"]["meets_budget"] is True

    def test_exp_headline(self, capsys):
        code, out = run_cli(["p2p", "--model", "exp", "--k-max", "200"], capsys)
        obj = json.loads(out)
        assert obj["K_star"] == 24
        assert obj["sum_rate"] == pytest.approx(46.92, abs=0.02)

    def test_per_sensor_rate_when_n_given(self, capsys):
        code, out = run_cli(["p2p", "--model", "exp", "--n", "48"], capsys)
        obj = json.loads(out)
        assert obj["per_sensor_rate"] == pytest.approx(obj["sum_rate"] / 48, rel=1e-12)

    def test_custom_table_model(self, capsys, tmp_path):
        tau = np.linspace(0.0, 1.0, 2001)
        path = tmp_path / "exp_table.csv"
        np.savetxt(path, np.column_stack([tau, np.exp(-tau)]), delimiter=",")
        code, out = run_cli(["p2p", "--model", f"table:{path}"], capsys)
        obj = json.loads(out)
        assert obj["K_star"] == 24
        assert obj["sum_rate"] == pytest.approx(46.92, abs=0.05)

    def test_units_bits(self, capsys):
        code, out = run_cli(["p2p", "--model", "sinc", "--units", "bits"], capsys)
        obj = json.loads(out)
        assert obj["sum_rate"] == pytest.approx(11.7699 / np.log(2), abs=0.03)

    def test_dnet_domain_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["p2p", "--model", "sinc", "--dnet", "1.5"])
        assert exc.value.code == 2

    def test_design_nonconvergence_exits_3(self, capsys, monkeypatch):
        def no_convergence(levels):
            raise ConvergenceError("design stalled", residual=1e-3)

        monkeypatch.setattr("densefield.quantizer.lloyd_max", no_convergence)
        code = cli.main(["p2p", "--model", "exp", "--dnet", "0.02"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "no convergence: design stalled\n"


@pytest.fixture
def box_table(tmp_path):
    # rho = 1 below lag 0.3, else 0: not positive semidefinite at N = 64
    tau = np.linspace(0.0, 1.0, 1001)
    path = tmp_path / "box.csv"
    np.savetxt(path, np.column_stack([tau, (tau < 0.3).astype(float)]), delimiter=",")
    return f"table:{path}"


@pytest.mark.parametrize("args", [
    ["pmax-curve", "--n", "64"],
    ["simulate", "--scheme", "dsc", "--n", "64", "--m", "10"],
    ["simulate", "--scheme", "dsc", "--n", "64", "--m", "10", "--p", "0.5"],
])
def test_non_psd_table_exits_3_from_pmax_curve_and_dsc(args, box_table, capsys):
    code = cli.main([*args, "--model", box_table])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("infeasible configuration: covariance is not "
                                   "positive semidefinite")


class TestSimulate:
    def test_dsc_defaults_within(self, capsys):
        code, out = run_cli(["simulate", "--scheme", "dsc", "--model", "exp",
                             "--n", "16", "--m", "2000", "--seed", "5"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["verdict"] == "within"
        assert obj["resolved"]["p"] > 0
        assert obj["config"]["m"] == 2000

    def test_p2p_defaults_within(self, capsys):
        code, out = run_cli(["simulate", "--scheme", "p2p", "--model", "exp",
                             "--n", "48", "--m-prime", "500", "--seed", "5"], capsys)
        obj = json.loads(out)
        assert code == 0
        assert obj["verdict"] == "within"
        assert obj["resolved"]["k"] == 24
        assert obj["j_mse"] <= 0.1 + 3 * obj["stderr_jmse"]

    def test_infeasible_exit_code(self, capsys):
        # N=7: no divisor of N is a feasible sub-interval count at d_net=0.1
        code, _ = run_cli(["simulate", "--scheme", "p2p", "--model", "exp",
                           "--n", "7"], capsys)
        assert code == 3

    def test_bound_violation_exit_code(self, capsys, monkeypatch):
        real = sim_mod.simulate_dsc

        def broken(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, verdict="violated-high")

        monkeypatch.setattr(sim_mod, "simulate_dsc", broken)
        code, out = run_cli(["simulate", "--scheme", "dsc", "--model", "exp",
                             "--n", "8", "--p", "0.5", "--m", "50"], capsys)
        assert code == 4
        assert json.loads(out)["verdict"] == "violated-high"

    def test_csv_log(self, capsys, tmp_path):
        log = tmp_path / "runs.csv"
        for _ in range(2):
            run_cli(["simulate", "--scheme", "dsc", "--model", "exp", "--n", "8",
                     "--p", "0.5", "--m", "100", "--csv-log", str(log)], capsys)
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 3 and lines[1] == lines[2]
        assert lines[0].startswith("scheme,")

    def test_p2p_non_psd_at_n_exits_3(self, capsys, tmp_path):
        # exp(-tau) on a 1/480 lag grid but rho(1/480) = 0.5: the 24 active
        # sensors see a PSD covariance, all 480 sensors do not
        tau = np.arange(481) / 480
        rho = np.exp(-tau)
        rho[1] = 0.5
        path = tmp_path / "dip.csv"
        np.savetxt(path, np.column_stack([tau, rho]), delimiter=",")
        code, out = run_cli(["simulate", "--scheme", "p2p", "--model", f"table:{path}",
                             "--n", "480", "--k", "24", "--m-prime", "10"], capsys)
        assert code == 3 and out == ""

    def test_default_p_infeasible_n_exits_3(self, capsys):
        # default p needs D'(N); N=8 is below the smallest feasible N for exp
        code, _ = run_cli(["simulate", "--scheme", "dsc", "--model", "exp",
                           "--n", "8", "--m", "50"], capsys)
        assert code == 3

    @pytest.mark.parametrize("args", [
        ["--scheme", "dsc", "--n", "4", "--m", "1", "--p", "0.5"],
        ["--scheme", "p2p", "--n", "24", "--k", "24", "--m-prime", "1"],
    ])
    def test_single_snapshot_exits_3(self, args, capsys):
        # one snapshot has no standard error, so no verdict can be given
        code = cli.main(["simulate", "--model", "exp", *args])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("infeasible configuration: 1 snapshot")
        assert captured.err.count("\n") == 1

    def test_dense_budget_exits_3(self, capsys):
        # a 40000 x 40000 float64 covariance is 12 GiB: refused before any
        # of it is allocated
        start = time.perf_counter()
        code = cli.main(["simulate", "--scheme", "dsc", "--model", "exp",
                         "--n", "40000", "--p", "0.5", "--m", "2"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.count("\n") == 1
        assert "N = 40000" in captured.err and "512 MiB" in captured.err
        assert elapsed < 1.0

    def test_naive_flag_small_n(self, capsys):
        code, out = run_cli(["simulate", "--scheme", "dsc", "--model", "exp",
                             "--n", "8", "--p", "0.5", "--m", "500", "--naive"],
                            capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "within"


def _usage_error(args, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    err = capsys.readouterr().err.splitlines()
    assert exc.value.code == 2
    # argparse's usage (a command's wraps over several lines), then one
    # error line from the parser that printed it
    prog = err[0].split(" [")[0].removeprefix("usage: ")
    assert err[0].startswith("usage: densefield")
    assert all(line.startswith(" ") for line in err[1:-1])
    assert err[-1].startswith(f"{prog}: error: ")
    return err[-1]


class TestModelSpec:
    def test_missing_table_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing.csv"
        err = _usage_error(["p2p", "--model", f"table:{path}"], capsys)
        assert "missing.csv" in err

    def test_one_column_table_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        np.savetxt(path, np.linspace(0.0, 1.0, 11), delimiter=",")
        err = _usage_error(["rates", "--model", f"table:{path}", "--n", "16"], capsys)
        assert "two columns" in err

    def test_three_column_table_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        tau = np.linspace(0.0, 1.0, 11)
        np.savetxt(path, np.column_stack([tau, np.exp(-tau), tau]), delimiter=",")
        err = _usage_error(["rates", "--model", f"table:{path}", "--n", "16"], capsys)
        assert "three.csv" in err and "two columns" in err

    def test_unknown_model_is_usage_error(self, capsys):
        err = _usage_error(["simulate", "--scheme", "dsc", "--model", "foo",
                            "--n", "16"], capsys)
        assert "'foo'" in err


SIM_P2P = ["simulate", "--scheme", "p2p", "--model", "exp", "--n", "48"]
SIM_DSC = ["simulate", "--scheme", "dsc", "--model", "exp", "--n", "64"]


@pytest.mark.parametrize("args,flag", [
    (["p2p", "--model", "exp"], "--n"),
    (["p2p", "--model", "exp"], "--levels"),
    (["p2p", "--model", "exp"], "--k-max"),
    (SIM_P2P, "--levels"),
    (SIM_P2P, "--k"),
    (SIM_DSC, "--p"),
    (SIM_DSC, "--seed"),
    (SIM_P2P, "--seed"),
])
def test_negative_numeric_flag_is_usage_error(args, flag, capsys):
    assert _usage_error([*args, flag, "-2"], capsys).endswith(f"{flag} must be >= 0")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_flag_is_usage_error(value, capsys):
    err = _usage_error([*SIM_DSC, f"--p={value}", "--m", "200"], capsys)
    assert err.endswith("--p must be finite")


@pytest.mark.parametrize("args", [
    [*SIM_DSC, "--k", "4"],
    ["rates", "--model", "exp", "--n", "16", "--seed", "-1"],
    ["pmax-curve", "--model", "exp", "--n-range", "10-20"],
    ["p2p", "--model", "exp", "--format", "csv"],
    ["rates", "--model", "exp", "--n", "16", "--k", "3"],
])
def test_refusal_prints_the_refused_commands_usage(args, capsys):
    # a flag refused after parsing, or one the command does not take, is the
    # command's error, as argparse's own refusals of that command's flags are
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    err = capsys.readouterr().err.splitlines()
    assert exc.value.code == 2
    assert err[0].startswith(f"usage: densefield {args[0]} ")
    assert err[-1].startswith(f"densefield {args[0]}: error: ")


@pytest.mark.parametrize("args", [["p2p", "--model", "exp"], SIM_P2P, SIM_DSC])
def test_csv_format_for_json_command_is_usage_error(args, capsys):
    # p2p and simulate write JSON only, so they take no --format at all
    err = _usage_error([*args, "--format", "csv"], capsys)
    assert err.endswith("unrecognized arguments: --format csv")


@pytest.mark.parametrize("args,flag", [
    (SIM_DSC, ["--k", "4"]),
    (SIM_DSC, ["--levels", "9"]),
    (SIM_DSC, ["--m-prime", "3"]),
    (SIM_P2P, ["--p", "0.5"]),
    (SIM_P2P, ["--m", "100"]),
    (SIM_P2P, ["--naive"]),
])
def test_flag_the_scheme_never_reads_is_usage_error(args, flag, capsys, monkeypatch):
    # refused, not echoed in the config as if it had shaped the run
    monkeypatch.setitem(cli._COMMANDS, "simulate", _no_work)
    err = _usage_error([*args, *flag], capsys)
    assert err.endswith(f"{flag[0]} is not read by --scheme {args[2]}")


SINKS = [
    (["p2p", "--model", "exp"], "--out"),
    (["rates", "--model", "exp", "--n", "16"], "--out"),
    ([*SIM_DSC, "--m", "50"], "--csv-log"),
]


def _no_work(*args):
    raise AssertionError("the command ran")


@pytest.mark.parametrize("args,flag", SINKS)
def test_sink_in_missing_directory_is_refused_before_work(args, flag, capsys,
                                                         tmp_path, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, args[0], _no_work)
    path = tmp_path / "missing" / "sink.txt"
    err = _usage_error([*args, flag, str(path)], capsys)
    assert err.endswith(f"{flag}: the directory of {str(path)!r} does not exist")
    assert not path.parent.exists()


@pytest.mark.parametrize("args,flag", SINKS)
def test_sink_that_is_a_directory_is_refused_before_work(args, flag, capsys,
                                                        tmp_path, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, args[0], _no_work)
    err = _usage_error([*args, flag, str(tmp_path)], capsys)
    assert err.endswith(f"{flag}: {str(tmp_path)!r} is a directory")


def test_refused_csv_log_leaves_out_file_untouched(capsys, tmp_path):
    out = tmp_path / "report.json"
    out.write_text("kept\n")
    _usage_error([*SIM_DSC, "--m", "50", "--out", str(out),
                  "--csv-log", str(tmp_path / "missing" / "log.csv")], capsys)
    assert out.read_text() == "kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args,flag", SINKS)
def test_sink_write_error_is_one_line_and_exit_2(args, flag, capsys):
    # /dev/full opens, then fails every write with ENOSPC
    code = cli.main([*args, flag, "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("cannot write: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def _subparsers():
    return cli.build_parser()[1]


class TestParserContract:
    # --units only where a rate is printed, --format only where CSV is one
    COMMON_USAGE = {
        "pmax-curve": "[-h] --model MODEL [--dnet DNET] [--seed SEED] [--out OUT] "
                      "[--format {csv,json}]",
        "rates": "[-h] --model MODEL [--dnet DNET] [--seed SEED] [--units {nats,bits}] "
                 "[--out OUT] [--format {csv,json}]",
        "p2p": "[-h] --model MODEL [--dnet DNET] [--seed SEED] [--units {nats,bits}] "
               "[--out OUT]",
        "simulate": "[-h] --model MODEL [--dnet DNET] [--seed SEED] [--out OUT]",
    }
    USAGE = {
        "pmax-curve": "[--n N] [--n-range N_RANGE]",
        "rates": "[--n N] [--n-range N_RANGE]",
        "p2p": "[--k-max K_MAX] [--n N] [--levels LEVELS]",
        "simulate": ("--scheme {dsc,p2p} --n N [--k K] [--p P] [--levels LEVELS] "
                     "[--m M] [--m-prime M_PRIME] [--grid-g GRID_G] [--naive] "
                     "[--csv-log CSV_LOG]"),
    }
    _HEAD_HELP = ["show this help message and exit", "sinc | exp | table:<csv path>",
                  "field distortion target in (0, 1)", None]
    _OUT_HELP = "output path (default stdout)"
    COMMON_HELP = {
        "pmax-curve": [*_HEAD_HELP, _OUT_HELP, None],
        "rates": [*_HEAD_HELP, None, _OUT_HELP, None],
        "p2p": [*_HEAD_HELP, None, _OUT_HELP],
        "simulate": [*_HEAD_HELP, _OUT_HELP],
    }
    LEVELS_HELP = "codebook size (default: smallest meeting the budget)"
    # rates' --n and --n-range and simulate's --levels are the same flags as
    # pmax-curve's and p2p's, declared once, so they show the same help
    HELP = {
        "pmax-curve": ["comma-separated sensor counts", "LO:HI:STEP sweep"],
        "rates": ["comma-separated sensor counts", "LO:HI:STEP sweep"],
        "p2p": [None, "sensor count for the per-sensor rate", LEVELS_HELP],
        "simulate": [None, None, None, None, LEVELS_HELP, None, None, None,
                     "slow full-field oracle quadrature (small N only)",
                     "append a one-line summary to this CSV file"],
    }

    @pytest.mark.parametrize("argv,given", [
        (["pmax-curve", "--model", "exp", "--n", "16"], dict(n_list=(16,), format="csv")),
        (["rates", "--model", "exp", "--n-range", "16:32:16"],
         dict(n_list=(16, 32), format="csv")),
        (["p2p", "--model", "exp"], dict(format="json")),
        (["simulate", "--model", "exp", "--scheme", "dsc", "--n", "16"],
         dict(scheme="dsc", n=16, format="json")),
    ])
    def test_required_flags_only_give_runconfig_defaults(self, argv, given):
        parser, subs = cli.build_parser()
        cfg, _ = cli._config_from_args(parser.parse_args(argv), subs[argv[0]])
        assert cfg == cli.RunConfig(command=argv[0], model="exp", **given)

    def test_every_dest_is_a_runconfig_field(self):
        names = set(cli.RunConfig._fields)
        dests = {a.dest for p in _subparsers().values() for a in p._actions
                 if a.dest != "help"}
        assert dests <= names and "command" in names

    def test_runconfig_is_immutable(self):
        cfg = cli.RunConfig(command="p2p", model="exp")
        with pytest.raises(AttributeError):
            cfg.d_net = 0.5
        assert cfg.d_net == 0.1

    def test_options_and_help_texts(self):
        subs = _subparsers()
        assert list(subs) == list(self.USAGE)
        for name, p in subs.items():
            usage = " ".join(p.format_usage().split())
            assert usage == (f"usage: densefield {name} {self.COMMON_USAGE[name]} "
                             f"{self.USAGE[name]}")
            assert [a.help for a in p._actions] == (self.COMMON_HELP[name]
                                                    + self.HELP[name])


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ["pmax-curve", "--model", "sinc", "--n", "16,32"],
        ["rates", "--model", "exp", "--n", "16,32"],
        ["p2p", "--model", "exp"],
        ["simulate", "--scheme", "dsc", "--model", "exp", "--n", "12",
         "--m", "400", "--seed", "77"],
        ["simulate", "--scheme", "p2p", "--model", "exp", "--n", "24",
         "--m-prime", "50", "--seed", "77"],
    ])
    def test_rerun_is_byte_identical(self, args, tmp_path):
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("model", ["exp", "sinc"])
    def test_rerun_across_markov_chunks_is_byte_identical(self, model, capsys):
        # three chunks, the last a single snapshot, drawn on worker threads
        # in whatever order they are scheduled
        m = 2 * sim_mod._CHUNK + 1
        args = ["simulate", "--scheme", "dsc", "--model", model, "--n", "12",
                "--m", str(m), "--seed", "77"]
        outs = [run_cli(args, capsys) for _ in range(2)]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_rerun_across_blocks_is_byte_identical(self, capsys, tmp_path):
        # m = 5000 spans many of simulate_dsc's blocks of rows, which only
        # --naive runs (the fast path draws by its recurrence, in chunks)
        assert 5000 > 4 * sim_mod._BLOCK_ROWS
        log = tmp_path / "runs.csv"
        args = ["simulate", "--scheme", "dsc", "--model", "sinc", "--n", "64",
                "--m", "5000", "--seed", "77", "--naive", "--csv-log",
                str(log)]
        outs = []
        for _ in range(2):
            code, out = run_cli(args, capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        lines = log.read_text().strip().split("\n")
        assert len(lines) == 3 and lines[1] == lines[2]
