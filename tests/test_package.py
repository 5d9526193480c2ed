"""The package's lazy layer loading: which modules each entry point imports,
and the PEP 562 attribute contract of ``densefield`` itself."""

import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

import densefield

SRC = os.path.dirname(os.path.dirname(densefield.__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def _loaded_after(code, stdlib=()):
    """densefield submodules and numpy loaded by a fresh interpreter once
    ``code`` has run, and each ``stdlib`` module that was not loaded after
    ``import argparse, json`` alone (a base that holds whatever site or a
    .pth file imports)."""
    probe = ("import sys, argparse, json\n"
             f"new = set({tuple(stdlib)!r}) - set(sys.modules)\n" + code + "\n"
             "print(sorted(m for m in sys.modules if m in new "
             "or m == 'numpy' or m.startswith('densefield.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return set(ast.literal_eval(proc.stdout))


def test_import_loads_no_layer_and_no_numpy():
    assert _loaded_after("import densefield") == set()


# what every CLI process loads: numpy is left to the layers that need arrays
CLI_LOADS = {"densefield.cli", "densefield.correlation", "densefield.errors"}
P2P_LOADS = CLI_LOADS | {"densefield.quantizer"}
# the built-in kernels' spectra and rates run on the standard library
RATES_LOADS = CLI_LOADS | {"densefield.rates"}
# a table's eigenvalues are LAPACK's, and its sums are rates'
DENSE_LOADS = {"numpy", "densefield.field"}
# the Monte Carlo adds the field layer; only the p2p scheme runs the quantizer
SIM_DSC_LOADS = RATES_LOADS | {"numpy", "densefield.field", "densefield.sim"}
SIM_P2P_LOADS = SIM_DSC_LOADS | {"densefield.quantizer"}
# the stdlib modules behind dataclasses and statistics.NormalDist: a process
# without numpy loads none of them, and no process loads dataclasses (numpy
# itself imports inspect)
HEAVY = ("dataclasses", "inspect", "statistics")


def _cli_run(args):
    return ("import os, densefield.cli\n"
            f"assert densefield.cli.main({args!r} + ['--out', os.devnull]) == 0")


@pytest.mark.parametrize("read", ["lloyd_max", "quantizer"])
def test_reading_a_name_loads_its_layer_only(read):
    # the quantizer runs on the standard library: no field and no numpy
    assert _loaded_after(f"import densefield; densefield.{read}", HEAVY) == {
        "densefield.errors", "densefield.correlation", "densefield.quantizer"}


def test_cli_import_loads_no_numpy():
    assert _loaded_after("import densefield.cli", HEAVY) == CLI_LOADS


@pytest.mark.parametrize("args, loads", [
    (["p2p", "--model", "exp", "--dnet", "0.02"], P2P_LOADS),
    (["p2p", "--model", "sinc", "--dnet", "0.02", "--n", "480"], P2P_LOADS),
    (["rates", "--model", "exp", "--n", "64,256"], RATES_LOADS),
    (["rates", "--model", "sinc", "--n", "64,2048"], RATES_LOADS),
    (["pmax-curve", "--model", "sinc", "--n", "64"], RATES_LOADS),
    (["pmax-curve", "--model", "exp", "--n", "64,1000000"], RATES_LOADS),
    (["simulate", "--scheme", "dsc", "--model", "exp", "--n", "64", "--p", "0.5"],
     SIM_DSC_LOADS),
    (["simulate", "--scheme", "p2p", "--model", "exp", "--n", "48"], SIM_P2P_LOADS),
], ids=["p2p", "p2p-sinc", "rates", "rates-sinc", "pmax-curve", "pmax-curve-exp",
        "simulate-dsc", "simulate-p2p"])
def test_each_command_loads_only_its_layers(args, loads):
    # numpy loads numpy.fft lazily, and no layer takes an FFT
    heavy = ("dataclasses", "numpy.fft") if "numpy" in loads else HEAVY
    assert _loaded_after(_cli_run(args), heavy) == loads


def test_p2p_with_a_table_loads_numpy_for_the_table_only(tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("0,1\n0.5,0.6\n1,0.2\n")
    args = ["p2p", "--model", f"table:{path}", "--dnet", "0.2"]
    assert _loaded_after(_cli_run(args)) == P2P_LOADS | {"numpy"}


def test_rates_with_a_table_loads_numpy_for_the_table_only(tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("0,1\n0.5,0.6\n1,0.2\n")
    args = ["rates", "--model", f"table:{path}", "--dnet", "0.5", "--n", "8,64"]
    assert _loaded_after(_cli_run(args)) == RATES_LOADS | DENSE_LOADS


def test_record_fields_cannot_be_assigned():
    model = densefield.make_correlation("sinc")
    spec = densefield.spectrum(model, 8)
    records = {"Spectrum": spec,
               "CovariancePack": densefield.covariance_matrix(model, 8),
               "WaterfillSolution": densefield.centralized_rate(spec, 0.1),
               "RateReport": densefield.rate_curve(model, 0.1, [8])[0],
               "SimulationReport": densefield.simulate_dsc(model, 8, 0.5, m=20)}
    for name, record in records.items():
        assert type(record).__name__ == name and record._fields
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))


def test_dir_covers_all():
    assert set(densefield.__all__) <= set(dir(densefield))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from densefield import *", namespace)
    assert [name for name in densefield.__all__ if name not in namespace] == []
    assert namespace["lloyd_max"] is densefield.quantizer.lloyd_max


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="module 'densefield' has no "
                                             "attribute 'no_such_name'"):
        densefield.no_such_name


def _per_layer_spans():
    """The <layer>.<fn> of every three-part per-layer metric name."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    return sorted({name.rsplit(".", 1)[0] for name in names if name.count(".") == 2})


@pytest.mark.parametrize("span", _per_layer_spans())
def test_benchmark_span_names_a_public_function(span):
    # the bench times a layer's public functions, the callables that module
    # defines itself (classes excluded); a metric naming anything else has no span
    layer, fn = span.split(".")
    mod = importlib.import_module(f"densefield.{layer}")
    obj = getattr(mod, fn, None)
    assert not fn.startswith("_") and callable(obj) and not inspect.isclass(obj)
    assert obj.__module__ == mod.__name__


def _lines_matching(pattern, owner):
    """file:line of every line of a package module other than ``owner``
    that matches ``pattern``."""
    pkg = os.path.dirname(densefield.__file__)
    offenders = []
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name != owner:
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                offenders += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                              if re.search(pattern, line)]
    return offenders


def test_only_correlation_charges_interpolation_error():
    # 1 - rho^2 at a sensor spacing is charged by correlation._interp_r2 alone,
    # which clamps rho at 0 and refuses a lag past the monotone radius
    assert _lines_matching(r"model\(1\.0 /", "correlation.py") == []


def test_only_rates_forms_the_kms_constants():
    # a = e^(-1/N) and 1 - a^2 come from rates._kms_constants alone, so the
    # exp-markov spectrum and the Monte Carlo's precision read one a
    assert _lines_matching(r"expm1\(-2\.0 /|exp\(-1\.0 /", "rates.py") == []


def test_no_layer_imports_estimation_and_rates_no_numpy():
    # every spectrum's mean MMSE and sum rate are rates.Spectrum's fsum or
    # closed form: no layer imports estimation, and rates imports no numpy
    assert _lines_matching(r"\bestimation import|import .*\bestimation\b",
                           "estimation.py") == []
    with open(os.path.join(SRC, "densefield", "rates.py"), encoding="utf-8") as fh:
        assert not re.search(r"^\s*(import|from) numpy\b", fh.read(), re.M)


def test_only_estimation_unfolds_the_eigenvectors():
    # the naive Monte Carlo filters through H built once from the pack's
    # blocks, so only estimation.mmse_estimate reads the N x N V
    assert _lines_matching(r"\.eigvecs\b", "estimation.py") == []


def test_covariance_pack_keeps_what_sampling_reads():
    # bench/spans.py probes a pack's n and n_clamped
    assert densefield.CovariancePack._fields == ("eigvals", "n_clamped", "blocks",
                                                 "parity")
    cov = densefield.covariance_matrix(densefield.make_correlation("sinc"), 8)
    assert cov.n == 8 and isinstance(cov.n_clamped, int)
