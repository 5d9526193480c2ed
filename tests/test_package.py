"""The package's lazy layer loading: which modules each entry point imports,
and the PEP 562 attribute contract of ``densefield`` itself."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import densefield

SRC = os.path.dirname(os.path.dirname(densefield.__file__))
BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def _loaded_after(code):
    """densefield submodules and numpy loaded by a fresh interpreter once
    ``code`` has run."""
    probe = ("import sys\n" + code + "\n"
             "print(sorted(m for m in sys.modules "
             "if m == 'numpy' or m.startswith('densefield.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC), check=True)
    return set(ast.literal_eval(proc.stdout))


def test_import_loads_no_layer_and_no_numpy():
    assert _loaded_after("import densefield") == set()


# what every CLI process loads: numpy is left to the layers that need arrays
CLI_LOADS = {"densefield.cli", "densefield.correlation", "densefield.errors"}
P2P_LOADS = CLI_LOADS | {"densefield.quantizer"}
RATES_LOADS = CLI_LOADS | {"numpy", "densefield.estimation", "densefield.field",
                           "densefield.rates"}


def _cli_run(args):
    return ("import os, densefield.cli\n"
            f"assert densefield.cli.main({args!r} + ['--out', os.devnull]) == 0")


@pytest.mark.parametrize("read", ["lloyd_max", "quantizer"])
def test_reading_a_name_loads_its_layer_only(read):
    # the quantizer runs on the standard library: no field and no numpy
    assert _loaded_after(f"import densefield; densefield.{read}") == {
        "densefield.errors", "densefield.correlation", "densefield.quantizer"}


def test_cli_import_loads_no_numpy():
    assert _loaded_after("import densefield.cli") == CLI_LOADS


@pytest.mark.parametrize("args, loads", [
    (["p2p", "--model", "exp", "--dnet", "0.02"], P2P_LOADS),
    (["p2p", "--model", "sinc", "--dnet", "0.02", "--n", "480"], P2P_LOADS),
    (["rates", "--model", "exp", "--n", "64,256"], RATES_LOADS),
    (["pmax-curve", "--model", "sinc", "--n", "64"], RATES_LOADS),
], ids=["p2p", "p2p-sinc", "rates", "pmax-curve"])
def test_each_command_loads_only_its_layers(args, loads):
    assert _loaded_after(_cli_run(args)) == loads


def test_p2p_with_a_table_loads_numpy_for_the_table_only(tmp_path):
    path = tmp_path / "rho.csv"
    path.write_text("0,1\n0.5,0.6\n1,0.2\n")
    args = ["p2p", "--model", f"table:{path}", "--dnet", "0.2"]
    assert _loaded_after(_cli_run(args)) == P2P_LOADS | {"numpy"}


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
