"""The package's lazy layer loading: which modules each entry point imports,
and the PEP 562 attribute contract of ``densefield`` itself."""

import ast
import os
import subprocess
import sys

import pytest

import densefield

SRC = os.path.dirname(os.path.dirname(densefield.__file__))


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


@pytest.mark.parametrize("read", ["lloyd_max", "quantizer"])
def test_reading_a_name_loads_its_layer_only(read):
    # quantizer needs field (and so numpy) and errors, and nothing else
    assert _loaded_after(f"import densefield; densefield.{read}") == {
        "numpy", "densefield.errors", "densefield.field", "densefield.quantizer"}


@pytest.mark.parametrize("args, absent", [
    (["p2p", "--model", "exp", "--dnet", "0.1"],
     {"densefield.sim", "densefield.rates", "densefield.estimation"}),
    (["rates", "--model", "exp", "--n", "64,256"],
     {"densefield.sim", "densefield.quantizer"}),
    (["pmax-curve", "--model", "sinc", "--n", "64"],
     {"densefield.sim", "densefield.quantizer"}),
], ids=["p2p", "rates", "pmax-curve"])
def test_each_command_loads_only_its_layers(args, absent):
    code = ("import os, densefield.cli\n"
            f"assert densefield.cli.main({args!r} + ['--out', os.devnull]) == 0")
    loaded = _loaded_after(code)
    assert "densefield.field" in loaded and not loaded & absent


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
