"""Tests of the benchmark itself: python3 -m pytest -q bench"""

import copy
import json
import os
import resource
import subprocess
import sys

import pytest

import check
import run
import spans


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_self_times_on_synthetic_call_tree():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf():
        clock.now += 4.0

    def mid():
        clock.now += 3.0
        leaf()
        clock.now += 0.5

    def root():
        clock.now += 1.0
        mid()
        clock.now += 2.0
        leaf()
        clock.now += 1.0

    leaf, mid = tracer.wrap("m.leaf", leaf), tracer.wrap("m.mid", mid)
    tracer.wrap("cli.main", root)()

    names = [s[0] for s in tracer.spans]
    assert names == ["cli.main", "m.mid", "m.leaf", "m.leaf"]
    assert [s[1] for s in tracer.spans] == [-1, 0, 1, 0]
    assert spans.self_times(tracer.spans) == [4.0, 3.5, 4.0, 4.0]
    spans.check_spans(tracer.spans)
    assert sum(spans.self_times(tracer.spans)) == tracer.spans[0][3] - tracer.spans[0][2]


def test_check_spans_rejects_child_outside_parent():
    tree = [["cli.main", -1, 0.0, 1.0, {}], ["a.b", 0, 0.5, 1.5, {}]]
    with pytest.raises(ValueError, match="not inside its parent"):
        spans.check_spans(tree)
    with pytest.raises(ValueError, match="root"):
        spans.check_spans([["a.b", -1, 0.0, 1.0, {}]])


def test_traced_cli_call_wraps_every_public_function(tmp_path):
    out = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.BENCH_DIR, "spans.py"), str(out), "--",
         "p2p", "--model", "sinc", "--dnet", "0.02"],
        env=run.child_env(), cwd=run.ROOT, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["unwrapped"] == []
    assert {"cli.cmd_p2p", "field.covariance_matrix", "sim.simulate_dsc"} <= set(doc["names"])
    spans.check_spans(doc["spans"])
    called = {s[0] for s in doc["spans"]}
    assert {"cli.cmd_p2p", "quantizer.optimize_K", "quantizer.lloyd_max"} <= called
    ref = run.load_reference()["p2p --model sinc --dnet 0.02"]
    assert check.check(ref, ["p2p"], 0, proc.stdout.decode()) == []


def test_install_reports_a_binding_it_cannot_wrap(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    for name in spans.LAYERS:
        (pkg / f"{name}.py").write_text(f"def {name}_fn():\n    return 1\n")
    (pkg / "cli.py").write_text(
        "from functools import lru_cache\n"
        "from .field import field_fn\n"
        "@lru_cache\n"
        "def cached(x):\n    return x\n"
        "def main():\n    return field_fn()\n"
        "TABLE = {'main': main}\n"
        "FROZEN = (field_fn,)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        tracer = spans.Tracer()
        left = spans.install(tracer, package="fakepkg")
        assert left == ["fakepkg.cli.FROZEN[0]"]
        assert "cli.cached" in tracer.names
        cli = sys.modules["fakepkg.cli"]
        assert cli.TABLE["main"] is cli.main
        cli.TABLE["main"]()
        assert [s[0] for s in tracer.spans] == ["cli.main", "field.field_fn"]
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "fakepkg"]:
            del sys.modules[name]


def _render_csv(ref):
    lines = ["# config: " + json.dumps(ref["config"], sort_keys=True),
             ",".join(ref["header"])]
    for row in ref["rows"]:
        cells = [str(row["N"])] + [repr(row[c]) for c in ref["header"][1:-1]]
        lines.append(",".join(cells + ["true" if row["feasible"] else "false"]))
    return "\n".join(lines) + "\n"


def _render_json(ref):
    obj = copy.deepcopy(ref)
    if "per_sensor_mse" in obj:
        obj["per_sensor_mse"] = [0.0] * obj["per_sensor_mse"]
    return json.dumps(obj)


def test_checker_accepts_reference_and_rejects_perturbed_rates():
    ref = run.load_reference()["rates --model exp --n-range 256:2048:256"]
    argv = ["rates"]
    assert check.check(ref, argv, 0, _render_csv(ref["output"])) == []
    bad = copy.deepcopy(ref["output"])
    bad["rows"][3]["p_max"] *= 1 + 1e-7
    problems = check.check(ref, argv, 0, _render_csv(bad))
    assert len(problems) == 1 and "rows[3].p_max" in problems[0]
    assert check.check(ref, argv, 3, _render_csv(ref["output"]))
    assert check.check(ref, argv, 0, "N,p_max\n")


def test_checker_rejects_perturbed_codebook_and_k():
    ref = run.load_reference()["p2p --model exp --dnet 0.01"]
    argv = ["p2p"]
    assert check.check(ref, argv, 0, _render_json(ref["output"])) == []
    bad = copy.deepcopy(ref["output"])
    bad["quantizer"]["distortion"] += 1e-9
    assert check.check(ref, argv, 0, _render_json(bad))
    bad = copy.deepcopy(ref["output"])
    bad["K_star"] += 1
    assert check.check(ref, argv, 0, _render_json(bad))


def test_checker_monte_carlo_window_in_standard_errors():
    ref = run.load_reference()[
        "simulate --scheme dsc --model exp --n 1024 --m 20000"]
    argv = ["simulate"]
    out = ref["output"]
    se = (out["stderr_jmse"] ** 2 * 2) ** 0.5
    near = dict(copy.deepcopy(out), seed=12345, j_mse=out["j_mse"] + 3 * se)
    assert check.check(ref, argv, 0, _render_json(near)) == []
    far = dict(copy.deepcopy(out), j_mse=out["j_mse"] + 1.01 * check.MC_Z * se)
    assert check.check(ref, argv, 0, _render_json(far))
    outside = dict(copy.deepcopy(out), verdict="violated-high")
    assert check.check(ref, argv, 0, _render_json(outside))


def test_run_child_reports_each_childs_own_peak_rss(tmp_path):
    big = [sys.executable, "-c", "x = b'x' * (160 << 20)"]
    small = [sys.executable, "-c", "pass"]
    out = str(tmp_path / "child.out")
    code, wall, cpu, big_mb = run.run_child(big, out, os.environ)
    assert code == 0 and wall > 0 and cpu > 0
    code, _, _, small_mb = run.run_child(small, out, os.environ)
    assert code == 0
    assert big_mb > 160 and small_mb < 80
    # the aggregate over children keeps the earlier high-water mark
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert children > 160


def test_run_child_kills_a_child_past_its_timeout(tmp_path):
    code, wall, _, _ = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(30)"],
        str(tmp_path / "child.out"), os.environ, timeout=0.5)
    assert code < 0 and wall < 10


def test_tail_percentile_needs_ten_values_beyond_it():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail(list(range(100)))
    assert (pct, value) == (90.0, 89)
    assert sum(v > value for v in range(100)) == 10
