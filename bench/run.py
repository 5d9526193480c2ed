"""End-to-end and per-layer benchmark of the densefield CLI.

    python3 bench/run.py --workload rate-curve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --record      # rewrite bench/reference.json from this tree
    python3 -m pytest -q bench         # the benchmark's own tests

Run it from the checkout root; it uses the sources under ``src/`` as they are.
Each workload is a list of CLI commands run as a closed loop from this single
process: one ``python3 -m densefield.cli`` child at a time, each started only
after the previous one has exited.  BLAS threading is left at the machine
default and recorded.  One pass runs the whole list; passes repeat until the
next one would end after ``--seconds``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json: set-up
time (interpreter start plus ``import densefield.cli`` in a fresh process,
median of several), and per pass the children's summed wall and CPU time,
the largest child peak RSS (each child's own, from ``os.wait4``) and the
share of commands that passed the correctness check.  ``--trace 1``
alternates untraced passes with traced ones, in which each command runs under
``bench/spans.py``, and reports the per-layer metrics.

Every command is checked against ``bench/reference.json`` (see check.py) and
against the bytes of its first run in the same invocation.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, environment
included, goes to ``.bench_out/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

import check
import spans as spanlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

SETUP_LEAD = 2
SETUP_MIN = 7
CHILD_TIMEOUT_S = 60.0
TAIL_BEYOND = 10

WORKLOADS = {
    # dense eigendecomposition behind every rate; the quantizer never runs
    "rate-curve": [
        ["rates", "--model", "exp", "--n-range", "256:2048:256"],
        ["rates", "--model", "sinc", "--n-range", "256:2048:256"],
    ],
    # the Lloyd-Max scan behind p2p; the field layer never runs
    "p2p-design": [
        ["p2p", "--model", "exp", "--dnet", "0.02"],
        ["p2p", "--model", "exp", "--dnet", "0.01"],
        ["p2p", "--model", "sinc", "--dnet", "0.02"],
    ],
    # eigenvectors, snapshot draws and the MMSE filter, at a large memory peak
    "monte-carlo": [
        ["simulate", "--scheme", "dsc", "--model", "exp", "--n", "1024", "--m", "20000"],
        ["simulate", "--scheme", "p2p", "--model", "exp", "--n", "480", "--m-prime", "2000"],
    ],
}

ENV_PROBE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy
def blas_name(cfg):
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return blas.get("name"), blas.get("version"), blas.get("openblas configuration")
threads = None
try:
    with open("/proc/self/maps") as fh:
        libs = sorted({l.split()[-1] for l in fh if "openblas" in l.lower()})
except OSError:
    libs = []
for path in libs:
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
    if threads is not None:
        break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numpy_blas": blas_name(numpy.show_config(mode="dicts")),
    "scipy_blas": blas_name(scipy.show_config(mode="dicts")),
    "blas_threads": threads,
    "nproc": len(os.sched_getaffinity(0)),
    "cpu_count": os.cpu_count(),
    "thread_vars": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    "platform": platform.platform(),
}))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv, stdout_path, env, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; return (exit code, wall s, CPU s, peak RSS MB).

    CPU time and peak RSS come from this child's own ``os.wait4`` rusage,
    not from RUSAGE_CHILDREN, whose peak RSS is a high-water mark across
    every child reaped so far.  A child still running after ``timeout``
    seconds is killed and reported with its signal as a negative code.
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def workload_commands(name, seed):
    return [argv + ["--seed", str(1000 * seed + i)]
            for i, argv in enumerate(WORKLOADS[name])]


def command_key(argv):
    """Reference key: the command without its seed."""
    return " ".join(argv[:-2] if argv[-2] == "--seed" else argv)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND values beyond it, as
    (percentile, value), or None when there are too few values."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(values)[k]


class Runner:
    """One benchmark invocation: runs commands and checks every output."""

    def __init__(self, workload, seed, reference):
        self.commands = workload_commands(workload, seed)
        self.reference = reference
        self.env = child_env()
        self.tag = f"{workload}_seed{seed}"
        self.first_output = {}
        self.attempted = 0
        self.problems = []

    def _path(self, suffix):
        return os.path.join(OUT_DIR, f"{self.tag}_{suffix}")

    def run_command(self, index, argv, spans_path=None):
        if spans_path is None:
            child = [sys.executable, "-m", "densefield.cli", *argv]
        else:
            child = [sys.executable, os.path.join(BENCH_DIR, "spans.py"),
                     spans_path, "--", *argv]
        out_path = self._path(f"cmd{index}.out")
        code, wall, cpu, rss = run_child(child, out_path, self.env)
        with open(out_path, "rb") as fh:
            data = fh.read()
        self.attempted += 1
        found = check.check(self.reference[command_key(argv)], argv, code,
                            data.decode("utf-8", "replace"))
        first = self.first_output.setdefault(index, data)
        if data != first:
            found.append("output bytes differ from the first run of this command")
        if found:
            with open(out_path + ".err", "rb") as fh:
                stderr_tail = fh.read()[-400:].decode("utf-8", "replace")
            self.problems.append({"command": argv, "problems": found[:5],
                                  "stderr_tail": stderr_tail})
        return {"argv": argv, "code": code, "wall_s": wall, "cpu_s": cpu,
                "peak_rss_mb": rss}

    def run_pass(self, traced=False):
        results = []
        for i, argv in enumerate(self.commands):
            spans_path = self._path(f"cmd{i}.spans.json") if traced else None
            if traced and os.path.exists(spans_path):
                os.remove(spans_path)
            res = self.run_command(i, argv, spans_path)
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                if doc["unwrapped"]:
                    raise RuntimeError(f"traced run left public functions "
                                       f"unwrapped: {doc['unwrapped']}")
                spanlib.check_spans(doc["spans"])
                res["names"] = doc["names"]
                res["spans"] = doc["spans"]
            results.append(res)
        return {"wall_s": sum(r["wall_s"] for r in results),
                "cpu_s": sum(r["cpu_s"] for r in results),
                "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
                "commands": results}

    def setup_time(self):
        """Wall time of interpreter start plus ``import densefield.cli``."""
        argv = [sys.executable, "-c", "import densefield.cli"]
        code, wall, _, _ = run_child(argv, self._path("setup.out"), self.env)
        if code != 0:
            raise RuntimeError(f"'import densefield.cli' exited with {code}")
        return wall

    def passes(self, seconds, traced_too=False):
        """Repeat passes (untraced, or untraced then traced pairs) until the
        next would end after ``seconds``; at least one is always run.

        Untraced runs also sample set-up time before each pass, so that its
        samples span the same minutes as the passes; returns
        (setup times, untraced passes, traced passes)."""
        setup = []
        if not traced_too:
            self.setup_time()   # the first import writes the bytecode caches
            setup = [self.setup_time() for _ in range(SETUP_LEAD)]
        start = time.perf_counter()
        plain, traced, cycle = [], [], []
        while not cycle or (time.perf_counter() - start
                            + statistics.median(cycle)) <= seconds:
            t0 = time.perf_counter()
            if not traced_too:
                setup.append(self.setup_time())
            plain.append(self.run_pass())
            if traced_too:
                traced.append(self.run_pass(traced=True))
            cycle.append(time.perf_counter() - t0)
        while not traced_too and len(setup) < SETUP_MIN:
            setup.append(self.setup_time())
        return setup, plain, traced


def layer_metrics(traced_pass):
    """Per-layer numbers of one traced pass, summed over its commands."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    attr_sum = defaultdict(float)
    alloc_peak = defaultdict(float)
    evals_in_pmax = designs_for_cli = 0
    overhead = 0.0
    for cmd in traced_pass["commands"]:
        spans = cmd["spans"]
        for name in cmd["names"]:   # layers a command never enters read 0
            self_s[name] += 0.0
            calls[name] += 0
        for (name, parent, _, _, attrs), own in zip(spans, spanlib.self_times(spans)):
            self_s[name] += own
            calls[name] += 1
            for k, v in attrs.items():
                if k == "alloc_peak_bytes":
                    alloc_peak[name] = max(alloc_peak[name], v / 2 ** 20)
                else:
                    attr_sum[(name, k)] += v
            parent_name = spans[parent][0] if parent >= 0 else ""
            if name == "estimation.avg_mmse_from_eigvals" and parent_name == "rates.find_pmax":
                evals_in_pmax += 1
            if name == "quantizer.lloyd_max" and parent_name.startswith("cli."):
                designs_for_cli += 1
        overhead += cmd["wall_s"] - (spans[0][3] - spans[0][2])
    out = {}
    for name in calls:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for name in spanlib.ALLOC_SPANS:
        out[f"{name}.alloc_peak_mb"] = alloc_peak[name]
    out["field.covariance_matrix.n3_sum"] = attr_sum[("field.covariance_matrix", "n3")]
    out["field.sample_snapshots.flops"] = attr_sum[("field.sample_snapshots", "flops")]
    out["estimation.mmse_estimate.flops"] = attr_sum[("estimation.mmse_estimate", "flops")]
    out["field.n_clamped_sum"] = attr_sum[("field.covariance_matrix", "n_clamped")]
    solves = calls["rates.find_pmax"]
    out["rates.pmax_evals_per_solve"] = evals_in_pmax / solves if solves else 0.0
    out["quantizer.levels_designed_sum"] = attr_sum[("quantizer.lloyd_max", "levels")]
    out["quantizer.designs_per_result"] = (
        calls["quantizer.lloyd_max"] / designs_for_cli if designs_for_cli else 0.0)
    out["quantizer.k_evaluated"] = calls["quantizer.p2p_rate_for_K"]
    out["cli.process_overhead_s"] = overhead
    return out


def select(spec_metrics, values):
    """The metrics BENCHMARK.json names, in its order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def describe(name, values, unit, what):
    t = tail(values)
    tail_text = (f"p{t[0]:.0f} {t[1]:.4g} {unit}" if t else
                 f"no percentile has {TAIL_BEYOND} {what} beyond it")
    return (f"{name:>14}  median {statistics.median(values):.4g} {unit}  "
            f"{tail_text}  (n={len(values)} {what})")


def probe_environment(env):
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True)
    info = json.loads(out.stdout)
    threads = info["blas_threads"]
    if threads is not None and threads > info["nproc"]:
        info["warning"] = (f"BLAS uses {threads} threads on {info['nproc']} "
                           f"usable CPUs; timings include oversubscription")
        print(f"warning: {info['warning']}", file=sys.stderr)
    return info


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["commands"]


def record_reference():
    """Run every workload command once and store its parsed output."""
    env = child_env()
    os.makedirs(OUT_DIR, exist_ok=True)
    commands = {}
    for name in WORKLOADS:
        for i, argv in enumerate(workload_commands(name, 0)):
            out_path = os.path.join(OUT_DIR, "record.out")
            code, _, _, _ = run_child([sys.executable, "-m", "densefield.cli", *argv],
                                      out_path, env)
            with open(out_path, encoding="utf-8") as fh:
                text = fh.read()
            commands[command_key(argv)] = {
                "exit": code, "output": check.reference_form(check.parse(argv, text))}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json from this tree")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "densefield", "cli.py")):
        print(f"error: {SRC}/densefield/cli.py not found; run from a densefield "
              f"checkout", file=sys.stderr)
        return 2
    if args.record:
        record_reference()
        return 0
    if args.workload is None or args.seed < 0 or args.seconds <= 0:
        parser.error("--workload is required; --seed must be >= 0 and --seconds > 0")
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    reference = load_reference()
    os.makedirs(OUT_DIR, exist_ok=True)

    runner = Runner(args.workload, args.seed, reference)
    env_info = probe_environment(runner.env)
    print(f"environment: {json.dumps(env_info, sort_keys=True)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env_info,
              "commands": runner.commands}

    if args.trace == 0:
        setup, plain, _ = runner.passes(args.seconds)
        print(describe("setup_s", setup, "s", "imports"))
        for key, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")):
            print(describe(key, [p[key] for p in plain], unit, "passes"))
        values = {"setup_s": statistics.median(setup),
                  "wall_s": median_of(plain, "wall_s"),
                  "cpu_s": median_of(plain, "cpu_s"),
                  "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        wanted = spec["end_to_end"]
        record.update(setup_s=setup, passes=plain)
    else:
        _, plain, traced = runner.passes(args.seconds, traced_too=True)
        per_pass = [layer_metrics(p) for p in traced]
        names = set().union(*per_pass)
        values = {k: statistics.median(p[k] for p in per_pass) for k in names}
        values["trace.overhead_s"] = (median_of(traced, "wall_s")
                                      - median_of(plain, "wall_s"))
        top = sorted((v, k[:-len(".self_s")]) for k, v in values.items()
                     if k.endswith(".self_s"))[::-1][:5]
        print("largest self times: " + ", ".join(f"{n} {v:.3f} s" for v, n in top))
        wanted = spec["per_layer"]
        record.update(passes=plain, traced_passes=traced, layer_values=values)

    failed = len(runner.problems)
    values["ok_ratio"] = (runner.attempted - failed) / runner.attempted
    print(f"{'fail_ratio':>14}  {failed}/{runner.attempted} = "
          f"{failed / runner.attempted:.4g}")
    for item in runner.problems:
        print(f"FAILED {' '.join(item['command'])}: {'; '.join(item['problems'])}",
              file=sys.stderr)
    metrics = select(wanted, values)
    record.update(problems=runner.problems, metrics=metrics)
    with open(os.path.join(OUT_DIR, f"BENCH_{runner.tag}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
