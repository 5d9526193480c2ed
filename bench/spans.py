"""Per-layer spans for one densefield CLI call, recorded from outside the package.

Run as a child process from the checkout root:

    PYTHONPATH=src python3 bench/spans.py SPANS_JSON -- <densefield CLI args>

It wraps every public function of the six library modules (field,
estimation, rates, quantizer, sim, cli) at every module that binds it, then
calls ``densefield.cli.main`` in-process and exits with its code.  The CLI's
own output goes to stdout unchanged.  Spans are kept in memory and written to
SPANS_JSON once the call returns.  No file under ``src/`` is touched.

The self time of a span is its duration minus the durations of its direct
children; summed over a tree it telescopes to the root's duration.
"""

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = ("field", "estimation", "rates", "quantizer", "sim", "cli")
ROOT_SPAN = "cli.main"

# spans whose peak of newly traced allocations is recorded (tracemalloc is on
# only while one of them is open, so Python-heavy layers pay nothing for it)
ALLOC_SPANS = frozenset({"field.sample_snapshots", "sim.simulate_dsc"})


def _cov_attrs(out):
    return {"n3": out.n ** 3, "n_clamped": out.n_clamped}


def _sample_attrs(out):
    m, n = out.data.shape
    return {"flops": 2 * m * n * n}


def _mmse_attrs(out):
    n = out.shape[-1]
    return {"flops": 4 * (out.size // n) * n * n}


def _lloyd_attrs(out):
    return {"levels": out.levels}


# counts computed from a call's result, keyed by span name
ATTRS = {
    "field.covariance_matrix": _cov_attrs,
    "field.sample_snapshots": _sample_attrs,
    "estimation.mmse_estimate": _mmse_attrs,
    "quantizer.lloyd_max": _lloyd_attrs,
}


class Tracer:
    """Records nested spans as [name, parent_index, start, end, attrs]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.names = []      # every span name a wrapper was made for
        self._stack = []     # open span indices
        self._alloc = []     # [start_bytes, running_peak] per open alloc span

    def _alloc_enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        cur, peak = tracemalloc.get_traced_memory()
        if self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], peak)
        tracemalloc.reset_peak()
        self._alloc.append([cur, cur])

    def _alloc_exit(self):
        _, peak = tracemalloc.get_traced_memory()
        start, running = self._alloc.pop()
        running = max(running, peak)
        if self._alloc:
            self._alloc[-1][1] = max(self._alloc[-1][1], running)
        else:
            tracemalloc.stop()
        return running - start

    def wrap(self, name, fn):
        self.names.append(name)
        probe = ATTRS.get(name)
        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, parent, 0.0, 0.0, {}]
            self.spans.append(span)
            self._stack.append(idx)
            if alloc:
                self._alloc_enter()
            span[2] = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[3] = self.clock()
                if alloc:
                    span[4]["alloc_peak_bytes"] = self._alloc_exit()
                self._stack.pop()
            if probe:
                span[4].update(probe(out))
            return out

        return traced


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def check_spans(spans, root=ROOT_SPAN, abs_tol=1e-6):
    """Raise ValueError unless the spans form one tree under ``root`` whose
    children nest inside their parents and whose self times sum to the root."""
    if not spans or spans[0][0] != root or spans[0][1] != -1:
        raise ValueError(f"first span must be the {root} root")
    for i, (name, parent, start, end, _) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ({name}) ends before it starts")
        if i and not 0 <= parent < i:
            raise ValueError(f"span {i} ({name}) is outside the {root} tree")
        if i and not (spans[parent][2] <= start and end <= spans[parent][3]):
            raise ValueError(f"span {i} ({name}) is not inside its parent")
    total = sum(self_times(spans))
    root_s = spans[0][3] - spans[0][2]
    if abs(total - root_s) > abs_tol:
        raise ValueError(f"self times sum to {total!r} s, {root} took {root_s!r} s")


def _public_functions(mod):
    """Public callables a module defines itself: functions, and wrappers such
    as ``functools.lru_cache`` that keep the module name; classes excluded."""
    return {name: obj for name, obj in vars(mod).items()
            if not name.startswith("_") and callable(obj)
            and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == mod.__name__}


def _bindings(mod):
    """(label, value) for each module attribute and each item of a
    module-level dict, list or tuple."""
    for name, obj in vars(mod).items():
        label = f"{mod.__name__}.{name}"
        yield label, obj
        if isinstance(obj, dict):
            for key, val in obj.items():
                yield f"{label}[{key!r}]", val
        elif isinstance(obj, (list, tuple)):
            for i, val in enumerate(obj):
                yield f"{label}[{i}]", val


def _is_original(obj, wrapped):
    try:
        return obj in wrapped
    except TypeError:   # unhashable values bind nothing
        return False


def install(tracer, package="densefield"):
    """Wrap the layers' public functions wherever a densefield module binds
    them: module attributes and module-level dict values (the CLI's command
    table).  Returns the labels of bindings still pointing at an original,
    which must be none."""
    layers = [importlib.import_module(f"{package}.{name}") for name in LAYERS]
    wrapped = {}
    for mod in layers:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(mod).items():
            wrapped[fn] = tracer.wrap(f"{short}.{name}", fn)
    binders = [m for n, m in sorted(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    for mod in binders:
        for name, obj in list(vars(mod).items()):
            if _is_original(obj, wrapped):
                setattr(mod, name, wrapped[obj])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if _is_original(val, wrapped):
                        obj[key] = wrapped[val]
    return [label for mod in binders for label, obj in _bindings(mod)
            if _is_original(obj, wrapped)]


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: spans.py SPANS_JSON -- <densefield CLI args>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    unwrapped = install(tracer)
    code = 70
    try:
        if not unwrapped:
            code = sys.modules["densefield.cli"].main(cli_args)
            sys.stdout.flush()
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"unwrapped": unwrapped, "names": tracer.names,
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
