"""Correctness check of densefield CLI outputs against recorded references.

The references in ``bench/reference.json`` were recorded from the seed commit
with ``python3 bench/run.py --record``.  Deterministic numbers must match to
the tolerances ROADMAP states: rates and p_max to 1e-9 relative, codebooks to
1e-10.  Monte Carlo estimates depend on the seed, so they must lie within
``MC_Z`` combined standard errors of the recorded value; with independent
seeds a correct program fails this about once in 5e8 checks.
"""

import json
import math

REL_TOL = 1e-9
CODEBOOK_ABS_TOL = 1e-10
MC_Z = 6.0

CODEBOOK = frozenset({"distortion", "designed_distortion", "delta_bits"})
STAT = {"j_mse": "stderr_jmse", "j_prime_mse": "stderr_jprime"}
LENGTH_ONLY = frozenset({"per_sensor_mse"})
# seed-dependent fields: the verdict and the STAT checks cover them
SKIP = frozenset({"seed", "bound_low", "bound_high", "stderr_jmse", "stderr_jprime"})

_CONFIG_PREFIX = "# config: "


def _cell(column, text):
    if column == "N":
        return int(text)
    if column == "feasible":
        return {"true": True, "false": False}[text]
    return float(text)


def parse(argv, text):
    """Parsed form of one CLI output: CSV for ``rates``, JSON otherwise."""
    if argv[0] != "rates":
        return json.loads(text)
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(_CONFIG_PREFIX):
        raise ValueError("CSV output lacks its '# config:' line or header")
    header = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells for {len(header)} columns")
        rows.append({col: _cell(col, cell) for col, cell in zip(header, cells)})
    return {"config": json.loads(lines[0][len(_CONFIG_PREFIX):]),
            "header": header, "rows": rows}


def reference_form(obj):
    """What the reference keeps of a parsed output: LENGTH_ONLY lists shrink
    to their lengths."""
    if isinstance(obj, dict):
        return {k: len(v) if k in LENGTH_ONLY else reference_form(v)
                for k, v in obj.items()}
    if isinstance(obj, list):
        return [reference_form(v) for v in obj]
    return obj


def _float_ok(key, ref, got, ref_parent, got_parent):
    if math.isnan(ref) or math.isnan(got):
        return math.isnan(ref) and math.isnan(got)
    if key in CODEBOOK:
        return abs(got - ref) <= CODEBOOK_ABS_TOL
    if key in STAT:
        se = math.hypot(ref_parent[STAT[key]], got_parent[STAT[key]])
        return abs(got - ref) <= MC_Z * se
    return math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=0.0)


def compare(ref, got, path="", ref_parent=None, got_parent=None):
    """Differences between a reference and a parsed output, as messages."""
    key = path.rsplit(".", 1)[-1]
    if type(ref) is not type(got) and not (
            isinstance(ref, float) and type(got) is int):
        return [f"{path}: expected {type(ref).__name__}, got {type(got).__name__}"]
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        out = []
        for k in ref:
            if k in SKIP:
                continue
            sub = f"{path}.{k}" if path else k
            if k in LENGTH_ONLY:
                if len(got[k]) != ref[k]:
                    out.append(f"{sub}: length {len(got[k])} != {ref[k]}")
                continue
            out.extend(compare(ref[k], got[k], sub, ref, got))
        return out
    if isinstance(ref, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare(r, g, f"{path}[{i}]", ref_parent, got_parent))
        return out
    if isinstance(ref, float):
        if not _float_ok(key, ref, float(got), ref_parent, got_parent):
            return [f"{path}: {got!r} != reference {ref!r}"]
        return []
    if ref != got:
        return [f"{path}: {got!r} != reference {ref!r}"]
    return []


def check(reference, argv, code, text):
    """Problems with one command's exit code and output; empty when correct."""
    if code != reference["exit"]:
        return [f"exit code {code}, expected {reference['exit']}"]
    try:
        got = parse(argv, text)
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]
    return compare(reference["output"], got)
