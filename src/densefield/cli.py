"""Command-line surface: emits the rate curves, p2p optimum and simulation
reports as CSV/JSON for plotting and scripted verification.

The library returns numbers in nats; every output byte is decided here, by
one table writer, one CSV cell format (``--csv-log`` rows too) and ``--units``
(rates and p2p only; p2p and simulate write JSON and take no ``--format``).

Every command is reproducible from (argv, seed) alone and embeds its fully
resolved configuration in the output.  Exit codes: 0 success, 2 usage error
(a model spec that names no model, a table that cannot be read, a negative
count or seed, a float flag that is NaN or infinite, a simulate flag its
``--scheme`` never reads, and an ``--out`` or ``--csv-log`` path that is a
directory, lies in a missing directory or cannot be written included),
3 infeasible configuration (a correlation table whose covariance is not
positive semidefinite included) or a Lloyd-Max design that did not converge,
4 bound violation in simulate.
"""

import argparse
import json
import math
import os
import sys
from collections import namedtuple

# every command needs these two; each handler imports the layers it runs
# itself, so a process loads (and compiles) no layer its command never enters
from .correlation import EXP_MARKOV, SINC, load_correlation_table, make_correlation
from .errors import ConditioningError, ConvergenceError, InfeasibleConfigError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_BOUND_VIOLATION = 4

# a rate in nats times this is in --units
_PER_NAT = {"nats": 1.0, "bits": 1.0 / math.log(2.0)}


# every CLI setting but the command and model, and its default
_DEFAULTS = dict(d_net=0.1, n_list=(), n=0, k=0, k_max=0, p=0.0, levels=0,
                 m=20_000, m_prime=2000, grid_g=8, seed=0, units="nats", out="",
                 format="", csv_log="", scheme="", naive=False)


class RunConfig(namedtuple("RunConfig", ("command", "model", *_DEFAULTS),
                           defaults=_DEFAULTS.values())):
    """Every CLI setting and its default, immutable; the parser declares
    flags only."""

    __slots__ = ()


def _resolve_model(spec):
    if spec == "sinc":
        return make_correlation(SINC)
    if spec == "exp":
        return make_correlation(EXP_MARKOV)
    if spec.startswith("table:"):
        return load_correlation_table(spec[len("table:"):])
    raise ValueError(f"unknown model spec {spec!r}; expected sinc, exp or "
                     "table:<csv path>")


def _config_dict(cfg):
    # the sink path is where the bytes go, not part of what they are;
    # leaving it out keeps reruns byte-identical wherever they write
    return {k: v for k, v in cfg._asdict().items() if k != "out"}


def _json_payload(cfg, body):
    return json.dumps({**body, "config": _config_dict(cfg)}, indent=2,
                      sort_keys=True) + "\n"


def _cell(value):
    """One CSV cell: None is nan, a bool true/false, a float its shortest
    round-trip form."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _table(cfg, rows, header=None):
    """The rows as {"rows": ...} JSON, or as CSV under the config line with
    ``header`` (key -> column name; every key by default) naming the columns.
    NaN marks a value an infeasible N does not have: JSON null, CSV nan."""
    rows = [{k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in row.items()} for row in rows]
    if cfg.format == "json":
        return _json_payload(cfg, {"rows": rows})
    header = header or {k: k for k in rows[0]}
    lines = [",".join(header.values())]
    lines += [",".join(_cell(row[k]) for k in header) for row in rows]
    config = json.dumps(_config_dict(cfg), sort_keys=True)
    return f"# config: {config}\n" + "\n".join(lines) + "\n"


def cmd_pmax_curve(cfg, model):
    """One row per N: the largest admissible test-channel noise and its slope."""
    from . import rates
    rows = []
    for n in cfg.n_list:
        try:
            p_max = rates.dsc_operating_point(model, cfg.d_net, n)[2]
        except InfeasibleConfigError:
            p_max = math.nan
        rows.append({"N": n, "p_max": p_max, "p_max_over_n": p_max / n,
                     "feasible": not math.isnan(p_max)})
    return _table(cfg, rows), EXIT_OK


def cmd_rates(cfg, model):
    """Distributed vs centralized rate curve, one row per N."""
    from . import rates
    scale = _PER_NAT[cfg.units]
    rows = [{
        "N": r.N, "d_prime": r.d_prime, "d_double_prime": r.d_double_prime,
        "p_max": r.p_max, "dsc_rate": r.dsc_sum_rate_nats * scale,
        "centralized_rate": r.centralized_rate_nats * scale,
        "loss_bound": r.rate_loss_bound_nats * scale,
        "theta": r.theta, "units": cfg.units, "feasible": r.feasible,
    } for r in rates.rate_curve(model, cfg.d_net, cfg.n_list)]
    header = {k: f"{k}_{cfg.units}" if k.endswith(("rate", "bound")) else k
              for k in rows[0] if k not in ("theta", "units")}
    return _table(cfg, rows, header), EXIT_OK


def _p2p_design(cfg, model, k):
    """(sample budget, levels, codebook) at K sub-intervals: ``--levels`` or
    the fewest levels whose Lloyd-Max design meets the budget.  A simulate
    run given both ``--k`` and ``--levels`` reads no d_net: its budget is None."""
    from . import quantizer as qz
    budget = None if cfg.k and cfg.levels else qz.p2p_distortion_budget(
        model, cfg.d_net, k)
    levels = cfg.levels or qz.min_levels_for_distortion(budget)
    return budget, levels, qz.lloyd_max(levels)


def cmd_p2p(cfg, model):
    """Optimal sub-interval count, its sum rate and a codebook meeting it."""
    from . import quantizer as qz
    k_star, rate_nats = qz.optimize_K(model, cfg.d_net, cfg.k_max or None)
    budget, levels, quant = _p2p_design(cfg, model, k_star)
    rate = rate_nats * _PER_NAT[cfg.units]
    body = {
        "K_star": k_star,
        "sum_rate": rate,
        "units": cfg.units,
        "sample_budget": budget,
        "quantizer": {
            "levels": levels,
            "distortion": quant.distortion,
            "meets_budget": bool(quant.distortion <= budget),
            "delta_bits": qz.scalar_delta(levels) if levels >= 2 else None,
        },
    }
    if cfg.n:
        if cfg.n % k_star:
            body["per_sensor_rate"] = None
            body["per_sensor_rate_note"] = (
                f"K*={k_star} does not divide N={cfg.n}; schedule needs K | N"
            )
        else:
            body["per_sensor_rate"] = rate / cfg.n
    return _json_payload(cfg, body), EXIT_OK


def _report_body(report):
    """A simulation report as plain Python: the body of its JSON form."""
    return {**report._asdict(), "per_sensor_mse": report.per_sensor_mse.tolist()}


_CSV_LOG_COLUMNS = ("scheme", "n_snapshots", "grid_points_per_gap", "seed",
                    "j_mse", "j_prime_mse", "bound_low", "bound_high",
                    "stderr_jmse", "stderr_jprime", "verdict")


def cmd_simulate(cfg, model):
    """Run one seeded simulation and report the bound verdict."""
    from . import rates, sim
    if cfg.scheme == "dsc":
        p = cfg.p or rates.dsc_operating_point(model, cfg.d_net, cfg.n)[2]
        report = sim.simulate_dsc(model, cfg.n, p, m=cfg.m, grid_g=cfg.grid_g,
                                  seed=cfg.seed, naive=cfg.naive)
        resolved = {"p": p}
    else:
        from . import quantizer as qz
        k = cfg.k or qz.optimize_K(model, cfg.d_net, n_sensors=cfg.n)[0]
        budget, levels, quant = _p2p_design(cfg, model, k)
        report = sim.simulate_p2p(model, cfg.n, k, quant, m_prime=cfg.m_prime,
                                  grid_g=cfg.grid_g, seed=cfg.seed)
        resolved = {"k": k, "levels": levels, "sample_budget": budget,
                    "designed_distortion": quant.distortion}
    body = _report_body(report)
    if cfg.csv_log:
        with open(cfg.csv_log, "a", encoding="utf-8") as fh:
            # opened at its end, so a new or empty log gets the header
            if fh.tell() == 0:
                fh.write(",".join(_CSV_LOG_COLUMNS) + "\n")
            fh.write(",".join(_cell(body[c]) for c in _CSV_LOG_COLUMNS) + "\n")
    body["resolved"] = resolved
    code = EXIT_OK if report.verdict == sim.WITHIN else EXIT_BOUND_VIOLATION
    return _json_payload(cfg, body), code


_TABLE = ("pmax-curve", "rates")
_SIM = ("simulate",)
_ALL = (*_TABLE, "p2p", "simulate")

# One row per flag: option, the RunConfig field it sets, the subcommands that
# take it and its add_argument keywords.  No row carries a default.
_FLAGS = (
    ("--model", "model", _ALL, dict(required=True, help="sinc | exp | table:<csv path>")),
    ("--dnet", "d_net", _ALL,
     dict(type=float, metavar="DNET", help="field distortion target in (0, 1)")),
    ("--seed", "seed", _ALL, dict(type=int)),
    ("--units", "units", ("rates", "p2p"), dict(choices=("nats", "bits"))),
    ("--out", "out", _ALL, dict(help="output path (default stdout)")),
    ("--format", "format", _TABLE, dict(choices=("csv", "json"))),
    # both append (option, text) to n_list, which _parse_n_list reads once
    # argparse is done, so its errors keep their own text
    ("--n", "n_list", _TABLE, dict(action="append", type=lambda text: ("--n", text),
                                   metavar="N", help="comma-separated sensor counts")),
    ("--n-range", "n_list", _TABLE,
     dict(action="append", type=lambda text: ("--n-range", text), metavar="N_RANGE",
          help="LO:HI:STEP sweep")),
    ("--k-max", "k_max", ("p2p",), dict(type=int)),
    ("--n", "n", ("p2p",), dict(type=int, help="sensor count for the per-sensor rate")),
    ("--scheme", "scheme", _SIM, dict(choices=("dsc", "p2p"), required=True)),
    ("--n", "n", _SIM, dict(type=int, required=True)),
    ("--k", "k", _SIM, dict(type=int)),
    ("--p", "p", _SIM, dict(type=float)),
    ("--levels", "levels", ("p2p", "simulate"),
     dict(type=int, help="codebook size (default: smallest meeting the budget)")),
    ("--m", "m", _SIM, dict(type=int)),
    ("--m-prime", "m_prime", _SIM, dict(type=int)),
    ("--grid-g", "grid_g", _SIM, dict(type=int)),
    ("--naive", "naive", _SIM,
     dict(action="store_true", help="slow full-field oracle quadrature (small N only)")),
    ("--csv-log", "csv_log", _SIM,
     dict(help="append a one-line summary to this CSV file")),
)
_OPTION = {dest: option for option, dest, _, _ in _FLAGS}

# the simulate flags each scheme never reads: given, they are refused
_FOREIGN = {"dsc": ("k", "levels", "m_prime"), "p2p": ("p", "m", "naive")}


def build_parser():
    """The top-level parser and each command's subparser, whose ``error``
    prints that command's usage."""
    parser = argparse.ArgumentParser(
        prog="densefield",
        description="Rates, distortion targets and Monte Carlo checks for "
                    "dense sampling of a 1-D Gaussian field.")
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag left out leaves no attribute, so RunConfig supplies its default
    subs = {name: sub.add_parser(name, help=text, argument_default=argparse.SUPPRESS)
            for name, text in (("pmax-curve", "largest admissible noise per N"),
                               ("rates", "distributed vs centralized rate curve"),
                               ("p2p", "optimize the TDMA sub-interval count"),
                               ("simulate", "seeded Monte Carlo bound check"))}
    for option, dest, commands, kwargs in _FLAGS:
        for name in commands:
            subs[name].add_argument(option, dest=dest, **kwargs)
    for name, p in subs.items():
        p.set_defaults(format="csv" if name in _TABLE else "json")
    return parser, subs


def _parse_n_list(pairs, parser):
    if len(pairs) > 1:
        parser.error("give one --n or one --n-range, not several")
    texts = dict(pairs)
    if texts.get("--n-range"):
        try:
            lo, hi, step = (int(v) for v in texts["--n-range"].split(":"))
        except ValueError:
            parser.error("--n-range must look like LO:HI:STEP")
        if step < 1 or hi < lo:
            parser.error("--n-range must satisfy LO <= HI and STEP >= 1")
        return tuple(range(lo, hi + 1, step))
    if texts.get("--n"):
        try:
            return tuple(int(v) for v in texts["--n"].split(","))
        except ValueError:
            parser.error("--n must be a comma-separated list of integers")
    parser.error("one of --n / --n-range is required")


def _config_from_args(args, parser):
    """Check the parsed flags; none is altered and RunConfig fills the rest.
    A refusal is ``parser.error``, so pass the command's subparser."""
    cfg = RunConfig(**vars(args))
    # NaN passes every range check and would reach the JSON output as NaN
    for name, value in cfg._asdict().items():
        if isinstance(value, float) and not math.isfinite(value):
            parser.error(f"{_OPTION[name]} must be finite")
    if not 0.0 < cfg.d_net < 1.0:
        parser.error("--dnet must lie in (0, 1)")
    if cfg.command in _TABLE:
        cfg = cfg._replace(n_list=_parse_n_list(cfg.n_list, parser))
        if any(n < 1 for n in cfg.n_list):
            parser.error("sensor counts must be >= 1")
    if cfg.command == "simulate":
        if cfg.n < 1:
            parser.error("--n must be >= 1")
        # vars(args) holds only the flags given, so a default is never refused
        for name in _FOREIGN[cfg.scheme]:
            if name in vars(args):
                parser.error(f"{_OPTION[name]} is not read by --scheme {cfg.scheme}")
        if cfg.scheme == "dsc" and cfg.p > 0 and "d_net" in vars(args):
            parser.error("with a nonzero --p, --dnet is not read by --scheme dsc")
        if cfg.scheme == "p2p" and cfg.k and cfg.levels and "d_net" in vars(args):
            parser.error("with --k and --levels, --dnet is not read by --scheme p2p")
    # 0 selects the default; a negative count, seed or noise variance means nothing
    for name in ("seed", "k_max", "n", "k", "p", "levels"):
        if getattr(cfg, name) < 0:
            parser.error(f"{_OPTION[name]} must be >= 0")
    if cfg.m < 1 or cfg.m_prime < 1:
        parser.error("--m and --m-prime must be >= 1")
    if cfg.grid_g < 2:
        parser.error("--grid-g must be >= 2")
    # refused here, not when written, so a bad sink costs no run and no file
    for name in ("out", "csv_log"):
        path = getattr(cfg, name)
        if path and os.path.isdir(path):
            parser.error(f"{_OPTION[name]}: {path!r} is a directory")
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            parser.error(f"{_OPTION[name]}: the directory of {path!r} does not exist")
    try:
        model = _resolve_model(cfg.model)
    except (OSError, ValueError) as exc:
        parser.error(f"--model: {exc}")
    return cfg, model


_COMMANDS = {
    "pmax-curve": cmd_pmax_curve,
    "rates": cmd_rates,
    "p2p": cmd_p2p,
    "simulate": cmd_simulate,
}


def main(argv=None):
    parser, subs = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # refused by the chosen command, which prints its own usage
        subs[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    cfg, model = _config_from_args(args, subs[args.command])
    try:
        text, code = _COMMANDS[cfg.command](cfg, model)
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (InfeasibleConfigError, ConditioningError) as exc:
        print(f"infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        # the commands touch no file but the --out and --csv-log sinks
        print(f"cannot write: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not cfg.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
