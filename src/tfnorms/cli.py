"""Command-line runner: one subcommand per experiment, JSON/CSV reports.

Each subcommand's flags are its runner's parameters, with the runner's
defaults (``m_max`` is ``--m``, ``count`` is ``--pairs``).  A ``--config``
JSON file may set the same parameters; flags win over the file.  Unknown
flags and unknown config keys are rejected.

``all`` runs every entry of the registry ``EXPERIMENTS`` (the flat
counterexample at p = 1 and p = 1.5), so a runner added there runs in
``all`` too.

Exit status: 0 when every assertion passes, 2 when any fails, 1 on bad
input.  Identical config and seed produce byte-identical report.json.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple, get_args

from . import experiments as exp
from .compose import SERIES_BUILDERS
from .errors import ToleranceNotReachedError
from .grid import Space
from .reporting import write_report


class Param(NamedTuple):
    """One runner parameter as the command line sees it."""

    default: object
    convert: Callable[[str], object]
    flag: str
    choices: tuple | None


# The CLI facts a runner signature cannot give.
_FLAGS = {"m_max": "--m", "count": "--pairs"}
_CHOICES = {
    "space": tuple(s.value for s in Space),
    "function": tuple(SERIES_BUILDERS),
}


def _converter(default, annotation) -> Callable[[str], object]:
    """Text to value: comma-separated for tuples, the annotated type for None."""
    if isinstance(default, tuple):
        kind = type(default[0])

        def comma_separated(text: str) -> tuple:
            try:
                return tuple(kind(float(v)) for v in text.split(","))
            except OverflowError as err:  # int(inf); argparse catches ValueError only
                raise ValueError(str(err)) from err

        return comma_separated
    if default is None:
        return next(t for t in get_args(annotation) if t is not type(None))
    return type(default)


def _parameter_table(runner) -> dict:
    """name -> Param in signature order, with seed last (the report key order)."""
    params = inspect.signature(runner, eval_str=True).parameters
    names = sorted(params, key=lambda name: name == "seed")
    return {
        name: Param(
            params[name].default,
            _converter(params[name].default, params[name].annotation),
            _FLAGS.get(name, "--" + name.replace("_", "-")),
            _CHOICES.get(name),
        )
        for name in names
    }


# name -> (runner, parameter table, one-line anchor)
EXPERIMENTS = {
    name: (runner, _parameter_table(runner), anchor)
    for name, runner, anchor in [
        ("stft", exp.stft_experiment,
         "windowed transform vs closed form and e^(-ix xi)(f * M_xi w~)(x)"),
        ("moyal", exp.moyal_experiment,
         "<V f, V g> = 2 pi <psi, phi> <f, g> over the signal corpus"),
        ("norm", exp.norm_experiment, "norm evaluation with per-block breakdown"),
        ("bupu-check", exp.bupu_experiment,
         "sum_k phi(xi - k) = 1 and block reconstruction sum_k block_k(f) = f"),
        ("rudin-shapiro", exp.rudin_shapiro_experiment,
         "sign-flip recursion identity |mu^|^2 + |nu^|^2 = 2^(m+1)"),
        ("plateau", exp.plateau_experiment,
         "psi = psi1 * psi2 equal to 1 on B_R, supported in B_5R"),
        ("translation-bound", exp.translation_bound_experiment,
         "integral <xi>^s |psi^(xi-theta) - psi^(xi)| <= C |theta|^s max|e^(i theta t)-1|^(1-s)"),
        ("compose", exp.compose_experiment,
         "global analytic composition F(f) via norm-controlled power series"),
        ("reciprocal", exp.reciprocal_experiment,
         "f g = 1 on a compact interval from glued local 1/z expansions"),
        ("approx-unit", exp.approx_unit_experiment,
         "||f - psi_lam f|| -> 0 for widening plateau multipliers"),
        ("embedding-sweep", exp.embedding_sweep,
         "corpus maxima of embedding norm ratios, refinement-stable"),
        ("algebra-sweep", exp.algebra_sweep,
         "empirical multiplication constants c_hat = max ||fg||/(||f|| ||g||)"),
        ("counterexample-flat", exp.counterexample_flat,
         "flat-measure train: block norm stays put while ||f||_p + ||f^||_1 collapses"),
        ("counterexample-l2", exp.counterexample_l2,
         "sum sqrt(2)/(k ln k) diverges; 2/(k ln^2 k) and 2/(k^2 ln^2 k) converge"),
    ]
}

# The `all` command runs every experiment above, in this order; the flat
# counterexample runs at both exponents.
ALL_RUNS = [
    (name, overrides)
    for name in EXPERIMENTS
    for overrides in ([{"p": 1.0}, {"p": 1.5}] if name == "counterexample-flat" else [{}])
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfnorms",
        description="Reproduce time-frequency norm identities, flat-measure "
        "constructions, and analytic composition checks.",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    sub = parser.add_subparsers(dest="command")

    for name, (_, table, anchor) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=anchor)
        for key, param in table.items():
            # Unset flags stay out of the namespace, so the config file shows through.
            p.add_argument(param.flag, dest=key, type=param.convert, choices=param.choices,
                           default=argparse.SUPPRESS, help=f"default {param.default}")
        p.add_argument("--out", type=str, default=".", help="output directory")
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")

    p_all = sub.add_parser("all", help="run every experiment")
    p_all.add_argument("--n", type=int, default=None, help=argparse.SUPPRESS)
    p_all.add_argument("--L", type=float, default=None, help=argparse.SUPPRESS)
    p_all.add_argument("--seed", type=int, default=0)
    p_all.add_argument("--out", type=str, default=".", help="output directory")
    p_all.add_argument("--jobs", type=int, default=1, help="concurrent experiments")
    return parser


def _collect_params(name: str, args: argparse.Namespace) -> dict:
    """The config file's parameters, overridden by explicit flags."""
    table = EXPERIMENTS[name][1]
    params: dict = {}
    if args.config:
        for key, value in json.loads(Path(args.config).read_text()).items():
            if key in ("experiment", "out"):  # a report's config block feeds back
                continue
            if key not in table:
                raise ValueError(f"config key {key!r} is not a parameter of {name}")
            if value is None:  # null keeps the default, like a key left out
                continue
            if isinstance(value, list) and not isinstance(table[key].default, tuple):
                raise ValueError(f"config key {key!r} takes one value, not a list")
            # As flag text, so that a value of the wrong JSON type fails the flag's conversion.
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            try:
                params[key] = table[key].convert(text)
            except ValueError as err:
                raise ValueError(f"config key {key!r}: {err}") from err
    params.update((key, getattr(args, key)) for key in table if hasattr(args, key))
    return params


def run_experiment(name: str, params: dict):
    """Run with defaults filled in; returns (report, config without None values)."""
    runner, table, _ = EXPERIMENTS[name]
    merged = {key: params.get(key, param.default) for key, param in table.items()}
    config = {key: value for key, value in merged.items() if value is not None}
    return runner(**config), config


def _run_to_dir(item):
    name, params, out_dir = item
    report, merged = run_experiment(name, params)
    write_report(out_dir, report, {"experiment": name, **merged})
    return report


def _print_assertions(report) -> None:
    for a in report.assertions:
        mark = "pass" if a.passed else "FAIL"
        print(f"  [{mark}] {a.name}: measured {a.measured:.6g} vs tolerance {a.tolerance:.6g}")


def run_all(args: argparse.Namespace) -> int:
    if args.n is not None or args.L is not None:
        print("error: `all` runs every experiment on its own default grid; "
              "--n and --L apply to single experiments only", file=sys.stderr)
        return 1
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    out_root = Path(args.out)
    tasks = []
    for name, overrides in ALL_RUNS:
        params = {**overrides, "seed": args.seed}
        suffix = "" if "p" not in overrides else f"-p{overrides['p']:g}".replace(".", "_")
        tasks.append((name, params, str(out_root / (name + suffix))))

    # No more workers than runs: the pool starts every worker at once.
    jobs = min(args.jobs, len(tasks))
    if jobs == 1:
        results = [_run_to_dir(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_to_dir, tasks))

    rows = []
    assertions = []
    for report, (_, _, out_dir) in zip(results, tasks):
        entry = Path(out_dir).name
        rows.append({"experiment": entry, "passed": report.all_passed,
                     "assertions": len(report.assertions)})
        assertions += [type(a)(f"{entry}:{a.name}", a.tolerance, a.measured, a.passed)
                       for a in report.assertions]
        print(f"{entry}: {'pass' if report.all_passed else 'FAIL'}")

    # jobs is deliberately not part of the config: the report is identical
    # whatever the concurrency level.
    summary = exp.SweepReport("all", rows=rows, assertions=assertions)
    config = {"experiment": "all", "seed": args.seed}
    write_report(out_root, summary, config)
    return 0 if summary.all_passed else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name, (_, _, anchor) in EXPERIMENTS.items():
            print(f"{name}: {anchor}")
        print("all: run every experiment above (flat counterexample at both exponents)")
        return 0
    if args.command is None:
        parser.print_help()
        return 1

    try:
        if args.command == "all":
            return run_all(args)
        report = _run_to_dir((args.command, _collect_params(args.command, args), args.out))
        print(f"{args.command}: {'pass' if report.all_passed else 'FAIL'}")
        _print_assertions(report)
        return 0 if report.all_passed else 2
    except (ValueError, OSError, ToleranceNotReachedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
