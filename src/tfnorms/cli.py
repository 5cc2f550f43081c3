"""Command-line runner: one subcommand per experiment, JSON/CSV reports.

Exit status: 0 when every assertion passes, 2 when any fails, 1 on bad
input.  Identical config and seed produce byte-identical report.json.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import experiments as exp
from .errors import ToleranceNotReachedError
from .reporting import write_report

PARTITION_L = exp.PARTITION_L

# name -> (runner, default params, one-line anchor)
EXPERIMENTS = {
    "stft": (
        exp.stft_experiment,
        {"n": 2048, "L": 30.0},
        "windowed transform vs closed form and e^(-ix xi)(f * M_xi w~)(x)",
    ),
    "moyal": (
        exp.moyal_experiment,
        {"n": 2048, "L": 30.0},
        "<V f, V g> = 2 pi <psi, phi> <f, g> over the signal corpus",
    ),
    "norm": (
        exp.norm_experiment,
        {"signal": "gaussian-unit", "space": "modulation", "p": 2.0, "q": 1.0, "s": 0.0,
         "n": 4096, "L": PARTITION_L},
        "norm evaluation with per-block breakdown",
    ),
    "bupu-check": (
        exp.bupu_experiment,
        {"n": 4096, "L": PARTITION_L},
        "sum_k phi(xi - k) = 1 and block reconstruction sum_k block_k(f) = f",
    ),
    "rudin-shapiro": (
        exp.rudin_shapiro_experiment,
        {"m_max": 12, "samples": 4096},
        "sign-flip recursion identity |mu^|^2 + |nu^|^2 = 2^(m+1)",
    ),
    "plateau": (
        exp.plateau_experiment,
        {"n": 4096, "L": PARTITION_L},
        "psi = psi1 * psi2 equal to 1 on B_R, supported in B_5R",
    ),
    "translation-bound": (
        exp.translation_bound_experiment,
        {"n": 4096, "L": PARTITION_L},
        "integral <xi>^s |psi^(xi-theta) - psi^(xi)| <= C |theta|^s max|e^(i theta t)-1|^(1-s)",
    ),
    "compose": (
        exp.compose_experiment,
        {"function": "square", "n": 8192, "L": PARTITION_L, "p": 2.0, "s": 0.0},
        "global analytic composition F(f) via norm-controlled power series",
    ),
    "reciprocal": (
        exp.reciprocal_experiment,
        {"n": 8192, "L": PARTITION_L, "interval": (-5.0, 5.0), "p": 2.0, "s": 0.0},
        "f g = 1 on a compact interval from glued local 1/z expansions",
    ),
    "approx-unit": (
        exp.approx_unit_experiment,
        {"signal": "gaussian-unit", "n": 4096, "L": PARTITION_L,
         "p": 1.0, "q": 1.0, "s": 0.5, "halvings": 6},
        "||f - psi_lam f|| -> 0 for widening plateau multipliers",
    ),
    "embedding-sweep": (
        exp.embedding_sweep,
        {"n": 4096, "L": PARTITION_L},
        "corpus maxima of embedding norm ratios, refinement-stable",
    ),
    "algebra-sweep": (
        exp.algebra_sweep,
        {"n": 4096, "L": PARTITION_L, "count": 50},
        "empirical multiplication constants c_hat = max ||fg||/(||f|| ||g||)",
    ),
    "counterexample-flat": (
        exp.counterexample_flat,
        {"p": 1.0},
        "flat-measure train: block norm stays put while ||f||_p + ||f^||_1 collapses",
    ),
    "counterexample-l2": (
        exp.counterexample_l2,
        {"k0": 3, "checkpoints": (10**3, 10**6, 10**12)},
        "sum sqrt(2)/(k ln k) diverges; 2/(k ln^2 k) and 2/(k^2 ln^2 k) converge",
    ),
}

# The `all` command runs the experiments above; the flat counterexample is
# exercised at both exponents.
ALL_RUNS = [
    ("stft", {}),
    ("moyal", {}),
    ("norm", {}),
    ("bupu-check", {}),
    ("rudin-shapiro", {}),
    ("plateau", {}),
    ("translation-bound", {}),
    ("compose", {}),
    ("reciprocal", {}),
    ("approx-unit", {}),
    ("embedding-sweep", {}),
    ("algebra-sweep", {}),
    ("counterexample-flat", {"p": 1.0}),
    ("counterexample-flat", {"p": 1.5}),
    ("counterexample-l2", {}),
]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="sample count (power of two)")
    parser.add_argument("--L", type=float, default=None, help="domain half-width")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=".", help="output directory")
    parser.add_argument("--config", type=str, default=None, help="JSON config file (flags win)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfnorms",
        description="Reproduce time-frequency norm identities, flat-measure "
        "constructions, and analytic composition checks.",
    )
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    sub = parser.add_subparsers(dest="command")

    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=EXPERIMENTS[name][2])
        _add_common(p)
        if name == "stft":
            p.add_argument("--dump-matrix", type=str, default=None, dest="dump_matrix",
                           help="write |V| as a CSV matrix to this path")
        elif name == "norm":
            p.add_argument("--signal", type=str, default=None,
                           help="corpus signal name or path to a signal CSV")
            p.add_argument("--space", type=str, default=None,
                           choices=["modulation", "fourier_beurling", "fourier_segal", "weighted_lebesgue"])
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--q", type=float, default=None)
            p.add_argument("--s", type=float, default=None)
        elif name == "rudin-shapiro":
            p.add_argument("--m", type=int, default=None, dest="m_max", help="maximum recursion depth")
            p.add_argument("--samples", type=int, default=None)
        elif name == "compose":
            p.add_argument("--function", type=str, default=None,
                           choices=["identity", "square", "mobius", "expm1"])
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--s", type=float, default=None)
        elif name == "reciprocal":
            p.add_argument("--interval", type=str, default=None, help="compact interval a,b")
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--s", type=float, default=None)
        elif name == "approx-unit":
            p.add_argument("--signal", type=str, default=None)
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--q", type=float, default=None)
            p.add_argument("--s", type=float, default=None)
            p.add_argument("--halvings", type=int, default=None)
        elif name == "algebra-sweep":
            p.add_argument("--pairs", type=int, default=None, dest="count")
        elif name == "counterexample-flat":
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--r", type=int, default=None)
        elif name == "counterexample-l2":
            p.add_argument("--k0", type=int, default=None)
            p.add_argument("--checkpoints", type=str, default=None)

    p_all = sub.add_parser("all", help="run every experiment")
    _add_common(p_all)
    p_all.add_argument("--jobs", type=int, default=1, help="concurrent experiments")
    return parser


def _collect_params(name: str, args: argparse.Namespace) -> dict:
    """Merge experiment defaults, config file, then explicit flags."""
    params: dict = {}
    if args.config:
        import json

        file_config = json.loads(Path(args.config).read_text())
        for key, value in file_config.items():
            if key in ("experiment", "out"):
                continue
            params[key] = tuple(value) if isinstance(value, list) else value
    for key, value in vars(args).items():
        if key in ("command", "list", "config", "out", "jobs") or value is None:
            continue
        params[key] = value
    if name == "reciprocal" and isinstance(params.get("interval"), str):
        a, b = (float(v) for v in params["interval"].split(","))
        params["interval"] = (a, b)
    if name == "counterexample-l2" and isinstance(params.get("checkpoints"), str):
        params["checkpoints"] = tuple(int(float(v)) for v in params["checkpoints"].split(","))
    return params


def _runner_signature(name: str):
    import inspect

    return inspect.signature(EXPERIMENTS[name][0]).parameters


def _clean_params(name: str, params: dict) -> dict:
    allowed = _runner_signature(name)
    return {k: v for k, v in params.items() if k in allowed}


def run_experiment(name: str, params: dict):
    runner, defaults, _ = EXPERIMENTS[name]
    merged = {**defaults, **params}
    if "seed" in _runner_signature(name):
        merged.setdefault("seed", 0)
    merged = _clean_params(name, merged)
    return runner(**merged), merged


def _run_for_pool(item):
    name, params, out_dir = item
    report, merged = run_experiment(name, params)
    config = {"experiment": name, **_jsonable(merged)}
    write_report(out_dir, report, config)
    return name, report, config


def _jsonable(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        if isinstance(value, tuple):
            out[key] = list(value)
        elif isinstance(value, float) and math.isinf(value):
            out[key] = "inf"
        else:
            out[key] = value
    return out


def _print_assertions(report) -> None:
    for a in report.assertions:
        mark = "pass" if a.passed else "FAIL"
        print(f"  [{mark}] {a.name}: measured {a.measured:.6g} vs tolerance {a.tolerance:.6g}")


def run_all(args: argparse.Namespace) -> int:
    if args.n is not None or args.L is not None:
        print("error: `all` runs every experiment on its own default grid; "
              "--n and --L apply to single experiments only", file=sys.stderr)
        return 1
    out_root = Path(args.out)
    jobs = max(1, args.jobs)
    seed = args.seed if args.seed is not None else 0
    tasks = []
    for name, overrides in ALL_RUNS:
        params = {**EXPERIMENTS[name][1], **overrides}
        if "seed" in _runner_signature(name):
            params["seed"] = seed
        suffix = "" if "p" not in overrides else f"-p{overrides['p']:g}".replace(".", "_")
        tasks.append((name, params, str(out_root / (name + suffix))))

    if jobs == 1:
        results = [_run_for_pool(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_for_pool, tasks))

    rows = []
    assertions = []
    for (name, report, config), (task_name, _, out_dir) in zip(results, tasks):
        rows.append(
            {
                "experiment": Path(out_dir).name,
                "passed": report.all_passed,
                "assertions": len(report.assertions),
            }
        )
        for a in report.assertions:
            combined = type(a)(
                name=f"{Path(out_dir).name}:{a.name}",
                tolerance=a.tolerance,
                measured=a.measured,
                passed=a.passed,
            )
            assertions.append(combined)
        print(f"{Path(out_dir).name}: {'pass' if report.all_passed else 'FAIL'}")

    # jobs is deliberately not part of the config: the report is identical
    # whatever the concurrency level.
    summary = exp.SweepReport("all", axis="experiment", rows=rows, assertions=assertions)
    config = {"experiment": "all", "seed": seed}
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
        params = _collect_params(args.command, args)
        report, merged = run_experiment(args.command, params)
        config = {"experiment": args.command, **_jsonable(merged)}
        write_report(Path(args.out), report, config)
        print(f"{args.command}: {'pass' if report.all_passed else 'FAIL'}")
        _print_assertions(report)
        return 0 if report.all_passed else 2
    except (ValueError, OSError, ToleranceNotReachedError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
