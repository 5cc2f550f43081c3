"""Benchmark for the tfnorms experiment battery.

    python3 perfbench/run.py --workload block-norms --seed 0 --seconds 20 --trace 0

Each pass runs one workload's list of CLI invocations in a fresh worker
process (worker.py), so every pass starts with cold caches, as a user's
command does.  Passes repeat until ``--seconds`` have gone by, at least
twice, so that every report can be compared byte for byte with another pass
of the same seed.  A few launches that only import the package add samples
for the set-up time.

``--trace 0`` prints the end-to-end metrics: ``setup_s``, ``wall_s`` (median
pass), ``peak_rss_mb``.  ``--trace 1`` runs the untraced passes and then one
traced pass, and prints the per-layer metrics of tracing.py plus the tracing
overhead (traced minus untraced pass time).  ``--workload all`` runs every
workload in turn.

An invocation fails when it exits non-zero, raises out of ``main``, writes a
report with a failing assertion or another seed, or writes report.json bytes
that differ from the first pass (the traced pass included).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Outputs
go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import layer_metrics
from worker import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
MIN_PASSES = 2
SETUP_PROBES = 9
DEADLINE_S = 170.0  # the whole run, traced pass included
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Units come from the declaration, so a metric that is not declared cannot be printed.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in DECLARED["end_to_end"]]
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in DECLARED[key]}


class SetupError(RuntimeError):
    """The package cannot be imported from the checkout: no result is possible."""


def launch(args: list, timeout: float) -> tuple:
    """Run worker.py; return (parsed last stdout line or None, stderr text)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args,
             "--launched", repr(launched)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1]), proc.stderr
        except ValueError:
            pass
    return None, proc.stderr.strip() or f"worker exited {proc.returncode}"


def check_pass(result, pass_dir: Path, entries: list, seed: int, reference: dict) -> list:
    """Failure messages for one pass; fills `reference` with first-seen report bytes."""
    if result is None:
        return [f"{entry}: worker failed" for entry, _ in entries]
    failures = []
    for record in result["entries"]:
        entry = record["entry"]
        if record["error"] or record["rc"] != 0:
            failures.append(f"{entry}: exit {record['rc']} {record['error'] or ''}".rstrip())
            continue
        path = pass_dir / entry / "report.json"
        if not path.is_file():
            failures.append(f"{entry}: no report.json")
            continue
        data = path.read_bytes()
        try:
            report = json.loads(data)
            passed = all(a["pass"] for a in report["assertions"])
            report_seed = report["config"].get("seed")
        except (ValueError, KeyError, TypeError) as err:
            failures.append(f"{entry}: unreadable report.json ({err!r})")
            continue
        if not passed:
            failures.append(f"{entry}: failing assertion in report")
        elif report_seed != seed:
            failures.append(f"{entry}: report seed {report_seed} != {seed}")
        elif reference.setdefault(entry, data) != data:
            failures.append(f"{entry}: report.json differs from the first pass")
    return failures


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    entries = WORKLOADS[name]
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.monotonic()

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.monotonic() - start))

    setups = []
    for _ in range(SETUP_PROBES):
        result, err = launch(["--probe"], remaining())
        if result is None:
            raise SetupError(err)
        setups.append(result["setup_s"])

    reference: dict = {}
    failures: list = []  # one message per failed invocation
    errors: list = []  # workers that crashed or timed out
    passes: list = []
    attempted = 0

    def run_one(label: str, extra: list):
        nonlocal attempted
        pass_dir = out / label
        result, err = launch(["--workload", name, "--seed", str(seed), "--out", str(pass_dir),
                              *extra], remaining())
        attempted += len(entries)
        failures.extend(check_pass(result, pass_dir, entries, seed, reference))
        if result is None:
            errors.append(f"{label}: {err}")
        else:
            setups.append(result["setup_s"])
        return result

    def more_passes() -> bool:
        if len(passes) < MIN_PASSES:
            return True
        elapsed = time.monotonic() - start
        # room for one more pass (and the traced one) at the mean cost so far
        return elapsed < seconds and elapsed * (1 + (1 + trace) / len(passes)) < DEADLINE_S

    while more_passes():
        result = run_one(f"pass{len(passes)}", ["--pass-id", str(len(passes))])
        if result is None:
            break
        passes.append(result)
    if not passes:
        raise SetupError("; ".join(errors))
    traced = None
    if trace:
        traced = run_one("traced", ["--pass-id", str(len(passes)), "--trace"])

    wall = statistics.median(p["wall_s"] for p in passes)
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    per_layer = None
    if trace:
        # Without a traced pass every layer metric reads 0 and the run fails.
        spans = json.loads((out / "traced" / "spans.json").read_text()) if traced else []
        per_layer = layer_metrics(spans)
        per_layer["trace.overhead_s"] = traced["wall_s"] - wall if traced else 0.0
        per_layer["trace.absent"] = len(traced["absent"]) if traced else 0
        per_layer["fail_ratio"] = len(failures) / attempted

    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        **passes[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "samples": {"setup_s": len(setups), "wall_s": len(passes),
                    "peak_rss_mb": len(passes), "traced_passes": int(traced is not None)},
        "absent": traced["absent"] if traced else [],
    }
    result = {
        "meta": meta,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "setups": setups,
        "passes": passes,
        "traced": traced,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return result


def print_result(result: dict) -> None:
    """Human-readable lines: every metric by name, value, unit, and sample count."""
    meta = result["meta"]
    samples = meta["samples"]
    print(f"{meta['workload']} seed={meta['seed']} trace={meta['trace']}")
    for name in END_TO_END:
        value = result["end_to_end"][name]
        print(f"  {name:<44} {value:>14.6g} {UNITS[name]:<6} median of {samples[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} {UNITS['fail_ratio']:<6} "
          f"{failed} of {attempted} invocations")
    for line in result["failures"] + result["errors"]:
        print(f"# FAIL {line}")
    for name, value in (result["per_layer"] or {}).items():
        if name != "fail_ratio":
            print(f"  {name:<44} {value:>14.6g} {UNITS[name]}")
    print("# meta " + json.dumps(meta))


def summary_line(result: dict, trace: bool) -> dict:
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    return {
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tfnorms" / "__init__.py").is_file():
        print(f"error: no tfnorms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 2
        print_result(result)
        lines.append(summary_line(result, bool(args.trace)))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines),
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "metrics": {name: line["metrics"] for name, line in zip(names, lines)},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
