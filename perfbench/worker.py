"""One benchmark pass in a fresh process: import tfnorms, run a workload's list.

Each invocation goes through the public CLI entry ``tfnorms.cli.main`` with
``--seed`` and ``--out``; its exit code and any exception escaping ``main``
are recorded, never raised.  The last line of stdout is a JSON object with
the set-up time, the pass time, the peak RSS and one record per invocation.

    python3 perfbench/worker.py --workload block-norms --seed 0 --out DIR \
        --launched <time.monotonic() of the parent just before the launch>

With ``--probe`` the worker only imports the package and reports set-up time.
With ``--trace`` it also records spans (see tracing.py) into DIR/spans.json.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Together the three lists cover every run of `tfnorms all`; each invocation
# is (output-directory name, CLI arguments before --seed/--out).
WORKLOADS = {
    "block-norms": [
        (name, [name])
        for name in ("norm", "bupu-check", "plateau", "translation-bound", "compose",
                     "reciprocal", "approx-unit", "embedding-sweep", "algebra-sweep")
    ],
    "counterexamples": [
        ("counterexample-flat-p1", ["counterexample-flat", "--p", "1"]),
        ("counterexample-flat-p1_5", ["counterexample-flat", "--p", "1.5"]),
        ("counterexample-l2", ["counterexample-l2"]),
        ("rudin-shapiro", ["rudin-shapiro"]),
    ],
    "time-frequency": [
        ("stft", ["stft"]),
        ("moyal", ["moyal"]),
    ],
}


def invoke(main, argv: list) -> tuple:
    """Run main(argv); return (exit code, error text or None)."""
    try:
        rc = main(argv)
    except SystemExit as err:  # argparse rejects bad flags this way
        code = err.code if isinstance(err.code, int) else 1
        return code, f"SystemExit({err.code})"
    except Exception as err:  # anything escaping main is a failure to count
        return 1, f"{type(err).__name__}: {err}"
    return (rc if isinstance(rc, int) else 1), None


def run_pass(entries: list, seed: int, out: Path, recorder=None) -> dict:
    """Run every invocation once; time the whole pass.

    The CLI module is imported inside the timed region, as a user's first
    command pays for it; a recorder is installed after that import, so that
    the CLI's namespaces exist when it rebinds them.
    """
    start = time.perf_counter()
    from tfnorms import cli

    if recorder is not None:
        recorder.install()
    records = []
    for entry, args in entries:
        argv = [*args, "--seed", str(seed), "--out", str(out / entry)]
        t0 = time.perf_counter()
        if recorder is None:
            rc, error = invoke(cli.main, argv)
        else:
            rc, error = recorder.call(entry, "entry", invoke, cli.main, argv)
        records.append({"entry": entry, "rc": rc, "error": error,
                        "s": time.perf_counter() - t0})
    return {"wall_s": time.perf_counter() - start, "entries": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import tfnorms

    setup_s = time.monotonic() - args.launched
    if not Path(tfnorms.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported tfnorms from {tfnorms.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if not args.probe:
        import resource

        import numpy
        import scipy

        recorder = None
        if args.trace:
            from tracing import Recorder

            recorder = Recorder(args.pass_id)
        result.update(run_pass(WORKLOADS[args.workload], args.seed, args.out, recorder))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
        if recorder is not None:
            recorder.uninstall()
            result["absent"] = recorder.absent
            (args.out / "spans.json").write_text(json.dumps(recorder.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
