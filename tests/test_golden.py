"""The committed reports of `all --seed 0` are the behaviour contract.

tests/golden/all-seed0/ holds every report.json and report.csv of
``tfnorms all --seed 0`` and a platform.json naming the Python and numpy
versions, the machine and numpy's enabled SIMD features (its run-time
dispatch picks kernels that round differently) that wrote them.  The serial
run of the determinism criterion (conftest's ``all_seed0``) is compared with
it: on a matching platform byte for byte, elsewhere every number to 1e-12
relative, and the failure lists each file that differs.  So are a run
pinned to one CPU and a run under ``python -O``.

A change that moves report bytes on purpose regenerates the directory with

    PYTHONPATH=src python tests/test_golden.py

and the git diff of tests/golden/ is then its list of moved values.  The
script takes no arguments: given any, it prints its usage and exits 2
without writing.
"""

import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

GOLDEN = Path(__file__).resolve().parent / "golden" / "all-seed0"
PLATFORM = "platform.json"
RELATIVE_TOLERANCE = 1e-12

# A number as the JSON and CSV writers print it; text between numbers must match exactly.
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|inf|nan|NaN))")


def current_platform() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in __cpu_features__.items() if on),
    }


def compares_bytes(recorded: dict) -> bool:
    """True when the golden reports were written on this platform, SIMD dispatch included."""
    return recorded == current_platform()


def _numbers_agree(expected: str, actual: str) -> bool:
    want, got = _NUMBER.split(expected), _NUMBER.split(actual)
    if len(want) != len(got):
        return False
    for i, (a, b) in enumerate(zip(want, got)):
        if a == b:
            continue
        if i % 2 == 0:  # text between numbers
            return False
        x, y = float(a), float(b)
        if not math.isclose(x, y, rel_tol=RELATIVE_TOLERANCE, abs_tol=0.0):
            return False
    return True


def golden_differences(golden: Path, actual: Path, exact: bool) -> list:
    """Each report file that is missing, extra or different, as "<what>: <path>".

    exact compares bytes; otherwise every number must agree to
    RELATIVE_TOLERANCE and all other text exactly.
    """
    want = {p.relative_to(golden) for p in golden.rglob("*") if p.is_file()} - {Path(PLATFORM)}
    got = {p.relative_to(actual) for p in actual.rglob("*") if p.is_file()}
    found = [f"missing: {rel}" for rel in sorted(want - got)]
    found += [f"extra: {rel}" for rel in sorted(got - want)]
    for rel in sorted(want & got):
        a, b = (golden / rel).read_bytes(), (actual / rel).read_bytes()
        if a != b and (exact or not _numbers_agree(a.decode(), b.decode())):
            found.append(f"differs: {rel}")
    return found


def test_serial_run_matches_the_golden_reports(all_seed0):
    runs, _ = all_seed0
    serial, code = runs["serial"]
    assert code == 0
    recorded = json.loads((GOLDEN / PLATFORM).read_text())
    exact = compares_bytes(recorded)
    found = golden_differences(GOLDEN, serial, exact)
    mode = "bytes" if exact else f"numbers to {RELATIVE_TOLERANCE:g} (golden from {recorded})"
    assert not found, f"reports differ from {GOLDEN} ({mode}): " + ", ".join(found)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity masks")
def test_one_cpu_and_optimized_runs_match_the_golden_reports(tmp_path):
    # Two concurrent children: one pinned to one CPU, so that every span runs
    # inline in the calling thread, and one under python -O, which strips
    # every assert statement.
    pin = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
           "from tfnorms.cli import main; sys.exit(main())")
    entries = {"one-cpu": ["-c", pin], "optimized": ["-O", "-m", "tfnorms.cli"]}
    children = {
        name: subprocess.Popen(
            [sys.executable, *entry, "all", "--seed", "0", "--out", str(tmp_path / name)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for name, entry in entries.items()
    }
    exact = compares_bytes(json.loads((GOLDEN / PLATFORM).read_text()))
    try:
        for name, child in children.items():
            _, errors = child.communicate(timeout=500)
            assert child.returncode == 0, f"{name}: {errors}"
            found = golden_differences(GOLDEN, tmp_path / name, exact)
            assert not found, f"{name} reports differ from {GOLDEN}: " + ", ".join(found)
    finally:
        for child in children.values():
            child.kill()  # a no-op on a child that has exited


def test_golden_directory_holds_every_report():
    reports = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("report.*"))
    assert len(reports) == 32
    assert {p.name for p in GOLDEN.iterdir() if p.is_file()} == {
        "report.json", "report.csv", PLATFORM,
    }


def test_a_different_simd_dispatch_selects_the_numeric_mode():
    assert compares_bytes(current_platform())
    recorded = current_platform()
    recorded["cpu_features"] = [*recorded["cpu_features"], "NOT_A_FEATURE"]
    assert not compares_bytes(recorded)
    del recorded["cpu_features"]
    assert not compares_bytes(recorded)


def test_the_script_refuses_arguments_before_writing(tmp_path):
    # A copy of the script writes next to itself, so a regeneration that
    # did run would land in tmp_path, not in the committed directory.
    script = tmp_path / "test_golden.py"
    shutil.copy(__file__, script)
    for args in (["--help"], ["all"]):
        done = subprocess.run([sys.executable, str(script), *args],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr.startswith("usage: ")
    assert not (tmp_path / "golden").exists()


class TestComparison:
    """Mutations of a copy of the golden directory that the comparison must catch."""

    @pytest.fixture
    def copy(self, tmp_path):
        out = tmp_path / "copy"
        shutil.copytree(GOLDEN, out, ignore=shutil.ignore_patterns(PLATFORM))
        return out

    @staticmethod
    def move_first_float(path: Path, step) -> None:
        text = path.read_text()
        match = re.search(r"-?\d+\.\d+(?:[eE][-+]?\d+)?", text)
        moved = repr(step(float(match.group())))
        path.write_text(text[: match.start()] + moved + text[match.end() :])

    @pytest.mark.parametrize("exact", [True, False])
    def test_unchanged_copy_passes(self, copy, exact):
        assert golden_differences(GOLDEN, copy, exact) == []

    def test_one_ulp_fails_the_byte_comparison(self, copy):
        target = copy / "norm" / "report.json"
        self.move_first_float(target, lambda x: math.nextafter(x, math.inf))
        assert golden_differences(GOLDEN, copy, exact=True) == ["differs: norm/report.json"]
        # Across platforms one ulp is within the tolerance.
        assert golden_differences(GOLDEN, copy, exact=False) == []

    def test_a_moved_number_fails_across_platforms(self, copy):
        target = copy / "moyal" / "report.csv"
        self.move_first_float(target, lambda x: x * (1.0 + 1e-11))
        assert golden_differences(GOLDEN, copy, exact=False) == ["differs: moyal/report.csv"]

    @pytest.mark.parametrize("exact", [True, False])
    def test_a_missing_file_fails(self, copy, exact):
        (copy / "stft" / "report.csv").unlink()
        assert golden_differences(GOLDEN, copy, exact) == ["missing: stft/report.csv"]

    @pytest.mark.parametrize("exact", [True, False])
    def test_an_extra_file_fails(self, copy, exact):
        (copy / "stft" / "diagnostics.json").write_text("{}")
        assert golden_differences(GOLDEN, copy, exact) == ["extra: stft/diagnostics.json"]

    @pytest.mark.parametrize("exact", [True, False])
    def test_changed_text_fails(self, copy, exact):
        target = copy / "report.json"
        target.write_text(target.read_text().replace('"passed":true', '"passed":false', 1))
        assert golden_differences(GOLDEN, copy, exact) == ["differs: report.json"]


def regenerate() -> None:
    """Rewrite the golden directory from a serial `all --seed 0` run of this tree."""
    shutil.rmtree(GOLDEN, ignore_errors=True)
    subprocess.run(
        [sys.executable, "-m", "tfnorms.cli", "all", "--seed", "0", "--jobs", "1",
         "--out", str(GOLDEN)],
        check=True,
    )
    (GOLDEN / PLATFORM).write_text(json.dumps(current_platform(), indent=2) + "\n")


def main(argv: list) -> int:
    """Regenerate the golden directory; refuse any argument, before anything is written."""
    if argv:
        print("usage: PYTHONPATH=src python tests/test_golden.py\n"
              f"takes no arguments; rewrites {GOLDEN} from a serial `all --seed 0` run",
              file=sys.stderr)
        return 2
    regenerate()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
