"""Every run of ``all`` stays within one memory budget per CPU.

A budget is ``grid._SPAN`` complex samples, 16 _SPAN bytes (2 MiB).  A span
of ``grid._each_span`` holds at most one budget of buffers, counted over
every buffer it holds, and no more spans are in flight than there are CPUs.
Besides its spans, a run keeps arrays of its own: at most a few arrays of
``grid._SPAN`` samples, such as a signal and its spectrum, a fold's twiddle
table, or the one transform behind the flat counterexample's tail width, or
on the 2^22-point grid the partition core, the fold rows and mu-check's
columns.  So each ``ALL_RUNS`` entry, in a fresh process pinned to `cpus`
CPUs, traces a peak of at most

    (FIXED_BUDGETS + cpus) budgets

from after the import.  tracemalloc sees numpy's arrays; it does not see the
FFT library's plan cache or memory that malloc keeps, which perfbench's
``peak_rss_mb`` counts.
"""

import json
import os
import subprocess
import sys

import pytest

import tfnorms.grid as grid_module

BUDGET = 16 * grid_module._SPAN

# Budgets a run keeps besides its spans (the module docstring).
FIXED_BUDGETS = 3

# One child per CPU count imports the package once and forks a process for
# each run, so that no run finds a cache, a pool or a freed arena of another.
CHILD = """
import json, os, sys, traceback, tracemalloc
cpus = int(sys.argv[1])
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:cpus])
from tfnorms import cli
peaks = {}
for name, overrides in cli.ALL_RUNS:
    entry = name + ("" if "p" not in overrides else f"-p{overrides['p']:g}".replace(".", "_"))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            tracemalloc.start()
            cli.run_experiment(name, {**overrides, "seed": 0})
            os.write(write, str(tracemalloc.get_traced_memory()[1]).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        peak = pipe.read()
    _, status = os.waitpid(pid, 0)
    peaks[entry] = int(peak) if status == 0 else None
print(json.dumps(peaks))
"""

CPU_COUNTS = (1, 2)


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 0


@pytest.fixture(scope="module")
def traced_peaks():
    """{cpus: {entry: traced peak in bytes, or None for a failed run}}, both children at once."""
    counts = [cpus for cpus in CPU_COUNTS if cpus <= _available_cpus()]
    children = {
        cpus: subprocess.Popen([sys.executable, "-c", CHILD, str(cpus)],
                               stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for cpus in counts
    }
    peaks = {}
    try:
        for cpus, child in children.items():
            out, errors = child.communicate(timeout=300)
            assert child.returncode == 0, errors
            peaks[cpus] = json.loads(out)
    finally:
        for child in children.values():
            child.kill()  # a no-op on a child that has exited
    return peaks


@pytest.mark.parametrize("cpus", CPU_COUNTS)
def test_each_run_peaks_within_its_budget(traced_peaks, cpus):
    if cpus not in traced_peaks:
        pytest.skip(f"needs {cpus} CPUs with affinity masks")
    peaks = traced_peaks[cpus]
    assert len(peaks) == 15 and None not in peaks.values(), peaks
    bound = (FIXED_BUDGETS + cpus) * BUDGET
    over = {entry: f"{peak / 2**20:.2f} MiB" for entry, peak in peaks.items() if peak > bound}
    assert not over, f"above {bound / 2**20:.0f} MiB at {cpus} CPUs: {over}"
