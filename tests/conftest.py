"""Make the package importable from any working directory.

The CLI tests start ``python -m tfnorms.cli`` in a temporary directory, so a
relative ``PYTHONPATH=src`` would no longer resolve there.  The absolute
source path goes in front of ``PYTHONPATH`` for every child process, and on
``sys.path`` for this one.

It also holds the ``all --seed 0`` runs that the determinism criterion and
the golden-report test share.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
if SRC not in sys.path:
    sys.path.insert(0, SRC)


@pytest.fixture(scope="session")
def all_seed0(tmp_path_factory):
    """Output directories of `all --seed 0`, each from a fresh interpreter.

    run1 and run2 use --jobs 2; serial uses --jobs 1, all in one process,
    and prints afterwards whether any run loaded a scipy module.  Returns
    {name: (directory, exit code)} and that printed flag.
    """
    root = tmp_path_factory.mktemp("all-seed0")
    cli = ["-m", "tfnorms.cli"]
    serial = ["-c", "import sys; from tfnorms.cli import main; code = main(); "
                    "print(any(m.split('.')[0] == 'scipy' for m in sys.modules)); "
                    "sys.exit(code)"]
    runs = {}
    for out, (entry, jobs) in {"run1": (cli, "2"), "run2": (cli, "2"),
                               "serial": (serial, "1")}.items():
        proc = subprocess.run(
            [sys.executable, *entry, "all", "--seed", "0", "--jobs", jobs,
             "--out", str(root / out)],
            capture_output=True, text=True, timeout=500,
        )
        runs[out] = (root / out, proc.returncode)
    return runs, proc.stdout.strip().rpartition("\n")[2]
