"""Make the package importable from any working directory.

The CLI tests start ``python -m tfnorms.cli`` in a temporary directory, so a
relative ``PYTHONPATH=src`` would no longer resolve there.  The absolute
source path goes in front of ``PYTHONPATH`` for every child process, and on
``sys.path`` for this one.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
if SRC not in sys.path:
    sys.path.insert(0, SRC)
