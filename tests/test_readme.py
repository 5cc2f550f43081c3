"""The examples of README.md run as written.

The fenced Python example under "Library" prints the modulation norm of a
Gaussian and its tail estimate, and every ``tfnorms ...`` line of the
"Command line" block but ``all`` (which the golden tests run) exits 0
through ``python -m tfnorms.cli`` in a temporary directory, so an edit that
breaks an example fails here.
"""

import re
import shlex
import subprocess
import sys
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(heading: str, language: str = "") -> str:
    """The first fenced block of `language` after a "## heading" line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```$", section, re.M | re.S).group(1)


def test_library_example_prints_the_norm_and_tail():
    result = subprocess.run([sys.executable, "-c", fenced("Library", "python")],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "2.78578857932175 0.0\n"


def test_command_lines_exit_zero(tmp_path):
    commands = [shlex.split(line, comments=True)[1:]
                for line in fenced("Command line").splitlines()]
    commands = [args for args in commands if args[0] != "all"]
    assert len(commands) == 5
    # All at once, each writing its report into a directory of its own.
    children = []
    for i, args in enumerate(commands):
        (tmp_path / str(i)).mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-m", "tfnorms.cli", *args], cwd=tmp_path / str(i),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        ))
    try:
        failures = {}
        for args, child in zip(commands, children):
            _, errors = child.communicate(timeout=120)
            if child.returncode != 0:
                failures[shlex.join(args)] = (child.returncode, errors)
    finally:
        for child in children:
            child.kill()  # a no-op on a child that has exited
    assert not failures
