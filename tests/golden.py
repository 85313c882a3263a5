"""The golden command set of the ``rpqcalc`` CLI, and its one runner.

Each entry is a command line (``shlex.join`` of its argv) with its pin
``[exit code, stdout sha256, stderr sha256]``.  The pool commands of
``perfbench/workloads.py`` come first, pinned in ``perfbench/pins.json``
(which holds no stderr hash: theirs must be empty), then the entries of
``tests/golden.json``, grouped by the ``cli.SCOPE`` key they run (or by
subcommand, or ``""``, when they name none).

Every run sets ``COLUMNS=80`` and runs in the repository root, so an
entry names a file by its path relative to the root (the custom kernels
``tests/custom_kernel.json`` and ``tests/custom_kernel_float.json``).
Argparse lays out its text (a ``--help`` page, an exit-2 ``usage:``
error) differently on each Python version, so the hash of that stream
is compared on Python 3.11 only, where it was recorded; the exit code
and the other stream are compared everywhere.
An entry pinned ``null`` fails, printing the observed pin to paste.

Not a test module.  ``tests/test_cli.py`` replays every entry in process;
run as a script, this module replays every entry as a
``python -W error -m rpqcalc.cli`` subprocess and exits 1 on a mismatch::

    python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import runpy
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
EMPTY = hashlib.sha256(b"").hexdigest()


def entries():
    """(command line, pin) of every entry, the pool commands first; a
    pool command that ``perfbench/pins.json`` lacks has a null pin, and
    a pin of no pool command is refused."""
    pools = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())["pins"]
    lines = [shlex.join(argv) for name in pools["WORKLOADS"]
             for argv in pools["pool"](name)]
    if set(pins) - set(lines):
        raise ValueError("perfbench/pins.json pins no pool command "
                         f"{sorted(set(pins) - set(lines))}")
    for line in lines:
        pin = pins.get(line)
        yield line, pin and [pin["exit"], pin["sha256"], EMPTY]
    for group in json.loads(GOLDEN.read_text()).values():
        yield from group.items()


def run(line: str, process: bool = False):
    """(exit code, stdout, stderr) of ``rpqcalc <line>``, through
    ``cli.main`` or, with ``process``, from a subprocess."""
    if process:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "rpqcalc.cli",
             *shlex.split(line)], capture_output=True, timeout=300, cwd=ROOT,
            env=dict(os.environ, COLUMNS="80", PYTHONPATH=str(ROOT / "src")))
        return proc.returncode, proc.stdout, proc.stderr
    from rpqcalc import cli
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(shlex.split(line))
    finally:
        os.chdir(here)
    return code, out.getvalue().encode(), err.getvalue().encode()


def mismatch(line: str, pin, got) -> str:
    """"" when ``got``, a result of ``run``, matches ``pin``; else the
    observed entry, as a line of ``tests/golden.json``."""
    code, out, err = got
    seen = [code, *(hashlib.sha256(b).hexdigest() for b in (out, err))]
    if pin and sys.version_info[:2] != (3, 11):  # argparse text
        if "--help" in shlex.split(line):
            seen[1] = pin[1]
        if err.startswith(b"usage:"):
            seen[2] = pin[2]
    return "" if seen == pin else (f"pinned {json.dumps(pin)}, observed\n"
                                   f"    {json.dumps(line)}: "
                                   f"{json.dumps(seen)}")


if __name__ == "__main__":
    todo = list(entries())
    bad = [msg for line, pin in todo
           if (msg := mismatch(line, pin, run(line, process=True)))]
    print(*bad, f"{len(todo) - len(bad)} of {len(todo)} golden commands "
          "match", sep="\n")
    sys.exit(bool(bad))
