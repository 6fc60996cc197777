"""Print one line per hsnet command: its exit code, the SHA-256 of its
standard output and of its standard error, its arguments, and after a ``|``
each side file it names (``--output``, ``--dot`` or ``--csv``, the files a
command writes besides standard output) with the file's SHA-256, or
``absent`` if the command wrote no such file.

    python3 tools/command_digests.py [CHECKOUT] > digests.txt

Each command is a fresh ``python3 -m hsnet.cli`` on CHECKOUT's ``src/``
(default: the checkout that holds this script), run one at a time in a
scratch directory that holds its input files, so the arguments name them by
a relative path and two checkouts print comparable lines.  ``diff`` of two
checkouts' outputs shows every command whose bytes or exit code moved.  The
commands:

* ``verify --n-max 7``, ``verify --long --n-max 8`` and
  ``verify --n-max 5 --mutate``, each at HSNET_THREADS = 1 and 2;
* ``verify --n-max 7 --csv``, and ``verify --n-max 4 --csv`` into a
  directory that does not exist, which must be refused;
* ``design`` at every size that a slot of the benchmark's ``design``
  workload can draw, and ``solve`` on the 20 graphs of its ``solve``
  workload, both read from ``perfbench/workloads.py``;
* ``design --n 1..15`` under linear beta = 0 and 2 and power beta = 1/2
  and 50, and ``design --n 13 --beta 2 --dot``;
* ``value-table --n 1 --n-max 50``, to standard output and with ``--output``;
* ``enumerate --n 0..8``, each with and without ``--count-only``;
* ``export`` of the first ``solve`` graph in each format.

HSNET_THREADS is 1 wherever a line does not name it.  The whole list takes
a few minutes, most of it in the n = 8 sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDE_FLAGS = ("--output", "--dot", "--csv")  # the flags that name a side file

sys.dont_write_bytecode = True  # leave perfbench/ as it is
sys.path.insert(0, ROOT)
from perfbench import workloads  # noqa: E402


def commands(workdir):
    """(threads, args) of every command, in order; the solve graphs are
    written into ``workdir``."""
    for threads in (1, 2):
        for args in (["--n-max", "7"], ["--long", "--n-max", "8"], ["--n-max", "5", "--mutate"]):
            yield threads, ["verify"] + args
    yield 1, ["verify", "--n-max", "7", "--csv", "verify7.csv"]
    yield 1, ["verify", "--n-max", "4", "--csv", "missing/verify4.csv"]
    sizes = []
    for centre, family, gamma, beta, topology in workloads.DESIGN_SLOTS:
        for n in workloads.design_sizes(centre, topology):
            args = workloads.design_args(n, family, gamma, beta)
            if args not in sizes:
                sizes.append(args)
    for args in sizes:
        yield 1, args
    graphs = []
    for name, family, gamma, n, edges, beta in workloads.solve_instances():
        path = name.replace(":", "_").replace("/", "-") + ".json"
        with open(os.path.join(workdir, path), "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": edges}, fh)
        graphs.append(path)
        yield 1, ["solve", "--graph", path] + workloads.utility_args(family, gamma, beta)
    for family, beta in (("linear", "0"), ("linear", "2"), ("power", "1/2"), ("power", "50")):
        for n in range(1, 16):
            yield 1, ["design", "--n", str(n), "--family", family, "--beta", beta]
    yield 1, ["design", "--n", "13", "--beta", "2", "--dot", "design13.dot"]
    yield 1, ["value-table", "--n", "1", "--n-max", "50"]
    yield 1, ["value-table", "--n", "1", "--n-max", "50", "--output", "table50.csv"]
    for n in range(9):
        yield 1, ["enumerate", "--n", str(n)]
        yield 1, ["enumerate", "--n", str(n), "--count-only"]
    for fmt in ("dot", "json", "text"):
        yield 1, ["export", "--graph", graphs[0], "--format", fmt]


def main(argv) -> int:
    root = os.path.abspath(argv[1] if len(argv) > 1 else ROOT)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "hsnet", "cli.py")):
        print(f"error: {root} is not an hsnet checkout (no src/hsnet/cli.py)", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        for threads, args in commands(workdir):
            env = dict(os.environ, PYTHONPATH=src, HSNET_THREADS=str(threads))
            out = subprocess.run([sys.executable, "-m", "hsnet.cli"] + args,
                                 cwd=workdir, env=env, capture_output=True)
            shown = " ".join(args) if threads == 1 else f"HSNET_THREADS={threads} " + " ".join(args)
            sides = [args[i + 1] for i, arg in enumerate(args[:-1]) if arg in SIDE_FLAGS]
            for path in sides:
                full = os.path.join(workdir, path)
                digest = "absent"
                if os.path.isfile(full):
                    with open(full, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    os.remove(full)
                shown += f" | {path} {digest}"
            print(out.returncode, hashlib.sha256(out.stdout).hexdigest(),
                  hashlib.sha256(out.stderr).hexdigest(), shown, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
