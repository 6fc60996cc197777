"""Write perfbench/reference.json from the hsnet CLI of the current checkout.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose outputs are trusted; the benchmark
then compares every later checkout against them.  It runs every input any
seed can draw (about four minutes on one core) and refuses to write the file
if a design lands on another topology than its slot intends or a solve
report fails the benchmark's own equilibrium check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads as wl


def require(ok, detail):
    if not ok:
        raise SystemExit(f"reference not written: {detail}")


def main():
    root = os.getcwd()
    runner = run.Runner(root)
    runner.check_import()
    workdir = os.path.join(root, run.WORK, "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    def cli(args):
        _, _, code, out = runner.run(args, workdir)
        return code, out

    code, out = cli(["enumerate", "--n", "7"])
    require(code == 0, code)
    graphs = json.loads(out)["graphs"]
    reference = {"enumerate": {"invariants": wl.invariants_of(graphs)}}

    betas = (wl.SWEEP_MANY,) + wl.SWEEP_FEW
    code, out = cli(["verify", "--n-max", "7", "--families",
                     ",".join(wl.SWEEP_FAMILIES), "--betas", ",".join(betas)])
    require(code in (0, 1), code)
    sweep = {}
    for cell, (n, fam, beta) in zip(
        json.loads(out)["cells"],
        [(n, f, b) for n in range(4, 8) for f in wl.SWEEP_FAMILIES for b in betas],
    ):
        require((cell["n"], cell["utility"]["family"]) == (n, fam), cell["utility"])
        argmax = cell.pop("argmax_graphs")
        cell["argmax_invariants"] = wl.invariants_of(argmax)
        sweep[wl.sweep_cell_key(n, fam, beta)] = cell
    reference["sweep"] = sweep

    design = {}
    for centre, family, gamma, beta, topology in wl.DESIGN_SLOTS:
        for n in wl.design_sizes(centre, topology):
            args = wl.design_args(n, family, gamma, beta)
            code, out = cli(args)
            require(code == 0, (args, code))
            got = json.loads(out)["topology"]
            want = "cycle" if topology == "cycle" else (
                "maximal_cp_odd" if n % 2 else "maximal_cp_even")
            require(got == want, (args, got, want))
            design[" ".join(args)] = wl.digest(out)
    reference["design"] = design

    solve = {}
    path = os.path.join(workdir, "graph.json")
    for name, family, gamma, n, edges, beta in wl.solve_instances():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"n": n, "edges": edges}, fh)
        code, out = cli(["solve", "--graph", path]
                        + wl.utility_args(family, gamma, beta))
        require(code == 0, (name, code))
        value = json.loads(out)["value"]
        problem = wl.solve_check(n, edges, family, gamma, beta, value)(code, out)
        require(problem is None, (name, problem))
        solve[name] = value
    reference["solve"] = solve

    shutil.rmtree(os.path.join(root, run.WORK), ignore_errors=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
