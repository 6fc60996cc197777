"""Benchmark of the hsnet command line: four workloads, end to end and by layer.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload
    python3 perfbench/run.py --self-test                      # benchmark checks

Run from the root of a checkout.  Each command is a fresh interpreter running
``python3 -m hsnet.cli`` on ``src/`` (``HSNET_THREADS=1``), started one at a
time; its output is checked before the next starts.  With ``--trace 1`` the
same commands run once untraced and then under ``perfbench/tracing.py``, and
the per-layer numbers are printed instead of the end-to-end ones.  Between
commands the runner also times ``perfbench/reference_work.py``, a fixed
workload that does not use hsnet, and scales every end-to-end time by its
mean time (see ``REFERENCE_NOMINAL_S``).  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench_work"
COMMAND_LIMIT_S = 150  # a command still running then is killed and fails
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10  # samples a tail percentile needs above it

# The shared CPU runs hsnet up to twice as fast at one moment as at another,
# for stretches of seconds to minutes.  A run therefore also times
# reference_work.py between commands, one sample for every REF_EVERY_S
# seconds of command time and one at each end, and reports every time as it
# would be on a machine where that workload takes REFERENCE_NOMINAL_S.
REFERENCE = os.path.join(HERE, "reference_work.py")
REF_EVERY_S = 1.5
REFERENCE_NOMINAL_S = 0.3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_p50_s": "s",
    "graphs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


class Runner:
    """Starts hsnet commands in a checkout, one at a time, and times them."""

    def __init__(self, root):
        self.root = root
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            HSNET_THREADS="1",
            PYTHONHASHSEED="0",
        )

    def check_import(self):
        """The hsnet the commands import must be the checkout's own."""
        out = subprocess.run(
            [sys.executable, "-c", "import hsnet.cli; print(hsnet.__file__)"],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=60,
        )
        where = out.stdout.strip()
        src = os.path.join(self.root, "src", "")
        if out.returncode != 0 or not where.startswith(src):
            raise SystemExit(f"hsnet does not import from {src}: {out.stderr.strip()}")

    def reference(self):
        """Wall time of one run of the reference workload."""
        start = time.perf_counter()
        out = subprocess.run([sys.executable, REFERENCE], cwd=self.root,
                             env=self.env, capture_output=True, timeout=60)
        wall = time.perf_counter() - start
        if out.returncode != 0 or not out.stdout.strip():
            raise SystemExit(f"reference workload failed: {out.stderr.decode()}")
        return wall

    def run(self, args, workdir, stats_path=None):
        """Run one command; returns (wall_s, peak_rss_kb, exit_code, stdout)."""
        if stats_path is None:
            argv = [sys.executable, "-m", "hsnet.cli"] + args
        else:
            argv = [sys.executable, os.path.join(HERE, "tracing.py"), stats_path] + args
        out_path = os.path.join(workdir, "stdout")
        with open(out_path, "wb") as out, \
                open(os.path.join(workdir, "stderr"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            return wall, usage.ru_maxrss, proc.returncode, fh.read()


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def build(name, seed, root, label):
    """Build the pass in a fresh directory; returns (commands, workdir, seconds)."""
    start = time.perf_counter()
    workdir = os.path.join(root, WORK, name, f"setup{label}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    commands = workloads.WORKLOADS[name](seed, load_reference(), workdir)
    return commands, workdir, time.perf_counter() - start


def set_up(name, seed, root):
    """Build the pass; returns (commands, workdir, [seconds])."""
    commands, workdir, seconds = build(name, seed, root, "")
    return commands, workdir, [seconds]


def run_command(runner, cmd, workdir, stats_path=None):
    """Run and check one command; returns (wall, peak_rss_kb, stats, problem)."""
    if stats_path and os.path.exists(stats_path):
        os.remove(stats_path)
    wall, rss, code, out = runner.run(cmd.args, workdir, stats_path)
    stats = None
    try:
        problem = cmd.check(code, out)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        problem = f"malformed output: {exc!r}"
    if stats_path and problem is None:
        try:
            with open(stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
        except (OSError, ValueError) as exc:
            problem = f"no trace written: {exc}"
    if problem:
        problem = f"{' '.join(cmd.args)}: {problem}"
    return wall, rss, stats, problem


def run_pass(runner, commands, workdir, traced):
    """One pass over the commands; returns (wall, samples, stats, problems)."""
    samples, stats, problems = [], [], []
    for i, cmd in enumerate(commands):
        stats_path = os.path.join(workdir, f"trace{i}.json") if traced else None
        wall, rss, trace, problem = run_command(runner, cmd, workdir, stats_path)
        samples.append((wall, rss))
        if trace is not None:
            stats.append(trace)
        if problem:
            problems.append(problem)
    return sum(w for w, _ in samples), samples, stats, problems


def measure_passes(runner, commands, workdir, seconds, start):
    """Repeat the traced pass while another one still fits in ``seconds``."""
    passes = []
    while True:
        passes.append(run_pass(runner, commands, workdir, traced=True))
        typical = statistics.median(p[0] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def measure(runner, commands, workdir, seconds, start, rebuild):
    """Cycle through the pass one command at a time, with reference runs in
    between, for at least one whole pass and while the next command still
    fits in ``seconds``.  Each reference run comes with one more set-up
    (``rebuild``), so that set-up is timed across the whole run, not in
    one burst whose samples all see the same moment of the CPU.  Returns (times
    per command, peak RSS per command, reference times, set-up times,
    problems)."""
    times = [[] for _ in commands]
    rss, refs, setups, problems = [], [], [], []
    command_s = 0.0
    done = 0

    def sample():
        refs.append(runner.reference())
        setups.append(rebuild())

    while True:
        while len(refs) < 1 + command_s / REF_EVERY_S:
            sample()
        k = done % len(commands)
        wall, peak, _, problem = run_command(runner, commands[k], workdir)
        times[k].append(wall)
        rss.append(peak)
        if problem:
            problems.append(problem)
        command_s += wall
        done += 1
        if done >= len(commands):
            upcoming = times[done % len(commands)]
            if time.perf_counter() - start + statistics.median(upcoming) > seconds:
                while len(refs) < 2 + command_s / REF_EVERY_S:
                    sample()
                return times, rss, refs, setups, problems


def trimmed_mean(values, share=0.1):
    """Mean without the highest and lowest ``share`` of the values.

    Times on the shared CPU are bimodal (fast and slow stretches), so a
    median jumps between the modes from run to run; a mean does not, and
    trimming keeps one stalled sample from pulling it."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def tail(walls):
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, by nearest rank; None when the run has too few commands."""
    ordered = sorted(walls)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def end_to_end(commands, times, rss, refs, setup_times):
    """Every time is scaled to a machine where the reference takes
    REFERENCE_NOMINAL_S; each command counts once, by its mean time.  The
    median command is estimated by the mean of the middle half of the
    commands: a pass has few samples of each command, so the one or two
    commands at the median alone would carry too few samples."""
    ref = trimmed_mean(refs)
    scale = REFERENCE_NOMINAL_S / ref
    per_command = [trimmed_mean(t) for t in times]
    walls = [w for t in times for w in t]
    wall = scale * sum(per_command)
    graphs = sum(c.graphs for c in commands)
    games = sum(c.games for c in commands)
    metrics = {
        "setup_s": scale * statistics.median(setup_times),
        "wall_s": wall,
        "cmd_p50_s": scale * trimmed_mean(per_command, 0.25),
        "graphs_per_s": graphs / wall,
        "peak_rss_mb": max(rss) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"a pass of {len(commands)}, each by its mean; "
                  f"{len(walls)} commands run",
        "cmd_p50_s": f"middle half of {len(commands)} per-command means, "
                     f"{len(walls)} samples",
        "graphs_per_s": f"{graphs} graphs a pass",
        "peak_rss_mb": f"largest of {len(walls)} commands",
    }
    extra = [
        ("reference_s", ref, "s", f"trimmed mean of {len(refs)} runs, "
                                  f"{min(refs):.4f}-{max(refs):.4f}"),
        ("raw_wall_s", sum(per_command), "s", "wall_s before scaling"),
        ("raw_cmd_p50_s", trimmed_mean(per_command, 0.25), "s",
         "cmd_p50_s before scaling"),
    ]
    t = tail(walls)
    if t:
        extra.append(("cmd_tail_s", scale * t[1], "s",
                      f"p{t[0]} of {len(walls)} samples"))
    else:
        extra.append(("cmd_tail_s", None, "s",
                      f"not reported: {len(walls)} samples, p50 needs {2 * TAIL_BEYOND}"))
    if games:
        extra.append(("games_per_s", games / wall, "1/s", f"{games} games a pass"))
    return metrics, notes, extra


def per_layer(untraced, traced):
    """Layer metrics of the traced passes, and any count that did not repeat."""
    runs = [tracing.layer_metrics(p[2]) for p in traced]
    absent = runs[0][1]
    metrics = {}
    unstable = []
    for name in tracing.LAYER_METRICS:
        values = [r[0][name] for r in runs]
        if name in tracing.DETERMINISTIC:
            if any(v != values[0] for v in values):
                unstable.append(f"{name} {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(p[0] for p in traced) - untraced[0]
    )
    return metrics, absent, unstable


def run_workload(name, seed, seconds, trace, root):
    runner = Runner(root)
    runner.check_import()
    commands, workdir, setup_times = set_up(name, seed, root)
    start = time.perf_counter()
    if trace:
        ref_start = runner.reference()
        untraced = run_pass(runner, commands, workdir, traced=False)
        passes = measure_passes(runner, commands, workdir, seconds, start)
        refs = [ref_start, runner.reference()]
        problems = untraced[3] + [msg for p in passes for msg in p[3]]
        attempted = len(untraced[1]) + sum(len(p[1]) for p in passes)
    else:
        times, rss, refs, setups, problems = measure(
            runner, commands, workdir, seconds, start,
            lambda: build(name, seed, root, "again")[2])
        setup_times += setups
        attempted = len(rss)
    shutil.rmtree(os.path.join(root, WORK), ignore_errors=True)

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}")
    print(f"  context  nproc {os.cpu_count()}  python {platform.python_version()}"
          f"  reference_s start {refs[0]:.4f} end {refs[-1]:.4f}")
    lines = []
    if trace:
        metrics, absent, unstable = per_layer(untraced, passes)
        problems += [f"count differs between traced passes: {u}" for u in unstable]
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead_s": "s"})
        for metric, value in metrics.items():
            shown = "absent" if metric in absent else f"{value:.6g}"
            lines.append((metric, shown, units[metric], ""))
        print(f"  traced passes {len(passes)}, one untraced pass for the overhead")
    else:
        metrics, notes, extra = end_to_end(commands, times, rss, refs, setup_times)
        units = END_TO_END
        for metric, value in metrics.items():
            lines.append((metric, f"{value:.6g}", units[metric], notes[metric]))
        for metric, value, unit, note in extra:
            lines.append((metric, "-" if value is None else f"{value:.6g}", unit, note))
    failed = len(problems)
    lines.append(("fail_ratio", f"{failed / attempted:.6g}", "1",
                  f"{failed} of {attempted} commands failed"))
    for metric, shown, unit, note in lines:
        print(f"  {metric:<44} {shown:>12} {unit:<6} {note}")
    for msg in problems:
        print(f"  FAILED {msg}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def self_test(names, seed, root):
    """Counts repeat on a second traced pass; checks reject broken outputs."""
    runner = Runner(root)
    runner.check_import()
    problems = []
    for name in names:
        before = len(problems)
        commands, workdir, _ = set_up(name, seed, root)
        first = run_pass(runner, commands, workdir, traced=True)
        second = run_pass(runner, commands, workdir, traced=True)
        problems += first[3] + second[3]
        counts = [tracing.layer_metrics(p[2])[0] for p in (first, second)]
        for metric in tracing.DETERMINISTIC:
            if counts[0][metric] != counts[1][metric]:
                problems.append(f"{name}: {metric} {counts[0][metric]} then "
                                f"{counts[1][metric]}")
        cmd = commands[0]
        _, _, code, out = runner.run(cmd.args, workdir)
        for label, bad_code, bad_out in corruptions(name, code, out):
            if cmd.check(bad_code, bad_out) is None:
                problems.append(f"{name}: check accepted {label}")
        print(f"self-test {name}: {len(commands)} commands, "
              f"{len(problems) - before} problems")
        shutil.rmtree(os.path.join(root, WORK), ignore_errors=True)
    for msg in problems:
        print(f"  FAILED {msg}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def corruptions(name, code, out):
    """Wrong outputs that the workload's check must reject."""
    yield "exit code 2", 2, out
    yield "truncated output", code, out[: len(out) // 2]
    data = json.loads(out)
    if name == "enumerate":
        graphs = data["graphs"]
        yield "a duplicated class", code, _dump(
            dict(data, graphs=graphs[:-1] + graphs[:1]))
        yield "a relabelled duplicate", code, _dump(
            dict(data, graphs=graphs[:-1] + [_relabel(graphs[-2])]))
    elif name == "sweep":
        cells = [dict(c) for c in data["cells"]]
        cells[-1]["best_value"] = "0/1"
        yield "a changed best value", code, _dump(dict(data, cells=cells))
        cells = [dict(c) for c in data["cells"]]
        cells[-1]["argmax_graphs"] = cells[-1]["argmax_graphs"][1:]
        yield "a missing argmax graph", code, _dump(dict(data, cells=cells))
    elif name == "design":
        yield "one changed byte", code, out[:-2] + b" " + out[-1:]
    elif name == "solve":
        n = data["n"]
        uniform = [str(1 / n) if data.get("float") else f"1/{n}"] * n
        yield "a non-equilibrium strategy", code, _dump(
            dict(data, hider_strategy=uniform))
        yield "a changed value", code, _dump(dict(data, value="1/7"))


def _dump(data):
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()


def _relabel(graph):
    n = graph["n"]
    return {"n": n, "edges": sorted(sorted(((i + 1) % n, (j + 1) % n))
                                    for i, j in graph["edges"])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS) + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hsnet", "cli.py")):
        print("error: run from the root of an hsnet checkout (no src/hsnet/cli.py)",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.self_test:
        return self_test(names, args.seed, root)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, root)
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
