#!/usr/bin/env python3
"""Benchmark of the qcpn CLI and scripts: one workload per invocation.

    python3 perfbench/run.py --workload kbasis --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; qcpn is imported from ``src/`` and
the scripts from ``scripts/``.  The loop is closed and single-threaded:
each operation (one CLI command through ``qcpn.cli.run`` with stdout
captured, or one script ``run``) starts when the previous one and its
check have finished.  Passes over the workload's fixed item list run in
blocks of ``BLOCK`` passes; blocks repeat until ``--seconds`` have
elapsed, and the last block is always completed.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``setup_s``: median wall time of repeated cold starts of a fresh
  interpreter running the workload's smallest CLI command;
* ``wall_s`` / ``cpu_s``: wall and process CPU time of one pass.  Within a
  block, each item's fastest time over the block's passes is taken, and
  these are summed over the items; the metric is the mean of these sums
  over the blocks.  Every block has the same number of passes, so the
  estimate does not depend on how many passes fit into the run.  Checks
  run outside the clock;
* ``peak_rss_mib``: peak resident memory of this process.  Checks run in
  forked children, so this is the peak of the program's operations.

With ``--trace 1`` wrappers from ``layers.py`` are installed and the last
line reports per-layer numbers of one pass (medians over passes); the
span trace is written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SCRIPTS = ("certify_range", "fuzz_campaign")
COLD_STARTS = 15
BLOCK = 2  # passes per block; wall_s and cpu_s take each item's fastest time within a block


class OpFailed(Exception):
    """An operation exited nonzero or raised."""


class Runner:
    """Performs operations, timing each one; keeps the times of the
    current item and the output size of the current pass."""

    def __init__(self, cli, scripts: dict):
        self.cli_module = cli
        self.scripts = scripts
        self.attempted = self.failed = 0
        self.new_pass()
        self.new_item()

    def new_pass(self) -> None:
        self.output_bytes = 0  # CLI envelopes only; script reports print timings

    def new_item(self) -> None:
        self.wall = self.cpu = 0.0

    def _timed(self, label: str, call) -> str:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = call()
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code
        except Exception as exc:  # a fault in the program: counted, reported, run goes on
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            self.wall += time.perf_counter() - wall
            self.cpu += time.process_time() - cpu
        text = out.getvalue()
        if rc != 0:
            self.failed += 1
            raise OpFailed(f"{label}: exit {rc} {err.getvalue().strip()[:200]}")
        return text

    def cli(self, argv: list) -> str:
        # looked up on every call so that a traced run sees the wrapper
        text = self._timed("qcpn " + " ".join(argv), lambda: self.cli_module.run(argv))
        self.output_bytes += len(text)  # envelopes are ASCII
        return text

    def script(self, name: str, argv: list) -> str:
        mod = self.scripts[name]
        return self._timed(f"{name} " + " ".join(argv), lambda: mod.run(mod.parse_args(argv)))


def load_program():
    """Import qcpn from ``src/`` and the scripts from ``scripts/``."""
    missing = [p for p in ["src/qcpn/__init__.py"] + [f"scripts/{s}.py" for s in SCRIPTS] if not (ROOT / p).is_file()]
    if missing:
        sys.exit(f"run.py: not a qcpn source checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(ROOT / "src"))
    from qcpn import cli

    scripts = {}
    for name in SCRIPTS:
        spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
        mod = importlib.util.module_from_spec(spec)
        sys.modules[name] = mod
        spec.loader.exec_module(mod)
        scripts[name] = mod
    return cli, scripts


class ColdStarts:
    """Fresh interpreters running the workload's probe command.

    The starts are spread evenly over the run, between items, so that
    their median describes the whole run rather than its first seconds.
    """

    def __init__(self, workload, count: int, seconds: float):
        self.workload = workload
        self.count = count
        self.interval = seconds / count
        self.times: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), self.env.get("PYTHONPATH")]))
        self.start = time.perf_counter()

    def due(self) -> bool:
        return len(self.times) < self.count and time.perf_counter() - self.start >= len(self.times) * self.interval

    def one(self) -> None:
        cmd = [sys.executable, "-m", "qcpn", *self.workload.probe]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60)
        self.times.append(time.perf_counter() - start)
        checks.require(proc.returncode == 0, f"cold start exited {proc.returncode}: {proc.stderr[-200:]}")
        checks.isolated(self.workload.check_probe, proc.stdout)


def run_item(runner: Runner, item, errors: list) -> tuple[float, float]:
    """Run one item; returns the wall and CPU seconds of its operations."""
    runner.new_item()
    before = runner.attempted
    try:
        item.run(runner)
    except OpFailed as exc:
        errors.append(f"failed: {exc}")
        # the rest of the item is not attempted; count it, so every pass has the same size
        rest = item.ops - (runner.attempted - before)
        runner.attempted += rest
        runner.failed += rest
    except checks.CheckError as exc:
        errors.append(f"wrong output: {item.label[:80]}: {exc}")
        runner.attempted = before + item.ops  # the run is not correct; keep the pass size
    if runner.attempted - before != item.ops:
        raise RuntimeError(f"item {item.label!r} declares {item.ops} operations")
    return runner.wall, runner.cpu


def fastest_sum(block: list, field: int) -> float:
    """Sum over items of each item's fastest time in a block of passes;
    ``field`` 0 is wall time, 1 is CPU time."""
    return sum(min(t[field] for t in item) for item in zip(*block))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, scripts = load_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    errors: list[str] = []

    cold = None if args.trace else ColdStarts(workload, COLD_STARTS, args.seconds)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer, list(scripts.values()))

    def cold_start():
        try:
            cold.one()
        except checks.CheckError as exc:
            errors.append(f"cold start: {exc}")

    runner = Runner(cli, scripts)
    passes = []  # per pass: [(wall s, cpu s) per item], per-layer numbers
    start = time.perf_counter()
    while len(passes) % BLOCK or time.perf_counter() - start < args.seconds:
        runner.new_pass()
        before = tracer.snapshot() if tracer else None
        times = []
        for item in workload.items:
            times.append(run_item(runner, item, errors))
            while cold and cold.due():
                cold_start()
        per_layer = layers.layer_metrics(before, tracer.snapshot(), runner.output_bytes) if tracer else {}
        passes.append((times, per_layer))
    while cold and len(cold.times) < cold.count:
        cold_start()

    for line in errors[:20]:
        print(line, file=sys.stderr)
    item_times = [times for times, _ in passes]
    pass_walls = [sum(w for w, _ in times) for times in item_times]
    blocks = [item_times[i:i + BLOCK] for i in range(0, len(passes), BLOCK)]
    # An item's time is its fastest over the passes of a block.  Contention
    # from other work on a shared host only ever adds time, in phases that
    # can last longer than a run, and a median of passes follows those
    # phases.  Every block has the same number of passes, so a faster
    # program, which fits more passes into the run, gets more blocks but
    # the same estimate per block.
    wall_s = statistics.fmean(fastest_sum(block, 0) for block in blocks)
    if tracer:
        metrics = {
            name: {"value": statistics.median(p[1][name] for p in passes), "unit": layers.unit_of(name)}
            for name in passes[0][1]
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(cold.times) if cold.times else 0.0, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": statistics.fmean(fastest_sum(block, 1) for block in blocks), "unit": "s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }

    result = {"correct": not errors, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        extra = {"wall_s": wall_s, "pass_wall_s": pass_walls, "setup_samples_s": cold.times if cold else [],
                 "item_times_s": item_times}
        json.dump({**result, **extra}, fh, indent=1)
    if tracer:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", {"workload": args.workload, "seed": args.seed})

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes "
          f"in {len(blocks)} blocks, "
          f"{len(workload.items)} items, {runner.attempted} operations, {runner.failed} failed, "
          f"{len(errors)} errors")
    print(f"  pass wall_s {' '.join(f'{w:.3f}' for w in pass_walls)}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
