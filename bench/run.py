"""End-to-end and per-layer benchmark of the simulatency CLI.

    python3 bench/run.py --workload eval_speech_nca --seed 1 --seconds 20 --trace 0

Run from anywhere; paths are resolved against the repository root, and the
program under test is the one in ``src/``.  ``--workload all`` runs every
workload in turn.

``--trace 0`` generates the workload's corpus from the seed, then runs the
workload's ``simulatency`` command as a subprocess in a closed loop: the
benchmark is the only client, starts one process at a time and no threads.
After one discarded warm-up, each round runs the full corpus once and the
one-record set-up input once, until ``--seconds`` have passed.  Timings and
per-child rusage (``os.wait4``) give the end-to-end metrics.

``--trace 1`` runs the same command in-process, alternating untraced runs
with runs traced by ``tracer.py``, and reports per-layer self times and
counts plus the tracing overhead, with times scaled in the same way as below.

Every end-to-end metric is the median over the run's rounds.  The host's
speed changes from moment to moment and stays low for minutes at a time, so
``calibrate.py``, fixed work that does not use the program, runs before the
first round and after every round, and each round's times are scaled by the
mean of the two calibration runs around it to the speed at which
``calibrate.py`` takes ``REFERENCE_WALL`` and ``REFERENCE_CPU`` (README.md
gives the reasons and the spreads).  Runs that exit non-zero are counted as failed and left out of the
timings.  The quartiles of every metric and the raw times of every run are
kept in the results record.

Every output is checked against ``oracle.py`` outside the timed interval.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the Python version, CPU
count, seed and corpus hashes, goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import logging
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import oracle
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# what the installed ``simulatency`` console script runs
SHIM = "import sys; from simulatency.cli import main; sys.exit(main())"

MIN_ROUNDS = 3

CALIBRATE = os.path.join(HERE, "calibrate.py")
CALIBRATION_OUTPUT = b"0dd57c95e4d431b3c6b2414ce004c71309053868561e1fa46ddfb710c55e2fd2\n"


@dataclass(frozen=True)
class Workload:
    size: int  # records (pairs for concat_write) in the timed corpus
    argv: Callable[[str, str], list[str]]  # (corpus, JSON report path) -> CLI arguments
    expect: Callable[[list[dict]], object]  # records -> oracle expectation
    writes_report: bool = False
    metric_column: int | None = None  # first CSV column holding metric cells


# Sizes give about 0.5 s per full-corpus run on a 2-CPU machine, so that a
# run of 25 s holds some twenty-five rounds to take the median of.  The set-up
# input is the first record (for concat_write the first pair, since concat
# needs two sessions).
WORKLOADS = {
    "eval_speech_nca": Workload(
        size=450,
        argv=lambda corpus, report: ["eval", "--timeline", "nca", "--json", report, corpus],
        expect=lambda records: oracle.EvalExpectation(records, timeline="nca"),
        writes_report=True, metric_column=5,
    ),
    "eval_text_steps": Workload(
        size=220,
        argv=lambda corpus, report: ["eval", corpus],
        expect=oracle.EvalExpectation, metric_column=5,
    ),
    "concat_write": Workload(
        size=320,
        argv=lambda corpus, report: ["concat", "--pairing", "adjacent", "--shift", "relative", corpus],
        expect=oracle.ConcatExpectation,
    ),
    "evs_links": Workload(
        size=2000,
        argv=lambda corpus, report: ["evs", corpus],
        expect=oracle.EvsExpectation, metric_column=3,
    ),
}

END_TO_END_UNITS = {
    "records_per_s": "records/s",
    "cpu_ms_per_record": "ms",
    "first_row_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in tracer.LAYERS},
    "core.subtokens_per_token": "ratio",
    "evs.useful_link_ratio": "ratio",
    **{count: "count" for count in tracer.COUNTS},
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Input:
    """One generated corpus and the distinct outputs the program gave for it.

    Outputs are only stored while measuring and checked against the oracle
    afterwards, so the benchmark process stays small while it starts
    children: on Linux a child's ``ru_maxrss`` is at least the parent's
    resident size when it forked.
    """

    workload: Workload
    path: str
    report: str
    records: int
    sha256: str
    size_bytes: int
    outputs: dict = field(default_factory=dict)  # digest -> [stdout, report, runs]
    crashed: int = 0  # runs that exited non-zero

    def record(self, code: int, stdout: bytes) -> bool:
        """Store one run's output; False if the run crashed."""
        if code != 0:
            self.crashed += 1
            return False
        report = b""
        if self.workload.writes_report:
            try:
                with open(self.report, "rb") as fp:
                    report = fp.read()
            except FileNotFoundError:
                self.crashed += 1
                return False
        key = hashlib.sha256(stdout + b"\0" + report).digest()
        self.outputs.setdefault(key, [stdout, report, 0])[2] += 1
        return True

    def attempted(self) -> int:
        return self.records * (self.crashed + sum(runs for _, _, runs in self.outputs.values()))

    def failed(self) -> int:
        """Failed records over every recorded run."""
        with open(self.path, encoding="utf-8") as fp:
            expectation = self.workload.expect([json.loads(line) for line in fp])
        failed = self.records * self.crashed
        for stdout, report, runs in self.outputs.values():
            ids = expectation.check(
                stdout.decode("utf-8", "replace"),
                report.decode("utf-8", "replace") if self.workload.writes_report else None,
            )
            if ids:
                print(f"bench: {len(ids)} records disagree with the oracle, e.g. {sorted(ids)[:3]}",
                      file=sys.stderr)
            failed += len(ids) * runs
        return failed


def write_inputs(name: str, seed: int) -> dict[str, Input]:
    """Write the corpus and set-up input from a separate process."""
    wl = WORKLOADS[name]
    out = os.path.join(WORK, name)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", name,
         "--seed", str(seed), "--size", str(wl.size), "--dir", out],
        capture_output=True, text=True, check=True,
    )
    info = json.loads(proc.stdout)
    return {
        tag: Input(
            workload=wl,
            path=os.path.join(out, f"{tag}.jsonl"),
            report=os.path.join(out, f"{tag}_report.json"),
            records=meta["records"],
            sha256=meta["sha256"],
            size_bytes=meta["bytes"],
        )
        for tag, meta in info.items()
    }


def summary(values: list[float], unit: str, best=statistics.median) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"value": best(values), "unit": unit, "p25": q[0], "median": q[1], "p75": q[2],
            "n": len(values)}


# ---------------------------------------------------------------------------
# end-to-end (--trace 0)
# ---------------------------------------------------------------------------

@dataclass
class Run:
    wall: float
    first_row: float
    cpu: float
    maxrss_kib: int


# calibrate.py's fastest wall and CPU time (s) over 60 runs on the 2.1 GHz
# Xeon the benchmark was built on: timings are reported at that speed
REFERENCE_WALL = 0.128
REFERENCE_CPU = 0.125


def spawn(cmd: list[str], stderr_path: str) -> tuple[int, bytes, Run]:
    """Run ``cmd`` once: its exit code, its stdout, the time to its first
    stdout line and to its exit, and its own rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT,
        )
        try:
            first = proc.stdout.readline()
            first_row = time.perf_counter() - start
            rest = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, first + rest, Run(wall, first_row, usage.ru_utime + usage.ru_stime,
                                              usage.ru_maxrss)


def launch(inp: Input, stderr_path: str) -> Run | None:
    """Run the CLI once on ``inp``; None if the run crashed."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(inp.report)
    argv = inp.workload.argv(inp.path, inp.report)
    code, stdout, run = spawn([sys.executable, "-c", SHIM, *argv], stderr_path)
    if code != 0:
        with open(stderr_path, encoding="utf-8", errors="replace") as fp:
            print(f"bench: exit {code}: {fp.read()[-2000:]}", file=sys.stderr)
    return run if inp.record(code, stdout) else None


def pin_to_one_cpu() -> None:
    """Children inherit the affinity: every run and the calibration runs that
    scale it share one CPU, whose speed the calibration then tracks."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate(stderr_path: str) -> Run:
    code, stdout, run = spawn([sys.executable, CALIBRATE], stderr_path)
    if code != 0 or stdout != CALIBRATION_OUTPUT:
        raise SystemExit(f"bench: calibrate.py exited {code} with output {stdout[:100]!r}")
    return run


def scaled_samples(rounds: list[tuple[Run | None, Run | None]], calibration: list[Run],
                   records: int) -> dict[str, list[float]]:
    """Per-round end-to-end samples at the reference speed.

    Round ``i`` ran between ``calibration[i]`` and ``calibration[i + 1]``;
    their mean gives the host's speed while it ran.  Crashed runs (None)
    give no sample.
    """
    samples: dict[str, list[float]] = {m: [] for m in END_TO_END_UNITS}
    for (full, setup), before, after in zip(rounds, calibration, calibration[1:]):
        wall_scale = 2 * REFERENCE_WALL / (before.wall + after.wall)
        cpu_scale = 2 * REFERENCE_CPU / (before.cpu + after.cpu)
        if full is not None:
            samples["records_per_s"].append(records / (full.wall * wall_scale))
            samples["cpu_ms_per_record"].append(1000 * full.cpu * cpu_scale / records)
            samples["first_row_s"].append(full.first_row * wall_scale)
            samples["peak_rss_mb"].append(full.maxrss_kib / 1024)
        if setup is not None:
            samples["setup_s"].append(setup.wall * wall_scale)
    return samples


def end_to_end(name: str, inputs: dict[str, Input], seconds: int) -> dict:
    full, setup = inputs["corpus"], inputs["setup"]
    stderr_path = os.path.join(WORK, name, "stderr.txt")
    pin_to_one_cpu()
    launch(full, stderr_path)  # warm-up, discarded
    launch(setup, stderr_path)
    calibrate(stderr_path)
    calibration = [calibrate(stderr_path)]
    rounds: list[tuple[Run | None, Run | None]] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append((launch(full, stderr_path), launch(setup, stderr_path)))
        calibration.append(calibrate(stderr_path))

    samples = scaled_samples(rounds, calibration, full.records)
    if not samples["records_per_s"] or not samples["setup_s"]:
        raise SystemExit(f"bench: every run of {name} exited non-zero")
    return {
        "metrics": {m: summary(v, END_TO_END_UNITS[m]) for m, v in samples.items()},
        "samples": samples,
        "raw": {
            "full": [None if f is None else vars(f) for f, _ in rounds],
            "setup": [None if s is None else vars(s) for _, s in rounds],
            "calibration": [vars(c) for c in calibration],
        },
    }


# ---------------------------------------------------------------------------
# per layer (--trace 1)
# ---------------------------------------------------------------------------

def load_program() -> dict:
    sys.path.insert(0, SRC)
    import simulatency.cli
    import simulatency.trace_io

    if not os.path.abspath(simulatency.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported simulatency from {simulatency.cli.__file__}, not {SRC}")
    # a handler on the root logger makes the CLI's basicConfig a no-op, so
    # warnings are counted but not printed
    logging.getLogger().addHandler(logging.NullHandler())
    return {"cli": simulatency.cli, "trace_io": simulatency.trace_io}


def per_layer(name: str, inputs: dict[str, Input], seconds: int) -> dict:
    full = inputs["corpus"]
    wl = full.workload
    modules = load_program()
    out_path = os.path.join(WORK, name, "stdout.txt")
    spans_path = os.path.join(WORK, name, "spans.jsonl")
    argv = wl.argv(full.path, full.report)

    def once(t: tracer.Tracer | None) -> tuple[float, bytes] | None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(full.report)
        gc.collect()
        saved = t.install(modules) if t is not None else []
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as fp, \
                    contextlib.redirect_stdout(fp):
                start = time.perf_counter()
                code = modules["cli"].main(argv)
                total = time.perf_counter() - start
        finally:
            tracer.Tracer.restore(saved)
        with open(out_path, "rb") as fp:
            stdout = fp.read()
        return (total, stdout) if full.record(code, stdout) else None

    stderr_path = os.path.join(WORK, name, "stderr.txt")
    pin_to_one_cpu()
    once(None)  # warm-up, discarded
    calibrate(stderr_path)
    calibration = [calibrate(stderr_path)]
    rounds: list[tuple[float, float, dict] | None] = []  # untraced, traced, layer values
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        t = tracer.Tracer()
        # alternate which run follows the calibration run, so that neither
        # always starts on caches the calibration has just used
        if len(rounds) % 2:
            origin = time.perf_counter()
            measured, plain = once(t), once(None)
        else:
            plain, origin = once(None), time.perf_counter()
            measured = once(t)
        calibration.append(calibrate(stderr_path))
        if plain is None or measured is None:
            rounds.append(None)
            continue
        total, stdout = measured
        values = t.layer_metrics()
        if wl.metric_column is not None:
            values["cli.empty_cells"] = tracer.empty_cells(stdout.decode("utf-8"), wl.metric_column)
        rounds.append((plain[0], total, values))
        t.write_spans(spans_path, origin)

    # in-process times are wall times: scale them like the end-to-end rounds
    scaled = []  # (untraced, traced, scale, layer values) per round that ran
    for r, before, after in zip(rounds, calibration, calibration[1:]):
        if r is not None:
            scale = 2 * REFERENCE_WALL / (before.wall + after.wall)
            scaled.append((scale * r[0], scale * r[1], scale, r[2]))
    if not scaled:
        raise SystemExit(f"bench: every run of {name} exited non-zero")
    metrics = {
        m: summary([scale * v[m] for _, _, scale, v in scaled], unit) if unit == "s" else
        summary([v[m] for _, _, _, v in scaled], unit, statistics.median_low)
        for m, unit in LAYER_UNITS.items() if m in scaled[0][3]
    }
    unstable = [m for m in tracer.COUNTS if len({v[m] for _, _, _, v in scaled}) != 1]
    if unstable:
        print(f"bench: counts differ between identical runs: {unstable}", file=sys.stderr)
    metrics["trace.untraced_s"] = summary([u for u, _, _, _ in scaled], "s")
    # each round's traced run minus its untraced neighbour
    metrics["trace.overhead_s"] = summary([t - u for u, t, _, _ in scaled], "s")
    resolved = metrics["trace.overhead_s"]["p25"] > 0
    if not resolved:
        print(f"bench: tracing overhead {metrics['trace.overhead_s']['value']:.4g} s is unresolved: "
              f"fewer than three rounds in four ran slower traced", file=sys.stderr)
    return {
        "metrics": metrics,
        "samples": {"untraced_s": [u for u, _, _, _ in scaled], "traced_s": [t for _, t, _, _ in scaled]},
        "raw": {"rounds": [None if r is None else r[:2] for r in rounds],
                "calibration": [vars(c) for c in calibration]},
        "overhead_resolved": resolved,
        "unstable_counts": unstable,
        "spans": os.path.relpath(spans_path, ROOT),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    inputs = write_inputs(name, seed)
    if trace:
        del inputs["setup"]
        result = per_layer(name, inputs, seconds)
    else:
        result = end_to_end(name, inputs, seconds)
    attempted = sum(inp.attempted() for inp in inputs.values())
    failed = sum(inp.failed() for inp in inputs.values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "corpora": {
            tag: {"records": inp.records, "bytes": inp.size_bytes, "sha256": inp.sha256}
            for tag, inp in inputs.items()
        },
        "correct": failed == 0 and not result.get("unstable_counts"),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        **result,
    }


def print_result(result: dict) -> None:
    corpus = result["corpora"]["corpus"]
    print(f"{result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"{corpus['records']} records  {corpus['bytes']} bytes  sha256 {corpus['sha256'][:16]}")
    for m, v in result["metrics"].items():
        print(f"  {m:34s} {v['value']:12.6g} {v['unit']:10s}  median {v['median']:.6g}"
              f"  p25 {v['p25']:.6g}  p75 {v['p75']:.6g}  n={v['n']}")
    print(f"  {'failed_ratio':34s} {result['failed_ratio']:12.6g} {'ratio':10s}"
          f"  {result['failed']} of {result['attempted']} records")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "simulatency", "cli.py")):
        print(f"bench: no program to measure: {SRC}/simulatency/cli.py is missing", file=sys.stderr)
        return 2

    if args.workload == "all":
        # one process per workload, so none inherits another's memory high-water mark
        return max(
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        )

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(result, fp, indent=1)
    print_result(result)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v["value"], "unit": v["unit"]}
                    for m, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
