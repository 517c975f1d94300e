"""Run-to-run spread of the benchmark across seeds.

    python3 bench/spread.py --workload eval_text_steps --seeds 1-10 --seconds 25 --out FILE

Runs ``run.py`` once per seed (one at a time) and, for every metric in the
last output line, prints the median of the per-seed values and their spread:
the distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median.  End-to-end spreads are compared with a third
of the metric's bound in ``BENCHMARK.json``.  ``--out`` writes every run's
result record (without its samples and raw times) plus the summary; the
committed baseline was made this way.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True,
                        help="repeat for several workloads, or 'all'")
    parser.add_argument("--seeds", default="1-10", help='"1-10" or "7"')
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]] if args.workload == ["all"] else args.workload

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            last = json.loads(lines[-1])
            ok &= last["correct"]
            path = os.path.join(ROOT, ".bench_work", "results",
                                f"{name}-seed{seed}-trace{args.trace}.json")
            with open(path, encoding="utf-8") as fp:
                result = json.load(fp)
            # quartiles of the samples stay in "metrics"
            result.pop("samples")
            result.pop("raw", None)
            runs.append(result)
            print(f"{name} seed {seed}: " + "  ".join(
                f"{m}={v['value']:.5g}" for m, v in last["metrics"].items()), flush=True)

        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            summary[metric] = {"median": median, "values": values}
            if len(values) > 1 and median:
                summary[metric]["spread"] = spread(values)
        report["workloads"][name] = {"summary": summary, "runs": runs}
        for metric, s in summary.items():
            line = f"  {metric:34s} median {s['median']:.6g}"
            if "spread" in s:
                line += f"  spread {s['spread']:.3f}"
                bound = bounds.get(metric)
                if bound is not None:
                    line += "  ok" if s["spread"] < bound / 3 else f"  WIDE (bound/3 = {bound / 3:.3f})"
            print(line)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=1)
            fp.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
