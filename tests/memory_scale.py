"""Peak RSS of ``eval``, ``concat`` and ``evs`` at two corpus sizes.

    python3 tests/memory_scale.py [--sizes 500 2000] [--seed 7]

Writes ``bench/gen.py`` corpora of each size (records, ``--sizes``) to a
temporary directory, runs each command below once on each corpus in a fresh
interpreter on the program in ``src/``, reading its stdout through a pipe
and discarding it, and prints the child's peak RSS (``ru_maxrss`` from
``os.wait4``), the time to its first stdout line and its wall time.  Last
it prints, for each command, the slope of the peak between the two sizes in
KiB per record, so that memory which grows with the corpus shows as one
number.  The commands:

- ``eval`` on ``eval_text_steps``;
- ``eval --timeline nca --json`` on ``eval_speech_nca``;
- ``concat --pairing adjacent`` and ``concat --pairing sliding`` on
  ``eval_text_steps``;
- ``concat --pairing adjacent --shift relative`` on ``concat_write`` (timed
  speech pairs with spans; ``bench/gen.py`` sizes it in pairs, so it is
  asked for half the records);
- ``evs`` on ``evs_links``;
- ``eval`` and ``concat`` on ``eval_text_steps`` with every token text made
  distinct, the corpus in which no word repeats.

A peak includes the interpreter's start-up size, and is at least this
script's own RSS at the fork, so the script holds no corpus in memory:
``bench/gen.py`` writes each one in a process of its own.  pytest does not
collect this file, and nothing under ``bench/`` is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEN = os.path.join(ROOT, "bench", "gen.py")
SHIM = "import sys; from simulatency.cli import main; sys.exit(main())"

# (label, corpus, CLI arguments before the corpus path)
RUNS = (
    ("eval", "text", ["eval"]),
    ("eval --timeline nca --json", "speech", ["eval", "--timeline", "nca", "--json", os.devnull]),
    ("concat --pairing adjacent", "text", ["concat", "--pairing", "adjacent"]),
    ("concat --pairing sliding", "text", ["concat", "--pairing", "sliding"]),
    ("concat --pairing adjacent --shift relative", "pairs",
     ["concat", "--pairing", "adjacent", "--shift", "relative"]),
    ("evs", "links", ["evs"]),
    ("eval", "distinct text", ["eval"]),
    ("concat --pairing adjacent", "distinct text", ["concat", "--pairing", "adjacent"]),
)

WORKLOADS = {"text": "eval_text_steps", "speech": "eval_speech_nca", "links": "evs_links",
             "pairs": "concat_write"}


def write_distinct_texts(path: str, out: str) -> None:
    """The corpus at ``path`` with a running number appended to every token
    text, written to ``out`` a record at a time."""
    n = 0
    with open(path, encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            for entry in record["source"] + record["target"]:
                n += 1
                entry["text"] = f"{entry['text']}.{n}"
            dst.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_corpora(directory: str, size: int, seed: int) -> dict[str, str]:
    paths = {}
    for corpus, workload in WORKLOADS.items():
        out = os.path.join(directory, f"{workload}_{size}")
        subprocess.run(
            [sys.executable, GEN, "--workload", workload, "--seed", str(seed),
             "--size", str(size // 2 if workload == "concat_write" else size), "--dir", out],
            check=True, stdout=subprocess.DEVNULL,
        )
        paths[corpus] = os.path.join(out, "corpus.jsonl")
    paths["distinct text"] = os.path.join(directory, f"distinct_text_{size}.jsonl")
    write_distinct_texts(paths["text"], paths["distinct text"])
    return paths


def run_once(argv: list[str]) -> tuple[float, float, float]:
    """Peak RSS in MiB, and the seconds to the first stdout line and to the
    exit, of one CLI run; raises on a non-zero exit."""
    with tempfile.TemporaryFile() as err:  # a file, so a long stderr cannot block the child
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SHIM, *argv], stdout=subprocess.PIPE, stderr=err,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        proc.stdout.readline()
        first_line = time.perf_counter() - start
        while proc.stdout.read(1 << 16):  # drained, not kept
            pass
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            stderr = err.read().decode(errors="replace")
            raise RuntimeError(f"{argv}: exit {proc.returncode}: {stderr[-500:]}")
    return usage.ru_maxrss / 1024, first_line, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs=2, default=[500, 2000], metavar="N")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.sizes[0] == args.sizes[1]:
        parser.error("--sizes needs two different sizes")
    print(f"{'command':<42} {'corpus':<14} {'records':>7} {'peak MiB':>9} {'first s':>7} "
          f"{'wall s':>7}")
    rows = []
    peaks: dict[int, list[float]] = {size: [] for size in args.sizes}  # MiB, in RUNS order
    with tempfile.TemporaryDirectory() as directory:
        for size in args.sizes:
            paths = write_corpora(directory, size, args.seed)
            for label, corpus, cli in RUNS:
                rss, first, wall = run_once([*cli, paths[corpus]])
                peaks[size].append(rss)
                print(f"{label:<42} {corpus:<14} {size:>7} {rss:>9.1f} {first:>7.3f} {wall:>7.2f}",
                      flush=True)
                rows.append({"command": label, "corpus": corpus, "records": size,
                             "peak_rss_mib": round(rss, 1), "first_line_s": round(first, 3),
                             "wall_s": round(wall, 2)})
    first_size, second_size = args.sizes
    print(f"\n{'command':<42} {'corpus':<14} {'KiB/record':>10}")
    slopes = []
    for (label, corpus, _), (rss_a, rss_b) in zip(RUNS, zip(peaks[first_size], peaks[second_size])):
        slope = (rss_b - rss_a) * 1024 / (second_size - first_size)
        print(f"{label:<42} {corpus:<14} {slope:>10.2f}")
        slopes.append({"command": label, "corpus": corpus, "kib_per_record": round(slope, 2)})
    print(json.dumps({"seed": args.seed, "python": sys.version.split()[0], "rows": rows,
                      "slopes": slopes}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
