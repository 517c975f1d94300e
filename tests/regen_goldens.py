"""The CLI run behind every golden file in ``fixtures/``, in one table.

Usage, from the repository root::

    python tests/regen_goldens.py          # rewrite every golden from the program
    python tests/regen_goldens.py --check  # exit 1 naming each golden that differs

A run's name is the stem of its golden files.  Its arguments are given to
``simulatency`` with ``fixtures/`` as the working directory; ``{csv}`` and
``{json}`` stand for report files the run writes, kept as ``NAME.csv`` and
``NAME.json``.  Stderr is kept as ``NAME.stderr``, and stdout as
``NAME.stdout`` unless the run writes nothing there.  The exit code is part
of the table: a run that exits otherwise writes nothing, so that a changed
exit code is a deliberate edit here.  An intended change of output is made
by running this script and saying in CHANGES.md which goldens moved and why.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
RUN_CLI = "import sys; from simulatency.cli import main; sys.exit(main(sys.argv[1:]))"
REPORTS = ("csv", "json")

_EVAL_FILES = ("-o", "{csv}", "--json", "{json}")
_MIXED_CHAR2 = ("--granularity", "char:2", "--metrics", "al,al_ref,laal,atd,start_offset")

# name -> (exit code, arguments)
RUNS = {
    "speech_report": (0, ("eval", "speech_traces.jsonl", *_EVAL_FILES)),
    "speech_report_nca": (0, ("eval", "speech_traces.jsonl", "--timeline", "nca", *_EVAL_FILES)),
    "mixed_report": (0, ("eval", "mixed_traces.jsonl", *_EVAL_FILES)),
    "mixed_report_steps": (0, ("eval", "mixed_traces.jsonl", "--timeline", "steps", *_EVAL_FILES)),
    "mixed_report_char2": (0, ("eval", "mixed_traces.jsonl", *_MIXED_CHAR2, *_EVAL_FILES)),
    "evs_report": (0, ("evs", "evs_alignments.jsonl", "--mode", "verified-only", "-o", "{csv}")),
    "evs_report_automatic": (
        0, ("evs", "evs_alignments.jsonl", "--mode", "automatic", "-o", "{csv}")
    ),
    **{
        f"concat_{corpus}_{pairing}_{shift}": (
            2, ("concat", f"{corpus}_traces.jsonl", "--pairing", pairing, "--shift", shift)
        )
        for corpus in ("speech", "mixed")
        for pairing in ("adjacent", "sliding")
        for shift in ("relative", "absolute")
    },
    "concat_contrast_relative": (0, ("concat", "contrast_traces.jsonl", "--shift", "relative")),
    "concat_contrast_absolute": (2, ("concat", "contrast_traces.jsonl", "--shift", "absolute")),
    "simulate_wait_k": (0, ("simulate", "--strategy", "wait-k", "--k", "1..3", "--src-len", "6", "--tgt-len", "5")),
    "simulate_chunk_k": (0, ("simulate", "--strategy", "chunk-k", "--k", "1..3", "--src-len", "6", "--tgt-len", "5")),
    "simulate_two_segment": (0, ("simulate", "--strategy", "two-segment", "--first-len", "1..3")),
    # n=4 takes the exact permutation p-value, n=9 the t approximation
    "correlate_mixed": (0, ("correlate", "mixed_report.csv", "--col-a", "al", "--col-b", "atd")),
    "correlate_mixed_steps": (
        0, ("correlate", "mixed_report_steps.csv", "--col-a", "al", "--col-b", "atd", "-o", "-")
    ),
}


def run(name: str) -> tuple[int, dict[str, bytes]]:
    """Exit code and golden files (suffix -> bytes) of one run of the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    args = RUNS[name][1]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {suffix: os.path.join(tmp, f"report.{suffix}") for suffix in REPORTS}
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CLI, *(arg.format(**paths) for arg in args)],
            cwd=FIXTURES, capture_output=True, env=env,
        )
        files = {"stderr": proc.stderr}
        if proc.stdout:
            files["stdout"] = proc.stdout
        for suffix in REPORTS:
            if f"{{{suffix}}}" in args:
                files[suffix] = Path(paths[suffix]).read_bytes()
    return proc.returncode, files


def committed(name: str) -> dict[str, bytes]:
    """The golden files of run ``name`` in ``fixtures/`` (suffix -> bytes)."""
    return {path.suffix[1:]: path.read_bytes() for path in FIXTURES.glob(f"{name}.*")}


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__, file=sys.stderr)
        return 1
    failed = False
    for name, (code, _) in RUNS.items():
        got_code, files = run(name)
        if got_code != code:
            print(f"{name}: exit code {got_code}, the table says {code}", file=sys.stderr)
            failed = True
            continue
        old = committed(name)
        if files == old:
            continue
        if check:
            moved = sorted(s for s in files.keys() | old.keys() if files.get(s) != old.get(s))
            print(f"{name}: {', '.join(moved)} differ", file=sys.stderr)
            failed = True
            continue
        for suffix in old.keys() - files.keys():
            (FIXTURES / f"{name}.{suffix}").unlink()
        for suffix, data in files.items():
            (FIXTURES / f"{name}.{suffix}").write_bytes(data)
        print(f"{name}: rewritten", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
