"""Digests of every output of a fixed matrix of CLI runs over bench corpora.

Usage, from the repository root::

    python tests/regen_digests.py          # rewrite fixtures/corpus_digests.json
    python tests/regen_digests.py --check  # exit 1 naming each run that differs

The inputs are small seed-1 corpora from ``bench/gen.py``, written to a
temporary directory.  Each run's exit code is kept, and its stdout, stderr
and every ``-o`` and ``--json`` file as a sha256, so the manifest pins the
bytes of reports too large to commit as goldens.  An intended change of output is made
by running this script and saying in CHANGES.md which digests moved and why.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from regen_goldens import REPORTS, ROOT, RUN_CLI

MANIFEST = ROOT / "fixtures" / "corpus_digests.json"
SEED = 1

# input name -> (bench workload, records; pairs for concat_write)
CORPORA = {
    "speech": ("eval_speech_nca", 60),
    "text": ("eval_text_steps", 30),
    "pairs": ("concat_write", 40),
    "links": ("evs_links", 300),
}

_EVAL_FILES = ("-o", "{csv}", "--json", "{json}")
_EVAL_VARIANTS = {
    "native": (),
    "ca": ("--timeline", "ca"),
    "nca": ("--timeline", "nca"),
    "steps": ("--timeline", "steps"),
    "char2": ("--granularity", "char:2"),
    "strict": ("--strict", "--metrics", "atd,end_offset,al"),
}

# run name -> arguments; "{speech}" and the like stand for the corpus files
RUNS = {
    **{
        f"eval_{corpus}_{variant}": ("eval", f"{{{corpus}}}", *flags, *_EVAL_FILES)
        for corpus in ("speech", "text", "pairs")
        for variant, flags in _EVAL_VARIANTS.items()
    },
    # sub-segmentation at two tau: most speech chunks split into 3 or more
    # pieces at 120 ms, and mostly stay one piece at 1000 ms
    **{
        f"eval_speech_nca_tau{tau}": ("eval", "{speech}", "--timeline", "nca", "--tau", tau, *_EVAL_FILES)
        for tau in ("120", "1000")
    },
    "evs_verified_only": ("evs", "{links}", "--mode", "verified-only", "-o", "{csv}"),
    "evs_automatic": ("evs", "{links}", "--mode", "automatic", "-o", "{csv}"),
    "concat_adjacent_relative": ("concat", "{pairs}"),
    # absolute shifting breaks the source order of the first pair: exit 2
    "concat_adjacent_absolute": ("concat", "{pairs}", "--shift", "absolute"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_corpora(directory: str) -> dict[str, str]:
    """Write each corpus to ``directory``; returns name -> path."""
    gen = _gen()
    paths = {}
    for name, (workload, size) in CORPORA.items():
        paths[name] = os.path.join(directory, f"{name}.jsonl")
        gen.write_corpus(paths[name], gen.generate(workload, SEED, size))
    return paths


def run(args: tuple[str, ...], corpora: dict[str, str], tmp: str) -> dict:
    """Exit code and digests (output -> sha256) of one run of the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    files = {suffix: os.path.join(tmp, f"report.{suffix}") for suffix in REPORTS}
    for path in files.values():
        if os.path.exists(path):
            os.remove(path)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *(arg.format(**corpora, **files) for arg in args)],
        cwd=tmp, capture_output=True, env=env,
    )
    digests = {
        "exit": proc.returncode,
        "stdout": _sha256(proc.stdout),
        "stderr": _sha256(proc.stderr),
    }
    for suffix, path in files.items():
        if f"{{{suffix}}}" in args:
            digests[suffix] = _sha256(Path(path).read_bytes()) if os.path.exists(path) else None
    return digests


def manifest() -> dict:
    """The manifest the program gives now: input and run digests."""
    with tempfile.TemporaryDirectory() as tmp:
        corpora = write_corpora(tmp)
        return {
            "seed": SEED,
            "inputs": {
                name: {"workload": CORPORA[name][0], "size": CORPORA[name][1],
                       "sha256": _sha256(Path(path).read_bytes())}
                for name, path in corpora.items()
            },
            "runs": {name: run(args, corpora, tmp) for name, args in RUNS.items()},
        }


def differences(got: dict, committed: dict) -> list[str]:
    """Names of the inputs and runs whose digests differ, and of those
    present on only one side."""
    out = []
    for section in ("inputs", "runs"):
        a, b = got.get(section, {}), committed.get(section, {})
        out += [f"{section}.{name}" for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)]
    return out


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print(__doc__, file=sys.stderr)
        return 1
    got = manifest()
    if check:
        moved = differences(got, json.loads(MANIFEST.read_text(encoding="utf-8")))
        for name in moved:
            print(f"{name}: differs", file=sys.stderr)
        return 1 if moved else 0
    MANIFEST.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
