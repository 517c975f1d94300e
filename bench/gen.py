"""Seeded corpus generator for the benchmark workloads.

Every corpus is a pure function of (workload, seed, size): the same arguments
give byte-identical files, and the program under test only ever sees the
files.  Times are integer milliseconds, as the trace format requires.

Together the workloads cover all three modalities and all three timelines:
``eval_speech_nca`` holds speech-to-speech and speech-to-text sessions on
``ca`` (most, with computation spans) and ``nca``; ``eval_text_steps`` holds
text-to-text unit-step sessions; ``concat_write`` holds ``ca`` sessions of
all three modalities, stored so that adjacent records share modality and
timeline, because ``concat`` refuses a mismatched pair.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random

S2S = "speech-to-speech"
S2T = "speech-to-text"
T2T = "text-to-text"

TAU_MS = 300

_SYLLABLES = ("ka", "lo", "mi", "tru", "sen", "da", "vor", "ne", "pi", "zu", "ré", "ü")


def _vocab(rng: random.Random, n: int = 400) -> list[str]:
    words = set()
    while len(words) < n:
        words.add("".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(1, 3))))
    return sorted(words)


def _schedule(rng: random.Random, n_src: int, n_tgt: int) -> list[int]:
    """A monotone read schedule g(1..n_tgt) in 1..n_src, emitted in chunks.

    Most schedules end on the last source token; the rest stop early, which
    exercises the AL cut-off fallback.
    """
    k = rng.randint(1, min(5, n_src))
    rate = n_src / n_tgt
    reads: list[int] = []
    g = k
    while len(reads) < n_tgt:
        reads.extend([g] * min(rng.randint(1, 4), n_tgt - len(reads)))
        g = min(n_src, max(g + 1, round(k + len(reads) * rate * rng.uniform(0.8, 1.2))))
    if rng.random() < 0.85:
        reads[-1] = n_src
    return reads


def _duration(rng: random.Random, lo: int, hi: int) -> int:
    # exact multiples of tau hit the sub-segmentation boundary case
    if rng.random() < 0.05:
        return rng.choice((TAU_MS, 2 * TAU_MS))
    return rng.randint(lo, hi)


def timed_session(
    rng: random.Random,
    vocab: list[str],
    sid: str,
    modality: str,
    timeline: str,
    spans: str,
    reference: bool = False,
    mean_len: int = 35,
) -> dict:
    """One timed session.  ``spans`` is "full", "empty" or "none".

    On ``ca`` each output chunk waits for a computation interval after the
    source token that triggered it; on ``nca`` it starts as soon as both the
    trigger and the previous output have ended.
    """
    n_src = max(4, round(rng.gauss(mean_len, mean_len / 3.5)))
    n_tgt = max(3, round(n_src * rng.uniform(0.7, 1.3)))
    t = rng.randint(0, 500)
    source = []
    for _ in range(n_src):
        start = t + (rng.randint(1, 250) if rng.random() < 0.3 else 0)
        end = start + _duration(rng, 80, 700)
        source.append({"text": rng.choice(vocab), "start": start, "end": end})
        t = end

    reads = _schedule(rng, n_src, n_tgt)
    speech_out = modality == S2S
    target = []
    computation = []
    prev_end = 0
    prev_g = None
    for g in reads:
        trigger = source[g - 1]["end"]
        if g != prev_g:
            ready = trigger
            if timeline == "ca":
                compute = rng.randint(40, 900)
                computation.append({"kind": "decode", "start": trigger, "end": trigger + compute})
                ready = trigger + compute
            start = max(ready, prev_end)
        else:
            start = prev_end + rng.randint(0, 40)
        dur = _duration(rng, 100, 650) if speech_out else rng.randint(1, 200)
        target.append({"text": rng.choice(vocab), "start": start, "end": start + dur, "g": g})
        prev_end = start + dur
        prev_g = g

    record = {"id": sid, "modality": modality, "timeline": timeline,
              "source": source, "target": target}
    if reference:
        n_ref = max(1, round(n_tgt * rng.uniform(0.85, 1.15)))
        record["reference"] = " ".join(rng.choice(vocab) for _ in range(n_ref))
    if spans == "full":
        record["spans"] = computation
    elif spans == "empty":
        record["spans"] = []
    return record


def steps_session(rng: random.Random, vocab: list[str], sid: str) -> dict:
    """One text-to-text unit-step session with a reference, ~200 source tokens."""
    n_src = min(400, max(60, round(rng.gauss(200, 50))))
    n_tgt = max(10, round(n_src * rng.uniform(0.8, 1.25)))
    n_ref = max(1, round(n_tgt * rng.uniform(0.85, 1.15)))
    reads = _schedule(rng, n_src, n_tgt)
    return {
        "id": sid,
        "modality": T2T,
        "timeline": "steps",
        "source": [{"text": rng.choice(vocab)} for _ in range(n_src)],
        "target": [{"text": rng.choice(vocab), "g": g} for g in reads],
        "reference": " ".join(rng.choice(vocab) for _ in range(n_ref)),
    }


def alignment_sentence(rng: random.Random, sid: str) -> dict:
    """~30 links, ~70% verified, ~5% exact duplicates of an earlier link."""
    n = rng.randint(20, 40)
    links = []
    for _ in range(n):
        if links and rng.random() < 0.05:
            links.append(dict(rng.choice(links)))
            continue
        src_start = rng.randint(0, 20000)
        links.append({
            "src": rng.randint(1, 60),
            "tgt": rng.randint(1, 60),
            "src_start": src_start,
            "tgt_start": max(0, src_start + rng.randint(-500, 4000)),
            "verified": rng.random() < 0.7,
        })
    if not any(link["verified"] for link in links):
        links[0]["verified"] = True
    return {"id": sid, "links": links}


def _speech_kinds(rng: random.Random):
    """Endless (modality, timeline, spans) for ``eval_speech_nca``.

    Each block of 150 holds exactly 2/3 speech-to-speech and 1/3
    speech-to-text, crossed with 20% ``nca`` without spans, 12% ``ca`` with an
    empty span list and 68% ``ca`` with spans, in a seeded order.  Exact shares
    make corpora of different seeds cost about the same to score; the nca
    records in particular are much cheaper than the rest.
    """
    while True:
        block = []
        for i in range(150):  # gcd(3, 50) = 1: every (i % 3, i % 50) once
            modality = S2T if i % 3 == 0 else S2S
            k = i % 50
            block.append((modality, "nca", "none") if k < 10 else
                         (modality, "ca", "empty") if k < 16 else (modality, "ca", "full"))
        rng.shuffle(block)
        yield from block


def _concat_pair(rng: random.Random, vocab: list[str], i: int) -> list[dict]:
    modality = (S2S, S2T, T2T)[i % 3]
    return [
        timed_session(
            rng, vocab, f"cc{i}{side}", modality, "ca",
            rng.choice(("full", "empty", "none")), reference=rng.random() < 0.5,
        )
        for side in "ab"
    ]


def generate(workload: str, seed: int, n: int) -> list[dict]:
    """``n`` records of ``workload`` (``n`` pairs' worth for ``concat_write``)."""
    rng = random.Random(f"{workload}:{seed}")
    vocab = _vocab(rng)
    if workload == "eval_speech_nca":
        kinds = _speech_kinds(rng)
        return [timed_session(rng, vocab, f"sp{i}", *next(kinds)) for i in range(n)]
    if workload == "eval_text_steps":
        return [steps_session(rng, vocab, f"st{i}") for i in range(n)]
    if workload == "concat_write":
        return [rec for i in range(n) for rec in _concat_pair(rng, vocab, i)]
    if workload == "evs_links":
        return [alignment_sentence(rng, f"al{i}") for i in range(n)]
    raise ValueError(f"unknown workload {workload!r}")


def dump(records: list[dict]) -> bytes:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode("utf-8")


def write_corpus(path: str, records: list[dict]) -> str:
    """Write JSONL and return its sha256."""
    data = dump(records)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as fp:
        fp.write(data)
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    """Write ``corpus.jsonl`` and its one-record set-up input ``setup.jsonl``
    (one pair for concat_write) to ``--dir`` and print their record counts,
    sizes and sha256 as JSON."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    info = {}
    for tag, n in (("corpus", args.size), ("setup", 1)):
        records = generate(args.workload, args.seed, n)
        path = os.path.join(args.dir, f"{tag}.jsonl")
        info[tag] = {"records": len(records), "sha256": write_corpus(path, records),
                     "bytes": os.path.getsize(path)}
    print(json.dumps(info))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
