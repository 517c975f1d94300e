"""Fixed reference work that measures the host's speed, not the program's.

    python3 bench/calibrate.py

``run.py`` runs this script as a child process between the rounds of a
workload and scales each round's timings by how long the runs on either side
of it took (see README.md).  It does what the CLI does, in the same
proportions: it starts an interpreter, decodes JSON lines, walks lists and
dicts, does float arithmetic and formats a CSV, all on records built from a
fixed seed.  It imports nothing from ``src/``, so a change to the program
cannot change it.  It prints one checksum line, always the same.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

RECORDS = 900


def main() -> None:
    rng = random.Random(20231124)
    lines = [
        json.dumps({
            "id": f"c{i}",
            "elapsed": sorted(rng.randint(0, 30000) for _ in range(30)),
            "links": [[rng.randint(0, 40), rng.randint(0, 40), rng.random() < 0.7] for _ in range(30)],
        })
        for i in range(RECORDS)
    ]
    out = io.StringIO()
    for line in lines:
        rec = json.loads(line)
        seen = set()
        lags = []
        for src, tgt, verified in rec["links"]:
            if verified and (src, tgt) not in seen:
                seen.add((src, tgt))
                lags.append(rec["elapsed"][tgt % 30] - rec["elapsed"][src % 30])
        gaps = [b - a for a, b in zip(rec["elapsed"], rec["elapsed"][1:])]
        mean = sum(lags) / len(lags) if lags else 0.0
        out.write(f"{rec['id']},{mean:.1f},{max(gaps)},{len(seen)}\n")
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())


if __name__ == "__main__":
    main()
