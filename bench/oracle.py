"""Independent output oracle for the benchmark.

Expected values are computed from the decoded input records with literal
formulas; nothing here calls simulatency.  Each expectation's ``check``
takes one command's output and returns the ids of the input records that
failed: a record fails when it has no output row, an expected cell is empty,
or a value disagrees with the oracle.  A wrong corpus row fails every record.

Values are compared at the output's own formatting precision: half a unit in
the last place for ``.1f`` cells, and a relative 1e-9 for ``repr`` cells and
JSON numbers (the oracle sums in a different order than the program).
"""

from __future__ import annotations

import csv
import io
import json

STEP_COLUMNS = ("al", "al_ref", "laal", "dal", "ap", "cw", "atd")
ALL_COLUMNS = STEP_COLUMNS + ("start_offset", "end_offset")
SPEECH = ("speech-to-text", "speech-to-speech")


# ---------------------------------------------------------------------------
# metric formulas
# ---------------------------------------------------------------------------

def matched_inputs(reads: list[int]) -> list[int]:
    """ATD's input index: a(t) = t + min(0, min_{s<=t}(g_s - s))."""
    out, low = [], 0
    for t, g in enumerate(reads, start=1):
        low = min(low, g - t)
        out.append(t + low)
    return out


def step_metrics(reads: list[int], n_src: int, ref_len: int | None) -> dict[str, float]:
    n_tgt = len(reads)
    cut = next((t for t, g in enumerate(reads, start=1) if g == n_src), n_tgt)

    def al(r: float) -> float:
        return sum(reads[t - 1] - (t - 1) / r for t in range(1, cut + 1)) / cut

    values = {"al": al(n_tgt / n_src)}
    if ref_len is not None:
        values["al_ref"] = al(ref_len / n_src)
        values["laal"] = al(max(n_tgt, ref_len) / n_src)

    step = n_src / n_tgt
    smoothed, dal = 0.0, 0.0
    for t, g in enumerate(reads, start=1):
        smoothed = g if t == 1 else max(g, smoothed + step)
        dal += smoothed - (t - 1) * step
    values["dal"] = dal / n_tgt
    values["ap"] = sum(reads) / (n_src * n_tgt)
    bursts = sum(1 for prev, g in zip([0] + reads, reads) if g > prev)
    values["cw"] = n_src / bursts

    # T(y_t) = t + 1 + max_{s<=t}(g_s - s)
    high, total = None, 0
    for t, (g, a) in enumerate(zip(reads, matched_inputs(reads)), start=1):
        high = g - t if high is None else max(high, g - t)
        total += t + 1 + high - a
    values["atd"] = total / n_tgt
    return values


def subtoken_ends(start: int, end: int, tau: int) -> list[int]:
    """Ends of a chunk's tau-sized sub-tokens: min(s + i*tau, e), i = 1..n."""
    n = max(1, -(-(end - start) // tau))
    return [min(start + i * tau, end) for i in range(1, n + 1)]


def nca_target(record: dict) -> list[tuple[int, int]]:
    """Re-schedule a ca target: each token starts at the later of its trigger's
    end and the previous output's end, keeping its duration."""
    out, prev_end = [], 0
    for tok in record["target"]:
        start = max(record["source"][tok["g"] - 1]["end"], prev_end)
        prev_end = start + tok["end"] - tok["start"]
        out.append((start, prev_end))
    return out


def timed_metrics(record: dict, target: list[tuple[int, int]], tau: int) -> dict[str, float]:
    source = [(tok["start"], tok["end"]) for tok in record["source"]]
    reads = [tok["g"] for tok in record["target"]]
    src_ends = [e for _, e in source]
    tgt_ends = [e for _, e in target]
    if record["modality"] in SPEECH:
        src_ends, cumulative = [], []
        for s, e in source:
            src_ends.extend(subtoken_ends(s, e, tau))
            cumulative.append(len(src_ends))
        reads = [cumulative[g - 1] for g in reads]
        if record["modality"] == "speech-to-speech":
            pieces = [subtoken_ends(s, e, tau) for s, e in target]
            reads = [g for g, p in zip(reads, pieces) for _ in p]
            tgt_ends = [e for p in pieces for e in p]
    atd = sum(
        tgt_ends[t] - src_ends[a - 1] for t, a in enumerate(matched_inputs(reads))
    ) / len(tgt_ends)
    return {
        "atd": atd,
        "start_offset": target[0][0] - source[0][0],
        "end_offset": target[-1][1] - source[-1][1],
    }


# ---------------------------------------------------------------------------
# expected reports
# ---------------------------------------------------------------------------

class EvalExpectation:
    """Expected ``eval`` report under the default metric set, word granularity."""

    def __init__(self, records: list[dict], timeline: str | None = None, tau: int = 300):
        self.rows: dict[str, tuple[list[str], dict[str, float], bool]] = {}
        for rec in records:
            kind = rec["timeline"]
            head = [rec["modality"], kind, str(len(rec["source"])), str(len(rec["target"]))]
            if kind == "steps" or timeline == "steps":
                ref = rec.get("reference")
                ref_len = (len(ref.split()) or None) if ref is not None else None
                values = step_metrics([t["g"] for t in rec["target"]], len(rec["source"]), ref_len)
                self.rows[rec["id"]] = (head, values, False)
                continue
            if timeline not in (None, kind, "nca"):
                raise ValueError(f"oracle cannot realize {timeline!r} from {kind!r}")
            target = (
                nca_target(rec) if timeline == "nca" and kind == "ca"
                else [(t["start"], t["end"]) for t in rec["target"]]
            )
            self.rows[rec["id"]] = (head, timed_metrics(rec, target, tau), True)
        self.columns = [
            c for c in ALL_COLUMNS if any(c in v for _, v, _ in self.rows.values())
        ]
        self.corpus = {}
        for c in self.columns:
            present = [v[c] for _, v, _ in self.rows.values() if c in v]
            self.corpus[c] = sum(present) / len(present)
        self.corpus_ms = all(ms for _, _, ms in self.rows.values())

    def check(self, stdout: str, report: str | None = None) -> set[str]:
        """Failed record ids in the CSV on stdout and, if given, the JSON report."""
        failed = self.check_csv(stdout)
        return failed if report is None else failed | self.check_json(report)

    def check_csv(self, text: str) -> set[str]:
        found = _csv_rows(text, ["id", "modality", "timeline", "src_len", "tgt_len", *self.columns])
        if found is None or not self._row_ok(found, "corpus", ["", "", "", ""], self.corpus, self.corpus_ms):
            return set(self.rows)
        return {
            sid for sid, (head, values, ms) in self.rows.items()
            if not self._row_ok(found, sid, head, values, ms)
        }

    def _row_ok(self, found: dict, sid: str, head: list[str], values: dict, ms: bool) -> bool:
        got = found.get(sid, [])
        if len(got) != 1 or got[0][1:5] != head:
            return False
        return all(
            _cell_ok(cell, values[c], _fixed(c, ms)) if c in values else cell == ""
            for c, cell in zip(self.columns, got[0][5:])
        )

    def check_json(self, text: str) -> set[str]:
        try:
            report = json.loads(text)
            sessions = {s["id"]: s for s in report["sessions"]}
            corpus_ok = (
                report["corpus"]["n_sessions"] == len(self.rows)
                and len(sessions) == len(report["sessions"])
                and _same_numbers(report["corpus"]["metrics"], self.corpus)
            )
        except (ValueError, KeyError, TypeError):
            return set(self.rows)
        if not corpus_ok:
            return set(self.rows)
        failed = set()
        for sid, (head, values, _) in self.rows.items():
            s = sessions.get(sid, {})
            got = [s.get("modality"), s.get("timeline"), str(s.get("src_len")), str(s.get("tgt_len"))]
            if got != head or not _same_numbers(s.get("metrics"), values):
                failed.add(sid)
        return failed


def _csv_rows(text: str, header: list[str]) -> dict[str, list[list[str]]] | None:
    """Rows by id (a list, to expose duplicates), or None on a wrong header
    or a row of the wrong width."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return None
    found: dict[str, list[list[str]]] = {}
    for row in rows[1:]:
        if len(row) != len(header):
            return None
        found.setdefault(row[0], []).append(row)
    return found


def _fixed(column: str, timed_ms: bool) -> bool:
    """Whether the program writes this column with one decimal (ms) or repr."""
    return column in ("start_offset", "end_offset") or (column == "atd" and timed_ms)


def _cell_ok(cell: str, want: float, fixed: bool) -> bool:
    try:
        got = float(cell)
    except ValueError:  # empty cells included
        return False
    slack = 0.05 if fixed else 0.0
    return abs(got - want) <= slack + 1e-9 * max(1.0, abs(want))


def _same_numbers(got, want: dict[str, float]) -> bool:
    return (
        isinstance(got, dict)
        and set(got) == set(want)
        and all(
            isinstance(got[k], (int, float)) and abs(got[k] - v) <= 1e-9 * max(1.0, abs(v))
            for k, v in want.items()
        )
    )


class ConcatExpectation:
    """Expected ``concat --pairing adjacent --shift relative`` output."""

    def __init__(self, records: list[dict]):
        self.pairs = [((a["id"], b["id"]), _concat(a, b)) for a, b in zip(records[0::2], records[1::2])]
        # an odd record out is left unpaired and has no output row
        self.unpaired = {records[-1]["id"]} if len(records) % 2 else set()

    def check(self, text: str, report: None = None) -> set[str]:
        found: dict[str, list] = {}
        for line in text.splitlines():
            try:
                rec = json.loads(line)
                found.setdefault(rec["id"], []).append(rec)
            except (ValueError, KeyError, TypeError):
                continue
        failed = set(self.unpaired)
        for ids, want in self.pairs:
            if found.get(want["id"]) != [want]:
                failed.update(ids)
        return failed


def _concat(a: dict, b: dict) -> dict:
    """b's times move past a's last event; its reads count a's source first."""
    timed = a["timeline"] != "steps"
    shift = max(a["source"][-1]["end"], a["target"][-1]["end"]) if timed else 0

    def moved(tok: dict, g_offset: int = 0) -> dict:
        out = dict(tok)
        if timed:
            out["start"] = tok["start"] + shift
            out["end"] = tok["end"] + shift
        if "g" in tok:
            out["g"] = tok["g"] + g_offset
        return out

    out = {
        "id": f"{a['id']}+{b['id']}",
        "modality": a["modality"],
        "timeline": a["timeline"],
        "source": a["source"] + [moved(t) for t in b["source"]],
        "target": a["target"] + [moved(t, len(a["source"])) for t in b["target"]],
    }
    if "reference" in a and "reference" in b:
        out["reference"] = f"{a['reference']} {b['reference']}"
    if "spans" in a or "spans" in b:
        out["spans"] = a.get("spans", []) + [
            {"kind": s["kind"], "start": s["start"] + shift, "end": s["end"] + shift}
            for s in b.get("spans", [])
        ]
    return out


class EvsExpectation:
    """Expected ``evs`` report in the default verified-only mode."""

    def __init__(self, records: list[dict]):
        self.rows: dict[str, tuple[str, str, float | None]] = {}
        means = []
        for rec in records:
            unique = dict.fromkeys(
                (l["src"], l["tgt"], l["src_start"], l["tgt_start"], l["verified"])
                for l in rec["links"]
            )
            spans = [tgt - src for _, _, src, tgt, ok in unique if ok]
            mean = sum(spans) / len(spans) if spans else None
            if mean is not None:
                means.append(mean)
            self.rows[rec["id"]] = (str(len(rec["links"])), str(len(spans)), mean)
        self.corpus = ("", "", sum(means) / len(means) if means else None)

    def check(self, text: str, report: None = None) -> set[str]:
        found = _csv_rows(text, ["id", "n_links", "n_used", "mean_evs"])
        if found is None or not _evs_row_ok(found.get("corpus", []), self.corpus):
            return set(self.rows)
        return {sid for sid, want in self.rows.items() if not _evs_row_ok(found.get(sid, []), want)}


def _evs_row_ok(got: list[list[str]], want: tuple) -> bool:
    if len(got) != 1 or tuple(got[0][1:3]) != want[:2]:
        return False
    if want[2] is None:
        return got[0][3] == ""
    return _cell_ok(got[0][3], want[2], fixed=True)
