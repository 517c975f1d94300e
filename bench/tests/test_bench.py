"""Tests of the benchmark itself: generator, oracle, tracer and contract.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
FIXTURES = os.path.join(ROOT, "fixtures")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from simulatency import cli, trace_io  # noqa: E402

SMALL = {"eval_speech_nca": 60, "eval_text_steps": 20, "concat_write": 30, "evs_links": 60}


def cli_run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp]


def workload_output(name: str, tmp_path) -> tuple[list[dict], object, str, str | None]:
    """Records, oracle expectation, stdout and JSON report of a small corpus."""
    records = gen.generate(name, 3, SMALL[name])
    corpus = str(tmp_path / "corpus.jsonl")
    gen.write_corpus(corpus, records)
    report = str(tmp_path / "report.json")
    wl = run.WORKLOADS[name]
    stdout = cli_run(wl.argv(corpus, report))
    json_text = open(report, encoding="utf-8").read() if wl.writes_report else None
    return records, wl.expect(records), stdout, json_text


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    a = gen.dump(gen.generate(name, 11, SMALL[name]))
    assert a == gen.dump(gen.generate(name, 11, SMALL[name]))
    assert a != gen.dump(gen.generate(name, 12, SMALL[name]))
    # the command-line entry point writes the same bytes
    for d in ("x", "y"):
        subprocess.run([sys.executable, os.path.join(BENCH, "gen.py"), "--workload", name,
                        "--seed", "11", "--size", str(SMALL[name]), "--dir", str(tmp_path / d)],
                       check=True, capture_output=True)
    assert (tmp_path / "x" / "corpus.jsonl").read_bytes() == (tmp_path / "y" / "corpus.jsonl").read_bytes() == a


def test_workloads_cover_every_modality_and_timeline():
    kinds = {
        (rec["modality"], rec["timeline"])
        for name in ("eval_speech_nca", "eval_text_steps", "concat_write")
        for rec in gen.generate(name, 1, 200)
    }
    assert {m for m, _ in kinds} == {"speech-to-speech", "speech-to-text", "text-to-text"}
    assert {t for _, t in kinds} == {"ca", "nca", "steps"}


def test_speech_records_carry_spans_and_concat_pairs_match():
    speech = gen.generate("eval_speech_nca", 1, 300)
    ca = [r for r in speech if r["timeline"] == "ca"]
    assert all("spans" in r for r in ca)
    assert any(r["spans"] == [] for r in ca) and any(r["spans"] for r in ca)
    assert 0 < len(speech) - len(ca) < len(ca)  # a minority already on nca
    pairs = gen.generate("concat_write", 1, 60)
    assert all(
        (a["modality"], a["timeline"]) == (b["modality"], b["timeline"])
        for a, b in zip(pairs[0::2], pairs[1::2])
    )


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_agrees_with_cli_on_contrast_traces(tmp_path):
    path = os.path.join(FIXTURES, "contrast_traces.jsonl")
    records = load(path)
    report = str(tmp_path / "r.json")
    timed = oracle.EvalExpectation(records)
    assert timed.columns == ["atd", "start_offset", "end_offset"]
    assert timed.check(cli_run(["eval", path, "--json", report]), open(report).read()) == set()
    steps = oracle.EvalExpectation(records, timeline="steps")
    assert steps.columns == ["al", "dal", "ap", "cw", "atd"]
    assert steps.check(cli_run(["eval", "--timeline", "steps", path])) == set()
    assert oracle.ConcatExpectation(records).check(cli_run(["concat", path])) == set()


def test_oracle_agrees_with_cli_on_contrast_alignments():
    path = os.path.join(FIXTURES, "contrast_alignments.jsonl")
    assert oracle.EvsExpectation(load(path)).check(cli_run(["evs", path])) == set()


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_oracle_agrees_with_cli_on_each_workload(name, tmp_path):
    _, expectation, stdout, report = workload_output(name, tmp_path)
    assert expectation.check(stdout, report) == set()


def test_closed_forms_match_the_recurrences():
    reads = [2, 2, 2, 3, 7, 7, 8, 8, 8, 8, 9]
    a, t_out, atd = 0, 0, 0.0
    for t, g in enumerate(reads, start=1):
        a = min(a + 1, g)
        t_out = max(g, t_out) + 1
        assert oracle.matched_inputs(reads)[t - 1] == a
        atd += t_out - a
    assert oracle.step_metrics(reads, 9, None)["atd"] == pytest.approx(atd / len(reads))
    assert oracle.subtoken_ends(100, 700, 300) == [400, 700]
    assert oracle.subtoken_ends(100, 701, 300) == [400, 700, 701]


def _perturb_csv(text: str, row: int, column: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    cells[column] = value
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("name", ["eval_speech_nca", "eval_text_steps", "evs_links"])
def test_one_perturbed_csv_cell_is_one_failure(name, tmp_path):
    records, expectation, stdout, report = workload_output(name, tmp_path)
    cell = stdout.splitlines()[2].split(",")[-1]
    shifted = _perturb_csv(stdout, 2, -1, repr(float(cell) + 0.1))
    assert expectation.check(shifted, report) == {records[1]["id"]}
    assert expectation.check(_perturb_csv(stdout, 2, -1, ""), report) == {records[1]["id"]}
    lines = stdout.splitlines(keepends=True)
    assert expectation.check("".join(lines[:2] + lines[3:]), report) == {records[1]["id"]}


def test_one_perturbed_json_value_is_one_failure(tmp_path):
    records, expectation, stdout, report = workload_output("eval_speech_nca", tmp_path)
    doc = json.loads(report)
    doc["sessions"][4]["metrics"]["atd"] += 0.001
    assert expectation.check(stdout, json.dumps(doc)) == {records[4]["id"]}


def test_one_perturbed_concat_time_fails_its_pair(tmp_path):
    records, expectation, stdout, _ = workload_output("concat_write", tmp_path)
    lines = stdout.splitlines()
    rec = json.loads(lines[3])
    rec["target"][-1]["end"] += 1
    lines[3] = json.dumps(rec, ensure_ascii=False)
    assert expectation.check("\n".join(lines) + "\n") == {records[6]["id"], records[7]["id"]}


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_spans_nest_and_patches_are_restored(tmp_path):
    records = gen.generate("eval_speech_nca", 2, 40)
    corpus = str(tmp_path / "c.jsonl")
    gen.write_corpus(corpus, records)
    originals = {attr: getattr(cli, attr) for mod, attr, _ in tracer.PATCHES if mod == "cli"}
    t = tracer.Tracer()
    saved = t.install({"cli": cli, "trace_io": trace_io})
    try:
        stdout = cli_run(["eval", "--timeline", "nca", corpus])
    finally:
        tracer.Tracer.restore(saved)
    assert {attr: getattr(cli, attr) for attr in originals} == originals

    assert oracle.EvalExpectation(records, timeline="nca").check(stdout) == set()
    top = [s for s in t.spans if s[3] is None]
    assert [s[0] for s in top] == ["cli.cmd_eval"]
    assert sum(t.self_time.values()) == pytest.approx(top[0][2] - top[0][1], rel=0.05)
    for name, start, end, parent, rid in t.spans:
        if parent is not None:
            p = t.spans[parent]
            assert p[1] <= start <= end <= p[2]
        if name in ("metrics_time.atd_timed", "core.subsegment_session"):
            assert rid in {r["id"] for r in records}
    values = t.layer_metrics()
    assert values["trace_io.records"] == 40
    assert values["trace_io.tokens"] == sum(len(r["source"]) + len(r["target"]) for r in records)
    assert values["core.subtokens_per_token"] > 1


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        bench = json.load(fp)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "evs_links", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_crashed_run_is_a_failure_and_no_sample(tmp_path):
    missing = run.Input(workload=run.WORKLOADS["evs_links"], path=str(tmp_path / "missing.jsonl"),
                        report=str(tmp_path / "r.json"), records=5, sha256="", size_bytes=0)
    assert run.launch(missing, str(tmp_path / "stderr.txt")) is None
    assert (missing.crashed, missing.attempted(), missing.outputs) == (1, 5, {})


def test_calibration_is_fixed_work(tmp_path):
    # calibrate() checks the checksum line, so this fails if the work changes
    assert run.calibrate(str(tmp_path / "stderr.txt")).cpu > 0


def test_rounds_are_scaled_to_the_reference_speed():
    # a host at half the reference speed: calibration runs take twice as long
    slow = run.Run(wall=2 * run.REFERENCE_WALL, first_row=0.0, cpu=2 * run.REFERENCE_CPU, maxrss_kib=0)
    full = run.Run(wall=1.0, first_row=0.4, cpu=0.8, maxrss_kib=2048)
    setup = run.Run(wall=0.2, first_row=0.1, cpu=0.1, maxrss_kib=1024)
    samples = run.scaled_samples([(full, setup), (None, setup)], [slow, slow, slow], records=100)
    assert samples == {
        "records_per_s": [pytest.approx(200.0)],
        "cpu_ms_per_record": [pytest.approx(4.0)],
        "first_row_s": [pytest.approx(0.2)],
        "peak_rss_mb": [2.0],
        "setup_s": [pytest.approx(0.1), pytest.approx(0.1)],
    }
