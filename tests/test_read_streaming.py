"""``concat`` and ``evs`` read their input one record at a time.

``concat`` joins each pair once its second session is read and writes the
joined record before it reads on; ``evs`` writes each sentence's row before
it reads the next.  So the first output leaves after one pair or one
sentence, a bad line leaves the output of the records before it, and only
the session before the one being read is held.  A ``-o`` file is replaced
only once the run succeeds, and a ``-o`` that would be written in place and
names the input is refused.

Each test wraps the per-record parse, ``trace_io.record_to_session`` or
``trace_io.record_to_alignment``, to see stdout, and which records are still
alive, whenever a record is about to be parsed.
"""

import gc
import os
import shutil
import weakref

import pytest

from simulatency import TraceFormatError, read_alignments, read_sessions, trace_io
from simulatency.cli import main

from test_eval_streaming import FIXTURES, Stdout

ALIGNMENTS = FIXTURES / "evs_alignments.jsonl"
EVS_REPORT = FIXTURES / "evs_report.csv"


@pytest.fixture
def traces(tmp_path):
    """Six unit-step text sessions: three adjacent pairs, five sliding ones."""
    path = tmp_path / "traces.jsonl"
    argv = ["simulate", "--strategy", "wait-k", "--k", "1..6", "--src-len", "4", "--tgt-len", "3"]
    assert main([*argv, "-o", str(path)]) == 0
    return path


@pytest.fixture
def run_parsed(monkeypatch):
    """``run_parsed(parse_name, *argv)``: the exit code, the stdout, and, as each
    record was about to be parsed, what stdout held, what had been flushed and
    how many records parsed before the one before it were still alive."""

    def run(parse_name, *argv):
        out = Stdout()
        seen, parsed = [], []
        parse = getattr(trace_io, parse_name)

        def recorded(*args, **kwargs):
            gc.collect()
            alive = sum(ref() is not None for ref in parsed[:-1])
            seen.append((out.getvalue(), list(out.flushed), alive))
            item = parse(*args, **kwargs)
            # a session, or the start-time array of a sentence's links, freed with the links
            parsed.append(weakref.ref(item if parse_name == "record_to_session" else item[1].src_start))
            return item

        monkeypatch.setattr("sys.stdout", out)
        monkeypatch.setattr(trace_io, parse_name, recorded)
        code = main([*map(str, argv)])
        monkeypatch.undo()
        return code, out.getvalue(), seen

    return run


def with_bad_line(src, path, lineno, bad):
    """``src`` with line ``lineno`` replaced by ``bad``, written to ``path``."""
    lines = src.read_text(encoding="utf-8").splitlines(True)
    lines[lineno - 1] = bad + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def read_error(read, path) -> str:
    """The stderr line of the fault that reading ``path`` whole raises."""
    with pytest.raises(TraceFormatError) as info:
        read(str(path))
    return f"simulatency: error: {info.value}\n"


# -- the first output leaves before the input is read on -------------------

@pytest.mark.parametrize("pairing", ["adjacent", "sliding"])
def test_concat_flushes_its_first_record_before_it_parses_line_3(run_parsed, traces, pairing):
    code, text, seen = run_parsed("record_to_session", "concat", traces, "--pairing", pairing)
    assert code == 0
    first = text.splitlines(keepends=True)[0]
    assert seen[:3] == [("", [], 0), ("", [], 0), (first, [first], 0)]


def test_evs_flushes_its_first_row_before_it_parses_line_2(run_parsed):
    code, text, seen = run_parsed("record_to_alignment", "evs", ALIGNMENTS)
    assert code == 0
    head = "".join(text.splitlines(keepends=True)[:2])
    assert seen[:2] == [("", [], 0), (head, [head], 0)]


# -- only the record before the one being read is held ---------------------

@pytest.mark.parametrize("pairing", ["adjacent", "sliding"])
def test_concat_frees_the_sessions_it_has_paired_while_it_reads_on(run_parsed, traces, pairing):
    code, _, seen = run_parsed("record_to_session", "concat", traces, "--pairing", pairing)
    assert code == 0
    assert [alive for _, _, alive in seen] == [0] * 6


def test_evs_frees_the_sentences_it_has_scored_while_it_reads_on(run_parsed):
    code, _, seen = run_parsed("record_to_alignment", "evs", ALIGNMENTS)
    assert code == 0
    assert [alive for _, _, alive in seen] == [0] * 7


# -- a bad line after good ones --------------------------------------------

BAD_LINES = {"malformed JSON": "{", "not an object": "[]", "a repeated id": None}


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_a_bad_line_5_leaves_the_records_of_the_pairs_before_it(traces, tmp_path, capsys, bad):
    first = traces.read_text(encoding="utf-8").splitlines()[0]
    broken = with_bad_line(traces, tmp_path / "broken.jsonl", 5, bad or first)
    head = with_bad_line(traces, tmp_path / "head.jsonl", 5, "")  # lines 1-4 and 6
    assert main(["concat", str(head), "-o", str(tmp_path / "head.out")]) == 0
    capsys.readouterr()

    assert main(["concat", str(broken)]) == 2
    out, err = capsys.readouterr()
    two_records = (tmp_path / "head.out").read_text(encoding="utf-8").splitlines(True)[:2]
    assert out == "".join(two_records)
    assert err == read_error(read_sessions, broken)


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_a_bad_line_4_leaves_the_rows_and_warnings_of_the_sentences_before_it(
    tmp_path, capsys, caplog, bad
):
    first = ALIGNMENTS.read_text(encoding="utf-8").splitlines()[0]
    broken = with_bad_line(ALIGNMENTS, tmp_path / "broken.jsonl", 4, bad or first)
    assert main(["evs", str(broken)]) == 2
    out, err = capsys.readouterr()
    assert out == "".join(EVS_REPORT.read_text(encoding="utf-8").splitlines(True)[:4])
    assert err == read_error(read_alignments, broken)
    warnings = (FIXTURES / "evs_report.stderr").read_text(encoding="utf-8").splitlines()[:3]
    assert [f"WARNING {m}" for m in caplog.messages] == warnings


@pytest.mark.parametrize(
    "command, src, lineno",
    [("concat", None, 5), ("evs", ALIGNMENTS, 4)],  # None: the traces
)
def test_a_bad_line_leaves_an_existing_output_and_the_input_as_they_were(
    traces, tmp_path, command, src, lineno
):
    broken = with_bad_line(src or traces, tmp_path / "broken.jsonl", lineno, "{")
    before = broken.read_bytes()
    out = tmp_path / "out.txt"
    out.write_bytes(b"kept\r\n")
    assert main([command, str(broken), "-o", str(out)]) == 2
    assert out.read_bytes() == b"kept\r\n"
    assert main([command, str(broken), "-o", str(broken)]) == 2  # -o names the input
    assert broken.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["broken.jsonl", "out.txt", "traces.jsonl"]


# -- a -o written in place may not name the input ---------------------------

@pytest.mark.parametrize("command, src", [("concat", "contrast_traces.jsonl"), ("evs", "evs_alignments.jsonl")])
def test_a_link_to_the_input_as_output_is_refused_before_the_read(tmp_path, capsys, command, src):
    source, link = tmp_path / src, tmp_path / "link.out"
    shutil.copy(FIXTURES / src, source)
    link.symlink_to(source)
    assert main([command, str(source), "-o", str(link)]) == 1
    assert source.read_bytes() == (FIXTURES / src).read_bytes()
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"simulatency {command}: error: -o names the input and would overwrite it while it is read\n"


def test_evs_may_replace_its_own_input(tmp_path):
    # the report is written beside the input and moved over it once the run succeeds
    source = tmp_path / "alignments.jsonl"
    shutil.copy(ALIGNMENTS, source)
    assert main(["evs", str(source), "-o", str(source)]) == 0
    assert source.read_bytes() == EVS_REPORT.read_bytes()


@pytest.mark.parametrize("command, src, args", [
    ("concat", "contrast_traces.jsonl", []),
    ("evs", "evs_alignments.jsonl", []),
    ("eval", "contrast_traces.jsonl", []),
    ("eval", "contrast_traces.jsonl", ["--json", os.devnull]),  # -o is opened first
    ("correlate", "mixed_report.csv", ["--col-a", "al", "--col-b", "atd"]),
], ids=["concat-contrast_traces.jsonl", "evs-evs_alignments.jsonl", "eval", "eval-json", "correlate"])
def test_an_output_that_cannot_be_created_is_named_as_given(tmp_path, capsys, command, src, args):
    out = tmp_path / "missing" / "out.txt"
    assert main([command, str(FIXTURES / src), *args, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"simulatency: error: [Errno 2] No such file or directory: '{out}'\n"
