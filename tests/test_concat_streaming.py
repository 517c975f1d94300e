"""``concat`` joins one pair at a time and writes its record before it joins
the next, so the first record leaves after one join and one joined session
is held, not all of them.  Stdout takes each record as it is written; a
``-o`` file is written beside its path and moved over it only once every
record is written, so a run that fails leaves it as it was.

Each test wraps ``cli.concat_sessions`` to see stdout, and which joined
sessions are still alive, whenever a pair is about to be joined.
"""

import gc
import os
import shutil
import weakref

import pytest

from simulatency import cli
from simulatency.cli import main

from test_eval_streaming import FIXTURES, Stdout

# the contrast pair as speech, for a pair of mismatched modalities
SPEECH = (FIXTURES / "contrast_traces.jsonl").read_text(encoding="utf-8").splitlines(True)[0]


@pytest.fixture
def traces(tmp_path):
    """Six unit-step text sessions: three adjacent pairs, five sliding ones."""
    path = tmp_path / "traces.jsonl"
    argv = ["simulate", "--strategy", "wait-k", "--k", "1..6", "--src-len", "4", "--tgt-len", "3"]
    assert main([*argv, "-o", str(path)]) == 0
    return path


@pytest.fixture
def mixed(traces, tmp_path):
    """Five text sessions and a speech one: the third adjacent pair cannot be joined."""
    path = tmp_path / "mixed.jsonl"
    records = traces.read_text(encoding="utf-8").splitlines(True)
    path.write_text("".join(records[:5] + [SPEECH]), encoding="utf-8")
    return path


@pytest.fixture
def run_concat(monkeypatch):
    """``run_concat(*argv)``: the exit code, the stdout, what stdout held as
    each pair was about to be joined, what it held at each flush, and the
    number of earlier joined sessions alive at each join but the one before."""

    def run(*argv):
        out = Stdout()
        seen, alive, joined = [], [], []
        join = cli.concat_sessions

        def recorded(*args, **kwargs):
            seen.append(out.getvalue())
            gc.collect()
            alive.append(sum(ref() is not None for ref in joined[:-1]))
            session = join(*args, **kwargs)
            joined.append(weakref.ref(session))
            return session

        monkeypatch.setattr("sys.stdout", out)
        monkeypatch.setattr(cli, "concat_sessions", recorded)
        code = main(["concat", *map(str, argv)])
        monkeypatch.undo()
        return code, out.getvalue(), seen, out.flushed, alive

    return run


@pytest.mark.parametrize("pairing, n_pairs", [("adjacent", 3), ("sliding", 5)])
def test_each_record_leaves_before_the_next_pair_is_joined(run_concat, traces, pairing, n_pairs):
    code, text, seen, flushed, _ = run_concat(traces, "--pairing", pairing)
    assert code == 0
    lines = text.splitlines(keepends=True)
    assert len(lines) == n_pairs
    assert seen == ["".join(lines[:k]) for k in range(n_pairs)]
    assert flushed == [lines[0]]  # once, after the first record


@pytest.mark.parametrize("pairing, n_pairs", [("adjacent", 3), ("sliding", 5)])
def test_joined_sessions_before_the_last_are_freed(run_concat, traces, pairing, n_pairs):
    code, _, _, _, alive = run_concat(traces, "--pairing", pairing)
    assert code == 0
    assert alive == [0] * n_pairs


def test_a_pair_that_cannot_be_joined_stops_the_run_after_the_records_before_it(
    run_concat, traces, mixed, tmp_path, capsys
):
    records = traces.read_text(encoding="utf-8").splitlines(True)
    head = tmp_path / "head.jsonl"
    head.write_text("".join(records[:4]), encoding="utf-8")
    assert main(["concat", str(head), "-o", str(tmp_path / "head.out")]) == 0
    capsys.readouterr()

    code, text, seen, _, _ = run_concat(mixed)
    assert code == 2
    assert text == (tmp_path / "head.out").read_text(encoding="utf-8")  # two records
    assert len(seen) == 3
    err = capsys.readouterr().err
    assert err == "simulatency: error: modality mismatch: text-to-text vs speech-to-speech\n"


def test_a_first_pair_that_cannot_be_joined_leaves_the_output_untouched(tmp_path, capsys):
    out = tmp_path / "joined.jsonl"
    out.write_bytes(b"kept\r\n")
    traces = FIXTURES / "contrast_traces.jsonl"
    assert main(["concat", str(traces), "--shift", "absolute", "-o", str(out)]) == 2
    assert out.read_bytes() == b"kept\r\n"
    assert capsys.readouterr().err == (FIXTURES / "concat_contrast_absolute.stderr").read_text()


def test_concat_may_replace_its_own_input(tmp_path):
    # -o is written beside the trace file and moved over it on success, so it may name it
    traces = tmp_path / "traces.jsonl"
    shutil.copy(FIXTURES / "contrast_traces.jsonl", traces)
    assert main(["concat", str(traces), "-o", str(traces)]) == 0
    assert traces.read_bytes() == (FIXTURES / "concat_contrast_relative.stdout").read_bytes()


def test_a_failing_concat_leaves_its_own_input_as_it_was(mixed, capsys):
    before = mixed.read_bytes()
    assert main(["concat", str(mixed), "-o", str(mixed)]) == 2
    assert mixed.read_bytes() == before
    assert sorted(os.listdir(mixed.parent)) == ["mixed.jsonl", "traces.jsonl"]  # no temporary file is left
    out, err = capsys.readouterr()
    assert (out, err) == ("", "simulatency: error: modality mismatch: text-to-text vs speech-to-speech\n")


def test_a_later_pair_that_fails_leaves_an_existing_output_and_its_mode_as_they_were(mixed, tmp_path):
    out = tmp_path / "joined.jsonl"
    out.write_bytes(b"kept\n")
    out.chmod(0o640)
    assert main(["concat", str(mixed), "--pairing", "sliding", "-o", str(out)]) == 2
    assert out.read_bytes() == b"kept\n"
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["joined.jsonl", "mixed.jsonl", "traces.jsonl"]


@pytest.mark.parametrize("command", ["concat", "eval"])
def test_a_replaced_output_keeps_its_mode_and_a_new_one_gets_the_default(traces, tmp_path, command):
    old, new, plain = tmp_path / "old.jsonl", tmp_path / "new.jsonl", tmp_path / "plain"
    old.write_bytes(b"")
    old.chmod(0o640)
    plain.write_bytes(b"")  # the mode open() gives a new file under this umask
    for path in (old, new):
        assert main([command, str(traces), "-o", str(path)]) == 0
    assert old.read_bytes() == new.read_bytes() != b""
    assert old.stat().st_mode & 0o777 == 0o640
    assert new.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777


def test_an_output_link_is_written_through_and_stays_a_link(traces, tmp_path):
    target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
    target.write_bytes(b"old\n")
    link.symlink_to(target)
    assert main(["concat", str(traces), "-o", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8").count("\n") == 3
