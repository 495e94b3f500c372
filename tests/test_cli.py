import contextlib
import errno
import io
import itertools
import json
import logging
import os
import struct
import subprocess
import sys
import types
import wave

import numpy as np
import pytest

import ctcseg.cli
import ctcseg.io
import ctcseg.segmenter
from ctcseg import (EventKind, LabelStream, PosteriorStream, Segment, SegmentEvent,
                    SegmenterConfig, filter_short_segments, greedy_decode, read_posterior_file,
                    segment_posteriors, segments_from_events, write_posteriors)
from ctcseg.cli import PROFILES, build_parser, main, _reader_cfg

from conftest import FIG1_LABELS, FIG1_NUM_LABELS, FakeStdin, stream_from_labels


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def fig1_ctcp(tmp_path):
    stream = stream_from_labels(FIG1_LABELS, FIG1_NUM_LABELS, subsample_factor=2)
    path = tmp_path / "fig1.ctcp"
    write_posteriors(stream, path)
    return path


@pytest.fixture
def empty_ctcp(tmp_path):
    path = tmp_path / "empty.ctcp"
    write_posteriors(PosteriorStream(frames=np.empty((0, 3), dtype=np.float32)), path)
    return path


FIG1_FLAGS = ["-V", "4", "--onset-margin", "1", "--offset-margin", "2"]


class TestSegmentCommand:
    def test_offline_jsonl(self, fig1_ctcp, capsys):
        code, out, err = run_cli(
            ["segment", "--input", str(fig1_ctcp), *FIG1_FLAGS], capsys)
        assert code == 0
        assert out == (
            '{"index": 1, "t_start": 4, "t_end": 16, '
            '"start_sec": 0.040000, "end_sec": 0.160000}\n'
            '{"index": 2, "t_start": 22, "t_end": 28, '
            '"start_sec": 0.220000, "end_sec": 0.280000}\n'
        )

    def test_output_file(self, fig1_ctcp, tmp_path, capsys):
        out_path = tmp_path / "segs.jsonl"
        code, out, _ = run_cli(["segment", "--input", str(fig1_ctcp), *FIG1_FLAGS,
                                "--output", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert len(out_path.read_text().splitlines()) == 2

    def test_tsv_format(self, fig1_ctcp, capsys):
        code, out, _ = run_cli(["segment", "--input", str(fig1_ctcp), *FIG1_FLAGS,
                                "--format", "tsv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "index\tt_start\tt_end\tstart_sec\tend_sec"

    def test_ctm_format(self, fig1_ctcp, capsys):
        code, out, _ = run_cli(["segment", "--input", str(fig1_ctcp), *FIG1_FLAGS,
                                "--format", "ctm"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "utt 1 0.040000 0.120000 speech"

    def test_empty_input_exits_zero_with_empty_output(self, empty_ctcp, capsys):
        code, out, err = run_cli(["segment", "--input", str(empty_ctcp)], capsys)
        assert code == 0
        assert out == ""

    def test_library_accepts_the_zero_row_stream_the_cli_does(self, empty_ctcp, capsys):
        stream = read_posterior_file(empty_ctcp)
        labels = greedy_decode(stream)
        assert isinstance(labels, LabelStream) and labels.labels.tolist() == []
        cfg = SegmenterConfig(subsample_factor=stream.subsample_factor,
                              blank_id=stream.blank_id)
        assert segment_posteriors(stream, cfg) == []
        assert run_cli(["segment", "--input", str(empty_ctcp)], capsys)[:2] == (0, "")

    def test_stdin_stream_offline(self, fig1_ctcp, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", FakeStdin(fig1_ctcp.read_bytes()))
        code, out, _ = run_cli(["segment", "--stream", *FIG1_FLAGS], capsys)
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_online_stream_events(self, fig1_ctcp, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", FakeStdin(fig1_ctcp.read_bytes()))
        code, out, _ = run_cli(["segment", "--stream", "--mode", "online",
                                *FIG1_FLAGS], capsys)
        assert code == 0
        events = [json.loads(line) for line in out.splitlines()]
        assert [(e["event"], e["step"]) for e in events] == [
            ("open", 3), ("close", 10), ("open", 12), ("flush", 14)]
        assert events[1]["t_end"] == 16
        assert events[3]["t_end"] == 28

    def test_online_event_golden_bytes(self, fig1_ctcp, capsys):
        code, out, _ = run_cli(["segment", "--input", str(fig1_ctcp), "--mode", "online",
                                *FIG1_FLAGS], capsys)
        assert code == 0
        assert out == (
            '{"event": "open", "step": 3, "index": 1, "k_first": 3, "t_start": 4, '
            '"start_sec": 0.040000}\n'
            '{"event": "close", "step": 10, "index": 1, "k_first": 3, "k_last": 6, '
            '"t_start": 4, "t_end": 16, "start_sec": 0.040000, "end_sec": 0.160000, '
            '"transcript_len": 2}\n'
            '{"event": "open", "step": 12, "index": 2, "k_first": 12, "t_start": 22, '
            '"start_sec": 0.220000}\n'
            '{"event": "flush", "step": 14, "index": 2, "k_first": 12, "k_last": 13, '
            '"t_start": 22, "t_end": 28, "start_sec": 0.220000, "end_sec": 0.280000, '
            '"transcript_len": 1}\n'
        )

    def test_online_output_reconstructs_to_offline_output(self, fig1_ctcp, capsys):
        code, offline_out, _ = run_cli(
            ["segment", "--input", str(fig1_ctcp), *FIG1_FLAGS], capsys)
        assert code == 0
        code, online_out, _ = run_cli(
            ["segment", "--input", str(fig1_ctcp), "--mode", "online", *FIG1_FLAGS],
            capsys)
        assert code == 0
        cfg = SegmenterConfig(v_threshold=4, onset_margin=1, offset_margin=2,
                              subsample_factor=2, blank_id=0, min_len_ratio=0.1)
        rebuilt = filter_short_segments(
            segments_from_events(_parse_events(online_out), cfg, 28), cfg)
        offline = [json.loads(line) for line in offline_out.splitlines()]
        assert [(s.index, s.t_start, s.t_end) for s in rebuilt] == \
            [(d["index"], d["t_start"], d["t_end"]) for d in offline]

    def test_online_equivalence_on_synthetic_stream(self, tmp_path, capsys,
                                                    write_annotation, monkeypatch):
        ann = write_annotation([(0.5, 2.2), (4.0, 5.1), (6.0, 6.2)], 8.0)
        ctcp = tmp_path / "syn.ctcp"
        code, _, _ = run_cli(["simulate", "--annotation", str(ann), "--output",
                              str(ctcp), "--seed", "9", "--jitter", "1",
                              "--spike-gap-max", "8"], capsys)
        assert code == 0
        code, offline_out, _ = run_cli(["segment", "--input", str(ctcp)], capsys)
        assert code == 0
        monkeypatch.setattr(sys, "stdin", FakeStdin(ctcp.read_bytes()))
        code, online_out, _ = run_cli(["segment", "--stream", "--mode", "online"],
                                      capsys)
        assert code == 0
        cfg = SegmenterConfig(subsample_factor=4, blank_id=0)  # csj defaults
        total = 200 * 4
        rebuilt = filter_short_segments(
            segments_from_events(_parse_events(online_out), cfg, total), cfg)
        offline = [json.loads(line) for line in offline_out.splitlines()]
        assert [(s.index, s.t_start, s.t_end) for s in rebuilt] == \
            [(d["index"], d["t_start"], d["t_end"]) for d in offline]

    def test_missing_input_file(self, tmp_path, capsys):
        code, _, err = run_cli(["segment", "--input", str(tmp_path / "nope.ctcp")],
                               capsys)
        assert code == 1
        assert "error" in err

    def test_bad_magic_exits_one(self, tmp_path, capsys):
        path = tmp_path / "junk.ctcp"
        path.write_bytes(b"XXXX" + b"\x00" * 24)
        code, _, err = run_cli(["segment", "--input", str(path)], capsys)
        assert code == 1
        assert "magic" in err

    def test_no_source_is_a_usage_error(self, capsys):
        code, _, err = run_cli(["segment"], capsys)
        assert code == 2

    def test_input_and_stream_together_is_a_usage_error(self, fig1_ctcp, capsys):
        code, out, err = run_cli(["segment", "--input", str(fig1_ctcp), "--stream"], capsys)
        assert code == 2
        assert out == ""
        assert "--stream" in err

    def test_bad_flag_value_exits_two(self, fig1_ctcp, capsys):
        code = main(["segment", "--input", str(fig1_ctcp), "--mode", "sideways"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("fmt", ["ctm", "tsv"])
    def test_online_mode_rejects_segment_formats(self, fig1_ctcp, capsys, fmt):
        code, out, err = run_cli(["segment", "--input", str(fig1_ctcp), "--mode", "online",
                                  "--format", fmt], capsys)
        assert code == 2
        assert out == ""
        assert "--format" in err and "online" in err

    def test_online_mode_accepts_jsonl(self, fig1_ctcp, capsys):
        code, out, _ = run_cli(["segment", "--input", str(fig1_ctcp), "--mode", "online",
                                "--format", "jsonl", *FIG1_FLAGS], capsys)
        assert code == 0
        assert [json.loads(line)["event"] for line in out.splitlines()] == [
            "open", "close", "open", "flush"]

    @pytest.mark.parametrize("mode", ["offline", "online"])
    @pytest.mark.parametrize("bad_row", [[1.25, -0.25, 0.0], [np.nan, 0.5, 0.5]])
    def test_bad_row_exits_one_in_both_modes(self, tmp_path, capsys, mode, bad_row):
        frames = np.array([[0.5, 0.5, 0.0], bad_row, [0.5, 0.5, 0.0]], dtype=np.float32)
        path = tmp_path / "bad.ctcp"
        path.write_bytes(_ctcp_bytes(frames))
        code, _, err = run_cli(["segment", "--input", str(path), "--mode", mode], capsys)
        assert code == 1
        assert "row 2" in err

    @pytest.mark.parametrize("argv", [
        ["segment", "--mode", "offline"],
        ["segment", "--mode", "online"],
        ["eval", "--ref", "REF"],
    ])
    def test_blank_id_out_of_range_exits_one(self, tmp_path, capsys, write_annotation, argv):
        stream = stream_from_labels([0, 1, 2, 0], 3, subsample_factor=4)
        path = tmp_path / "three.ctcp"
        write_posteriors(stream, path)
        ref = write_annotation([], 0.16)
        argv = [str(ref) if a == "REF" else a for a in argv]
        code, out, err = run_cli([*argv, "--input", str(path), "--blank-id", "7"], capsys)
        assert code == 1
        assert out == ""
        assert "blank_id 7" in err

    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_closed_downstream_pipe_exits_zero(self, tmp_path, mode):
        # 20,000 short segments: megabytes of output, far more than a pipe holds
        stream = stream_from_labels([1, 2, 0, 0] * 20_000, 3)
        path = tmp_path / "many.ctcp"
        write_posteriors(stream, path)
        flags = ["--mode", mode, "-V", "2", "--onset-margin", "0", "--offset-margin", "0"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        for unbuffered, source in itertools.product(
                ("", "1"), (["--input", str(path)], ["--stream"])):  # `ctcseg ... | head -1`
            env["PYTHONUNBUFFERED"] = unbuffered  # "" leaves stdout buffered
            with open(path, "rb") as stdin:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "ctcseg", "segment", *source, *flags],
                    stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            first = proc.stdout.readline()
            proc.stdout.close()
            try:
                assert proc.wait(timeout=60) == 0, (unbuffered, source)
            finally:
                proc.kill()
            assert first.startswith(b"{")
            assert proc.stderr.read() == b"", (unbuffered, source)
            proc.stderr.close()

    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_full_non_blocking_stdout_is_an_error(self, tmp_path, mode, unbuffered):
        # 2,000 segments: more output than a pipe holds, and nothing reads it
        # until the command exits, so a write is cut short and then refused.
        stream = stream_from_labels([1, 2, 0, 0] * 2_000, 3)
        path = tmp_path / "many.ctcp"
        write_posteriors(stream, path)
        argv = [sys.executable, "-m", "ctcseg", "segment", "--input", str(path),
                "--mode", mode, "-V", "2", "--onset-margin", "0", "--offset-margin", "0"]
        expected = subprocess.run(argv, capture_output=True, check=True).stdout
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.set_blocking(write_end, False)
        with os.fdopen(read_end, "rb") as reader:
            try:
                proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                                      timeout=60)
            finally:
                os.close(write_end)
            delivered = reader.read()
        assert len(delivered) < len(expected)  # the pipe cannot take it all
        assert expected.startswith(delivered)
        assert proc.returncode == 1
        err = proc.stderr.decode()
        assert err.startswith("error:") and err.count("\n") == 1, err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("repeats", [3, 2_000])
    @pytest.mark.parametrize("mode", ["offline", "online"])
    def test_a_full_output_file_is_one_error_in_every_mode(self, tmp_path, mode, repeats):
        # 3 segments fit the text layer's 8 KiB buffer, so the write fails at flush;
        # 2,000 (over 100 KB) do not, so the write itself fails.
        path = tmp_path / "in.ctcp"
        write_posteriors(stream_from_labels([1, 2, 0, 0] * repeats, 3), path)
        proc = subprocess.run(
            [sys.executable, "-m", "ctcseg", "segment", "--input", str(path), "--mode", mode,
             "-V", "2", "--onset-margin", "0", "--offset-margin", "0", "--output", "/dev/full"],
            capture_output=True, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.decode() == (
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full") or not os.path.isdir("/proc/self/fd"),
                        reason="needs /dev/full and /proc/self/fd")
    def test_a_failed_write_in_process_leaves_no_descriptor_open(self, fig1_ctcp, capsys):
        before = len(os.listdir("/proc/self/fd"))
        code, _, err = run_cli(["segment", "--input", str(fig1_ctcp), "--output", "/dev/full"],
                               capsys)
        assert code == 1 and err.startswith("error:")
        assert len(os.listdir("/proc/self/fd")) == before


def _ctcp_header(num_frames=0, num_labels=3, blank_id=0, frame_shift_ms=10.0,
                 subsample_factor=1):
    """A probability-stream CTCP header, bad values included."""
    return struct.pack("<4sHBBIIIfI", b"CTCP", 1, 1, 0, num_frames, num_labels, blank_id,
                       frame_shift_ms, subsample_factor)


def _ctcp_bytes(frames):
    """Probability rows as CTCP, bad ones included (PosteriorStream would refuse them)."""
    return _ctcp_header(len(frames), frames.shape[1]) + frames.astype("<f4").tobytes()


def _parse_events(out):
    events = []
    for line in out.splitlines():
        d = json.loads(line)
        if d["event"] == "open":
            events.append(SegmentEvent(kind=EventKind.OPEN, emitted_at_step=d["step"],
                                       index=d["index"], t_start=d["t_start"]))
        else:
            seg = Segment(index=d["index"], k_first_nonblank=d["k_first"],
                          k_last_nonblank=d["k_last"], t_start=d["t_start"],
                          t_end=d["t_end"], transcript_len=d["transcript_len"])
            events.append(SegmentEvent(kind=EventKind(d["event"]),
                                       emitted_at_step=d["step"], index=d["index"],
                                       t_start=d["t_start"], segment=seg))
    return events


class PacedStdin:
    """Stands in for sys.stdin: each readinto1 of stdin.buffer hands over at most `rows` rows."""

    def __init__(self, data: bytes, row_bytes: int, rows: int = 6):
        self.buffer = self
        self.data, self.pos, self.most = memoryview(data), 0, rows * row_bytes

    def readinto1(self, view) -> int:
        n = min(len(view), self.most, len(self.data) - self.pos)
        view[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


# V = 2 and no margins: open 1, close 3, open 5, close 8, open 10, close 12.
CUT_LABELS = [1, 0, 0, 0, 2, 2, 0, 0, 0, 3, 0, 0]
CUT_FLAGS = ["-V", "2", "--onset-margin", "0", "--offset-margin", "0"]
# Each bad row decodes to label 1, so it would open or extend a segment.
BAD_ROWS = {"non-finite": [0.0, np.nan, 0.5, 0.5], "row-sum": [0.1, 0.9, 0.5, 0.0],
            "out-of-range": [-0.25, 1.25, 0.0, 0.0]}


def _run_source(argv, data, source, capsys, monkeypatch, path):
    """Run main with the CTCP bytes as --input, as one --stream read, or paced by one row."""
    if source == "input":
        path.write_bytes(data)
        return run_cli([*argv, "--input", str(path)], capsys)
    stdin = FakeStdin(data) if source == "stream" else PacedStdin(data, 16, rows=1)
    monkeypatch.setattr(sys, "stdin", stdin)
    return run_cli([*argv, "--stream"], capsys)


@pytest.mark.parametrize("source", ["input", "stream", "stream-row-by-row"])
@pytest.mark.parametrize("bad_row", [
    pytest.param(1, id="first"),
    pytest.param(7, id="middle-sharing-a-read-with-the-open-at-10"),
    pytest.param(9, id="after-a-gap-whose-close-is-at-8"),
    pytest.param(12, id="last"),
])
@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_online_stdout_on_a_bad_row_is_that_of_the_stream_cut_before_it(
        tmp_path, capsys, monkeypatch, kind, bad_row, source):
    frames = stream_from_labels(CUT_LABELS, 4).frames.copy()
    frames[bad_row - 1] = BAD_ROWS[kind]
    data = _ctcp_bytes(frames)
    argv = ["segment", "--mode", "online", *CUT_FLAGS]
    code, out, err = _run_source(argv, data, source, capsys, monkeypatch, tmp_path / "bad.ctcp")
    assert code == 1 and err.startswith(f"error: row {bad_row} "), err
    cut = data[:len(_ctcp_header()) + 16 * (bad_row - 1)]
    code, expected, err = _run_source(argv, cut, source, capsys, monkeypatch,
                                      tmp_path / "cut.ctcp")
    assert code == 1 and "stream ended" in err
    assert out == expected
    assert all(event.emitted_at_step < bad_row for event in _parse_events(out))


@pytest.mark.parametrize("block_rows", [10, None])
@pytest.mark.parametrize("argv", [
    ["segment", "--mode", "online", "--input", "{ctcp}"],
    ["segment", "--mode", "online", "--stream"],
    ["segment", "--mode", "offline", "--input", "{ctcp}"],
    ["segment", "--mode", "offline", "--stream"],
    ["eval", "--input", "{ctcp}", "--ref", "{ref}"],
])
def test_every_row_is_validated_exactly_once(tmp_path, capsys, monkeypatch, write_annotation,
                                             argv, block_rows):
    labels = ([0] * 7 + [1, 2, 2, 3] + [0] * 20) * 8  # 248 rows, events in many reads
    stream = stream_from_labels(labels, 4, subsample_factor=4)
    ctcp = tmp_path / "in.ctcp"
    write_posteriors(stream, ctcp)
    ref = write_annotation([], stream.duration_sec)
    monkeypatch.setattr(sys, "stdin", PacedStdin(ctcp.read_bytes(), 16))
    if block_rows:  # the buffer is reused every 10 rows, across the 6-row reads
        monkeypatch.setattr(ctcseg.io, "BLOCK_BYTES", block_rows * 16)
    buffer_rows = ctcseg.io.BLOCK_BYTES // 16
    checked = []
    validate = ctcseg.io.validate_rows

    def counting(rows, *args, **kwargs):
        checked.append(rows.shape[0])
        return validate(rows, *args, **kwargs)

    monkeypatch.setattr(ctcseg.io, "validate_rows", counting)
    argv = [a.format(ctcp=ctcp, ref=ref) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    assert out
    assert sum(checked) == len(labels)
    assert max(checked) <= buffer_rows  # the rows awaiting their check stay in the buffer


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", [["eval", "--input", "{ctcp}", "--ref", "{ref}"],
                                     ["bench", "--duration", "2", "--repeat", "1"]])
def test_eval_and_bench_on_a_closed_or_full_stdout(tmp_path, write_annotation, command,
                                                   unbuffered):
    ctcp, ref = _aligned_eval_pair(tmp_path, write_annotation)
    argv = [sys.executable, "-m", "ctcseg", *(a.format(ctcp=ctcp, ref=ref) for a in command)]
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}  # "" leaves stdout buffered
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before anything is written
    try:
        proc = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, env=env,
                                  timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.decode() == (
            f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")


# Commands that write to stdout, one of each (--help through argparse).
STDOUT_COMMANDS = [["eval", "--input", "{ctcp}", "--ref", "{ref}"],
                   ["bench", "--duration", "2", "--repeat", "1"], ["--help"]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("command", STDOUT_COMMANDS)
def test_main_applies_the_output_rule_in_process(tmp_path, write_annotation, capsys,
                                                 monkeypatch, command):
    ctcp, ref = _aligned_eval_pair(tmp_path, write_annotation)
    argv = [a.format(ctcp=ctcp, ref=ref) for a in command]
    full = open("/dev/full", "w")
    try:
        monkeypatch.setattr(sys, "stdout", full)
        assert main(argv) == 1
    finally:
        monkeypatch.undo()
        with contextlib.suppress(OSError):  # what main could not write is still buffered
            full.close()
    assert capsys.readouterr().err == (
        f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader has gone before anything is written
    with open(write_end, "w") as broken:
        monkeypatch.setattr(sys, "stdout", broken)
        assert main(argv) == 0
        monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def _with_closed(fd, argv, **kwargs):
    """Run `python -m ctcseg argv` with descriptor fd closed in the child."""
    return subprocess.run(["sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, "-m",
                           "ctcseg", *argv], capture_output=True, timeout=60, **kwargs)


@pytest.mark.parametrize("command", [
    ["simulate", "--annotation", "{ref}", "--output", "{out}"],
    ["segment", "--input", "{ctcp}", "--output", "{out}"],
    ["segment", "--input", "{ctcp}", "--mode", "online", "--output", "{out}"],
])
def test_a_command_that_writes_no_stdout_runs_with_stdout_closed(tmp_path, write_annotation,
                                                                 command):
    ctcp, ref = _aligned_eval_pair(tmp_path, write_annotation)
    outputs = []
    for closed in (False, True):
        out = tmp_path / f"out-{closed}"
        argv = [a.format(ctcp=ctcp, ref=ref, out=out) for a in command]
        proc = _with_closed(1, argv) if closed else subprocess.run(
            [sys.executable, "-m", "ctcseg", *argv], capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b""), closed
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and outputs[0]


@pytest.mark.parametrize("fd, command", [
    (1, ["segment", "--input", "{ctcp}"]),
    (1, ["segment", "--input", "{ctcp}", "--mode", "online"]),
    *((1, command) for command in STDOUT_COMMANDS[:2]),
    (0, ["segment", "--stream"]),
    (0, ["segment", "--stream", "--mode", "online"]),
])
def test_a_closed_stdin_or_stdout_that_the_command_needs_is_one_error(
        tmp_path, write_annotation, fd, command):
    ctcp, ref = _aligned_eval_pair(tmp_path, write_annotation)
    proc = _with_closed(fd, [a.format(ctcp=ctcp, ref=ref) for a in command])
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (1, b""), err
    assert err == f"error: [Errno {errno.EBADF}] {('stdin', 'stdout')[fd]} is closed\n"


# segment and eval take the same segmenter flags; --input and --ref are not opened here.
PROFILE_COMMANDS = (["segment", "--input", "x"], ["eval", "--input", "x", "--ref", "y"])


def _resolved_cfgs(*flags):
    """The config each command of PROFILE_COMMANDS resolves from the same flags."""
    header = types.SimpleNamespace(num_labels=32, blank_id=0, frame_shift_ms=10.0,
                                   subsample_factor=4)
    return [_reader_cfg(build_parser().parse_args([*command, *flags]), header)
            for command in PROFILE_COMMANDS]


class TestProfiles:
    def test_defaults_are_csj(self):
        for cfg in _resolved_cfgs():
            assert (cfg.v_threshold, cfg.onset_margin, cfg.offset_margin) == (16, 2, 3)

    def test_min_len_ratio_defaults_to_the_config_default(self):
        for cfg in _resolved_cfgs():
            assert cfg.min_len_ratio == SegmenterConfig().min_len_ratio
        for cfg in _resolved_cfgs("--min-len-ratio", "0.25"):
            assert cfg.min_len_ratio == 0.25

    @pytest.mark.parametrize("profile,expected", [
        ("csj", (16, 2, 3)),
        ("ted-bi", (16, 4, 10)),
        ("ted-uni", (16, 10, 2)),
    ])
    def test_named_profiles(self, profile, expected):
        for cfg in _resolved_cfgs("--profile", profile):
            assert (cfg.v_threshold, cfg.onset_margin, cfg.offset_margin) == expected

    def test_explicit_flags_beat_profile(self):
        for cfg in _resolved_cfgs("--profile", "ted-bi", "-V", "20"):
            assert (cfg.v_threshold, cfg.onset_margin, cfg.offset_margin) == (20, 4, 10)

    def test_profile_table_matches_tuned_values(self):
        assert PROFILES["csj"] == {"v_threshold": 16, "onset_margin": 2,
                                   "offset_margin": 3}


class TestSimulateCommand:
    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys, write_annotation):
        ann = write_annotation([(0.5, 1.5)], 3.0)
        a, b = tmp_path / "a.ctcp", tmp_path / "b.ctcp"
        for path in (a, b):
            code, _, _ = run_cli(["simulate", "--annotation", str(ann),
                                  "--output", str(path), "--seed", "7",
                                  "--jitter", "1"], capsys)
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_regions_blank_dominated(self, tmp_path, capsys, write_annotation):
        ann = write_annotation([], 2.0)
        out = tmp_path / "blank.ctcp"
        code, _, _ = run_cli(["simulate", "--annotation", str(ann),
                              "--output", str(out)], capsys)
        assert code == 0
        from ctcseg import greedy_decode, read_posterior_file
        labels = greedy_decode(read_posterior_file(out))
        assert (labels.labels == 0).all()

    def test_jitter_sweep_distinct_bodies_same_header(self, tmp_path, capsys,
                                                      write_annotation):
        ann = write_annotation([(0.5, 1.5)], 3.0)
        blobs = []
        for j in (0, 1, 2):
            path = tmp_path / f"j{j}.ctcp"
            code, _, _ = run_cli(["simulate", "--annotation", str(ann),
                                  "--output", str(path), "--seed", "4",
                                  "--jitter", str(j)], capsys)
            assert code == 0
            blobs.append(path.read_bytes())
        assert len({b[:28] for b in blobs}) == 1
        assert len(set(blobs)) == 3

    def test_invalid_annotation_exits_one(self, tmp_path, capsys, write_annotation):
        ann = write_annotation([(2.0, 1.0)], 3.0)
        code, _, err = run_cli(["simulate", "--annotation", str(ann),
                                "--output", str(tmp_path / "x.ctcp")], capsys)
        assert code == 1
        assert "error" in err

    def test_gap_at_least_threshold_exits_one(self, tmp_path, capsys,
                                              write_annotation):
        ann = write_annotation([(0.5, 1.5)], 3.0)
        code, _, err = run_cli(["simulate", "--annotation", str(ann),
                                "--output", str(tmp_path / "x.ctcp"),
                                "-V", "4", "--spike-gap-max", "4"], capsys)
        assert code == 1


def _aligned_eval_pair(tmp_path, write_annotation):
    """CTCP whose default-flag segmentation exactly matches its annotation."""
    labels = [0] * 9 + [1, 2, 1] * 4 + [0] * 29  # non-blanks at steps 10..21
    stream = stream_from_labels(labels, 4, subsample_factor=4)
    ctcp = tmp_path / "pair.ctcp"
    write_posteriors(stream, ctcp)
    # zero margins: segment covers frames 40..84; duration 50 steps * 4 * 10 ms
    ann = write_annotation([(0.39, 0.84)], 2.0, name="pair.json")
    return ctcp, ann


class TestEvalCommand:
    def test_perfect_match_scores_one(self, tmp_path, capsys, write_annotation):
        ctcp, ann = _aligned_eval_pair(tmp_path, write_annotation)
        code, out, err = run_cli(["eval", "--input", str(ctcp), "--ref", str(ann),
                                  "--onset-margin", "0", "--offset-margin", "0"],
                                 capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["frame_f1"] == 1.0
        assert report["boundary_mae_frames"] == 0.0
        assert report["n_hyp_segments"] == 1
        assert "rtf" not in report

    def test_missing_ref_exits_one(self, tmp_path, capsys, write_annotation):
        ctcp, _ = _aligned_eval_pair(tmp_path, write_annotation)
        code, _, err = run_cli(["eval", "--input", str(ctcp),
                                "--ref", str(tmp_path / "missing.json")], capsys)
        assert code == 1

    def test_duration_mismatch_exits_one(self, tmp_path, capsys, write_annotation):
        ctcp, _ = _aligned_eval_pair(tmp_path, write_annotation)
        ann = write_annotation([(0.39, 0.84)], 3.5, name="long.json")
        code, _, err = run_cli(["eval", "--input", str(ctcp), "--ref", str(ann)],
                               capsys)
        assert code == 1
        assert "frames" in err

    def test_compare_reports_both_methods(self, tmp_path, capsys, write_annotation,
                                          write_wav):
        ctcp, ann = _aligned_eval_pair(tmp_path, write_annotation)
        t = np.arange(int(2.0 * 16000)) / 16000
        audio = np.where((t >= 0.39) & (t < 0.84),
                         0.5 * np.sin(2 * np.pi * 440 * t), 0.0)
        wav = write_wav(audio, sample_rate=16000)
        code, out, err = run_cli(["eval", "--input", str(ctcp), "--ref", str(ann),
                                  "--onset-margin", "0", "--offset-margin", "0",
                                  "--compare", "--wav", str(wav)], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert set(report) == {"ctc_blank_run", "energy_vad"}
        assert report["ctc_blank_run"]["frame_f1"] == 1.0
        assert report["energy_vad"]["frame_f1"] > 0.9

    @pytest.mark.parametrize("frames, kept", [(200, 1), (201, 0)])
    def test_compare_keeps_an_energy_segment_that_starts_on_the_last_frame(
            self, tmp_path, capsys, write_annotation, write_wav, frames, kept):
        ctcp, ann = _aligned_eval_pair(tmp_path, write_annotation)  # 200 frames of 10 ms
        audio = np.zeros(frames * 160)
        audio[-160:] = 0.5  # only the WAV's last frame is loud
        code, out, err = run_cli(["eval", "--input", str(ctcp), "--ref", str(ann),
                                  "--compare", "--wav", str(write_wav(audio))], capsys)
        assert code == 0, err
        assert json.loads(out)["energy_vad"]["n_hyp_segments"] == kept

    def test_compare_without_wav_is_usage_error(self, tmp_path, capsys,
                                                write_annotation):
        ctcp, ann = _aligned_eval_pair(tmp_path, write_annotation)
        code, _, _ = run_cli(["eval", "--input", str(ctcp), "--ref", str(ann),
                              "--compare"], capsys)
        assert code == 2

    def test_wav_without_compare_is_usage_error_before_reading_input(self, tmp_path, capsys):
        code, out, err = run_cli(["eval", "--input", str(tmp_path / "nonexistent.ctcp"),
                                  "--ref", str(tmp_path / "a.json"),
                                  "--wav", str(tmp_path / "x.wav")], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --wav requires --compare\n"

    def test_compare_without_wav_fails_before_reading_input(self, tmp_path, capsys):
        code, out, err = run_cli(["eval", "--input", str(tmp_path / "nonexistent.ctcp"),
                                  "--ref", str(tmp_path / "a.json"), "--compare"], capsys)
        assert code == 2
        assert out == ""
        assert "--wav" in err


def _wav_at_rate_zero():
    """A 16-bit mono WAV whose header declares 0 Hz; wave refuses to write one."""
    fmt = struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)
    data = bytes(32)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def _wav_8_bit():
    """A valid 8-bit mono WAV; eval --compare reads only 16-bit PCM."""
    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(bytes([128]) * 32000)
    return buf.getvalue()


SEGMENT = ["segment", "--input", "{ctcp}"]
EVAL = ["eval", "--input", "{ctcp}", "--ref", "{ref}"]
COMPARE = [*EVAL, "--compare", "--wav", "{wav}"]


# argv with {ctcp}/{ref}/{wav}/{out} placeholders, and the bad bytes that replace a
# valid input; {out} names an output file that must never be written.
@pytest.mark.parametrize("argv, bad_files", [
    pytest.param(SEGMENT, {"ctcp": _ctcp_header(num_labels=0)}, id="zero-labels"),
    pytest.param(SEGMENT, {"ctcp": _ctcp_header(blank_id=3)}, id="blank-out-of-range"),
    pytest.param(SEGMENT, {"ctcp": _ctcp_header(subsample_factor=0)}, id="subsample-zero"),
    pytest.param(SEGMENT, {"ctcp": _ctcp_header(frame_shift_ms=float("nan"))},
                 id="frame-shift-nan"),
    pytest.param(SEGMENT, {"ctcp": _ctcp_header(num_frames=2) + struct.pack("<3f", 1, 0, 0)},
                 id="truncated"),
    pytest.param(EVAL, {"ref": b'{"duration_sec": 2.0, "regions": [[0.39'},
                 id="annotation-not-json"),
    pytest.param(EVAL, {"ref": b'{"regions": []}'}, id="annotation-no-duration"),
    pytest.param(EVAL, {"ref": b'{"duration_sec": Infinity, "regions": []}'},
                 id="annotation-infinite-duration"),
    pytest.param([*COMPARE, "--energy-threshold", "nan"], {}, id="energy-threshold-nan"),
    pytest.param(COMPARE, {"wav": b"not a wav file"}, id="wav-not-riff"),
    pytest.param(COMPARE, {"wav": b"RIFF"}, id="wav-bare-riff"),
    pytest.param(COMPARE, {"wav": _wav_at_rate_zero()}, id="wav-rate-zero"),
    pytest.param(COMPARE, {"wav": _wav_8_bit()}, id="wav-8-bit"),
    *(pytest.param(["simulate", "--annotation", "{ref}", "--output", "{out}",
                    f"--frame-shift={shift}"], {}, id=f"simulate-frame-shift-{shift}")
      for shift in ("0", "-10", "inf", "nan", "1e40", "1e-46", "1e-40")),
    *(pytest.param(["bench", "--duration", duration], {}, id=f"bench-duration-{duration}")
      for duration in ("inf", "1e12")),
    # fewer than 2**32 steps, but the float32 rows would not fit in memory
    pytest.param(["bench", "--duration", "171798691.8", "-r", "4"], {},
                 id="bench-rows-exceed-memory"),
    pytest.param(["simulate", "--annotation", "{ref}", "--output", "{out}",
                  "--num-labels", "4000000000"], {}, id="simulate-rows-exceed-memory"),
])
@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_bad_input_exits_one_with_one_error_line(tmp_path, capsys, write_annotation,
                                                 write_wav, argv, bad_files):
    ctcp, ref = _aligned_eval_pair(tmp_path, write_annotation)
    paths = {"ctcp": ctcp, "ref": ref, "wav": write_wav(np.zeros(32000)),
             "out": tmp_path / "out.ctcp"}
    for name, data in bad_files.items():
        paths[name] = tmp_path / f"bad-{name}"
        paths[name].write_bytes(data)
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert not paths["out"].exists()


@pytest.mark.parametrize("command", ["simulate", "eval"])
@pytest.mark.parametrize("regions, named", [
    ([(float("nan"), 1.0)], "(nan, 1.0)"),
    ([(0.5, float("nan")), (0.7, 0.9)], "(0.5, nan)"),
])
def test_a_nan_annotation_bound_is_a_named_error(tmp_path, capsys, write_annotation,
                                                 command, regions, named):
    ctcp, _ = _aligned_eval_pair(tmp_path, write_annotation)
    ann = write_annotation(regions, 2.0, name="nan.json")  # json writes a bare NaN
    output = tmp_path / "out.ctcp"
    argv = {"simulate": ["simulate", "--annotation", str(ann), "--output", str(output)],
            "eval": ["eval", "--input", str(ctcp), "--ref", str(ann)]}[command]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: regions must be sorted, non-overlapping, non-empty: {named}\n"
    assert not output.exists()


class TestBenchCommand:
    def test_synthetic_core_run(self, capsys):
        code, out, err = run_cli(["bench", "--duration", "30", "--num-labels", "50",
                                  "--repeat", "3", "--seed", "1"], capsys)
        assert code == 0, err
        report = json.loads(out)
        assert report["mode"] == "core"
        assert len(report["rtf_runs"]) == 3
        assert report["rtf_median"] >= 0.0
        assert report["frames_per_sec"] > 0

    def test_usage_errors_exit_two(self, capsys):
        for argv in (["--rtf", "e2e", "--duration", "10"],  # e2e times a file: needs --input
                     ["--repeat", "0"]):
            code, out, _ = run_cli(["bench", *argv], capsys)
            assert (code, out) == (2, ""), argv

    def test_e2e_with_file(self, tmp_path, capsys, write_annotation):
        ann = write_annotation([(0.5, 2.0)], 5.0)
        ctcp = tmp_path / "bench.ctcp"
        code, _, _ = run_cli(["simulate", "--annotation", str(ann), "--output",
                              str(ctcp), "--num-labels", "20"], capsys)
        assert code == 0
        code, out, _ = run_cli(["bench", "--input", str(ctcp), "--rtf", "e2e",
                                "--repeat", "2"], capsys)
        assert code == 0
        assert json.loads(out)["mode"] == "e2e"

    def test_zero_duration_exits_one(self, capsys):
        code, _, err = run_cli(["bench", "--duration", "0"], capsys)
        assert code == 1
        assert "zero-length" in err

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.ctcp"
        write_posteriors(PosteriorStream(frames=np.empty((0, 3), dtype=np.float32)),
                         path)
        code, _, err = run_cli(["bench", "--input", str(path)], capsys)
        assert code == 1

    def test_both_modes_time_the_path_segment_runs(self, tmp_path, capsys, monkeypatch,
                                                   write_annotation):
        ann = write_annotation([(0.5, 2.0)], 5.0)
        ctcp = tmp_path / "bench.ctcp"
        assert run_cli(["simulate", "--annotation", str(ann), "--output", str(ctcp),
                        "--num-labels", "20", "-r", "2", "--blank-id", "3"], capsys)[0] == 0
        offline = ctcseg.cli._offline_segments
        cfgs = {"core": [], "e2e": []}

        def recording(reader, cfg):
            cfgs[mode].append(cfg)
            return offline(reader, cfg)

        monkeypatch.setattr(ctcseg.cli, "_offline_segments", recording)
        reports = {}
        for mode in cfgs:
            code, out, err = run_cli(["bench", "--input", str(ctcp), "--rtf", mode,
                                      "--repeat", "2", "--profile", "ted-bi"], capsys)
            assert code == 0, err
            reports[mode] = json.loads(out)
        assert len(cfgs["core"]) == len(cfgs["e2e"]) == 2
        assert set(cfgs["core"]) == set(cfgs["e2e"]) == {SegmenterConfig(
            v_threshold=16, onset_margin=4, offset_margin=10, subsample_factor=2, blank_id=3)}
        assert ({k: reports["core"][k] for k in ("num_frames", "audio_sec")}
                == {k: reports["e2e"][k] for k in ("num_frames", "audio_sec")}
                == {"num_frames": 250, "audio_sec": 5.0})

    def test_bench_never_runs_segment_posteriors(self, tmp_path, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("bench timed segment_posteriors, which segment never runs")

        monkeypatch.setattr(ctcseg.cli, "segment_posteriors", refuse, raising=False)
        monkeypatch.setattr(ctcseg.segmenter, "segment_posteriors", refuse)
        path = tmp_path / "in.ctcp"
        write_posteriors(stream_from_labels([0, 1, 2, 0] * 50, 3, subsample_factor=4), path)
        for argv in (["--duration", "2"], ["--input", str(path)],
                     ["--input", str(path), "--rtf", "e2e"]):
            code, out, err = run_cli(["bench", *argv, "--repeat", "1"], capsys)
            assert code == 0, (argv, err)


def test_main_leaves_the_caller_logging_alone(fig1_ctcp, capsys):
    root = logging.getLogger()
    level, handler = root.level, logging.StreamHandler(io.StringIO())
    root.addHandler(handler)
    try:
        assert run_cli(["segment", "--input", str(fig1_ctcp)], capsys)[0] == 0
        assert handler in root.handlers
        assert root.level == level
    finally:
        root.removeHandler(handler)


def test_module_invocation_smoke():
    proc = subprocess.run([sys.executable, "-m", "ctcseg", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "segment" in proc.stdout


@pytest.mark.skipif(not hasattr(os, "SCHED_BATCH"), reason="Linux scheduling policies")
def test_the_command_and_main_keep_the_caller_policy(fig1_ctcp, capsys):
    policy = os.sched_getscheduler(0)
    # entrypoint ends in os._exit, which runs no atexit hook and flushes no stdout that
    # main has not: read the policy after main, and flush it.
    probe = ("import os, sys; import ctcseg.cli as cli; main = cli.main; "
             "cli.main = lambda: (main(), print(os.sched_getscheduler(0), flush=True))[0]; "
             "sys.argv[1:] = ['segment', '--input', sys.argv[1]]; cli.entrypoint()")
    proc = subprocess.run([sys.executable, "-c", probe, str(fig1_ctcp)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert int(proc.stdout.splitlines()[-1]) == policy
    assert run_cli(["segment", "--input", str(fig1_ctcp)], capsys)[0] == 0
    assert os.sched_getscheduler(0) == policy
