"""Differential fuzz of `segment`: every mode and input source agree on random streams.

Each seeded CTCP stream runs through `main` four ways: offline and online, each
with --input and with --stream (stdin handing the bytes over in random chunks).
All four give one exit code and one stderr, stdout depends only on the mode, and
on success the online close and flush events, rebuilt by the library, give the
offline stdout bytes. On a bad row, online prints the events of the stream cut
just before that row. A tenth of the streams are cut at a random byte, and
another tenth carry a NaN row.
"""

import io
import json
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from ctcseg import (EventKind, Segment, SegmentEvent, SegmenterConfig, filter_short_segments,
                    segments_from_events, write_segments)
from ctcseg.cli import main

FRAME_SHIFT_MS = 33.3  # float32 rounds it: the header carries 33.29999923706055
HEADER = struct.Struct("<4sHBBIIIfI")
CASES_PER_BLOCK = 50


class ChunkedStdin:
    """Stands in for sys.stdin: each readinto1 of stdin.buffer hands over 1 to `most` bytes."""

    def __init__(self, data: bytes, rng: np.random.Generator, most: int):
        self.buffer = self
        self.data, self.pos, self.rng, self.most = memoryview(data), 0, rng, most

    def readinto1(self, view) -> int:
        n = min(len(view), int(self.rng.integers(1, self.most + 1)), len(self.data) - self.pos)
        view[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


def _labels(rng, steps, num_labels, blank_id):
    """Blank runs and non-blank runs of random lengths, so segments open, merge and close."""
    labels = []
    while len(labels) < steps:
        labels += [blank_id] * int(rng.integers(0, 12))
        labels += rng.integers(0, num_labels, size=int(rng.integers(1, 6))).tolist()
    return np.array(labels[:steps], dtype=np.int64)


def _random_case(rng):
    """(CTCP bytes, the row a NaN was put in or None, segment flags, offline format)."""
    num_labels = int(rng.integers(1, 6))
    blank_id = int(rng.integers(0, num_labels))
    r = int(rng.choice([1, 2, 4]))
    steps = int(rng.integers(0, 201))
    probabilities = bool(rng.integers(0, 2))
    scores = rng.normal(size=(steps, num_labels))
    if rng.integers(0, 2):  # coarse scores: argmax ties, broken toward the lowest label
        scores = np.round(scores)
    scores[np.arange(steps), _labels(rng, steps, num_labels, blank_id)] += 2.0
    if probabilities:
        scores = np.exp(scores - scores.max(axis=1, keepdims=True))
        scores /= scores.sum(axis=1, keepdims=True)
    rows = scores.astype("<f4")
    nan_row = None
    damage = rng.random()
    if damage < 0.1 and steps:
        nan_row = int(rng.integers(1, steps + 1))
        rows[nan_row - 1] = np.nan
    data = HEADER.pack(b"CTCP", 1, int(probabilities), 0, steps, num_labels, blank_id,
                       FRAME_SHIFT_MS, r) + rows.tobytes()
    if 0.1 <= damage < 0.2:
        data = data[:int(rng.integers(0, len(data)))]
    flags = ["-V", str(rng.integers(1, 9)), "--onset-margin", str(rng.integers(0, 5)),
             "--offset-margin", str(rng.integers(0, 5)),
             "--min-len-ratio", str(round(float(rng.choice([0.0, rng.random() * 0.6])), 3))]
    return data, nan_row, flags, str(rng.choice(["jsonl", "ctm", "tsv"]))


def _run(argv, data, source, rng, path, capsys, monkeypatch):
    """(exit code, stdout, stderr) of main over the bytes as --input or as chunked --stream."""
    if source == "input":
        path.write_bytes(data)
        argv = [*argv, "--input", str(path)]
    else:
        most = int(rng.choice([1, 7, 64, 1 << 16]))
        monkeypatch.setattr(sys, "stdin", ChunkedStdin(data, rng, most))
        argv = [*argv, "--stream"]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def _rebuilt(online_out, flags, data, fmt):
    """The offline stdout, rebuilt from online close and flush events by the library."""
    _, _, _, _, steps, _, blank_id, frame_shift_ms, r = HEADER.unpack(data[:HEADER.size])
    value = dict(zip(flags[::2], flags[1::2]))
    cfg = SegmenterConfig(v_threshold=int(value["-V"]),
                          onset_margin=int(value["--onset-margin"]),
                          offset_margin=int(value["--offset-margin"]), subsample_factor=r,
                          blank_id=blank_id, min_len_ratio=float(value["--min-len-ratio"]))
    events = []
    for line in online_out.splitlines():
        d = json.loads(line)
        if d["event"] != "open":
            seg = Segment(index=d["index"], k_first_nonblank=d["k_first"],
                          k_last_nonblank=d["k_last"], t_start=d["t_start"], t_end=d["t_end"],
                          frame_shift_ms=frame_shift_ms, transcript_len=d["transcript_len"])
            events.append(SegmentEvent(kind=EventKind(d["event"]), emitted_at_step=d["step"],
                                       index=d["index"], t_start=d["t_start"], segment=seg))
    sink = io.StringIO()
    write_segments(filter_short_segments(segments_from_events(events, cfg, steps * r), cfg),
                   fmt, sink)
    return sink.getvalue()


@pytest.mark.parametrize("block", range(4))
def test_every_mode_and_source_agree(tmp_path, capsys, monkeypatch, block):
    for case in range(block * CASES_PER_BLOCK, (block + 1) * CASES_PER_BLOCK):
        rng = np.random.default_rng([2022, case])
        data, nan_row, flags, fmt = _random_case(rng)
        runs = {(mode, source): _run(["segment", "--mode", mode, *flags,
                                      *(["--format", fmt] if mode == "offline" else [])],
                                     data, source, rng, tmp_path / "in.ctcp", capsys,
                                     monkeypatch)
                for mode in ("offline", "online") for source in ("input", "stream")}
        assert len({(code, err) for code, _, err in runs.values()}) == 1, (case, runs)
        for mode in ("offline", "online"):
            assert runs[mode, "input"][1] == runs[mode, "stream"][1], (case, mode)
        code, _, err = runs["offline", "input"]
        online_out = runs["online", "input"][1]
        if code == 0:
            assert err == ""
            assert _rebuilt(online_out, flags, data, fmt) == runs["offline", "input"][1], case
            continue
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (case, err)
        assert runs["offline", "input"][1] == "", case
        if nan_row is not None:
            assert err.startswith(f"error: row {nan_row} "), (case, err)
            cut = data[:HEADER.size + 4 * HEADER.unpack(data[:HEADER.size])[5] * (nan_row - 1)]
            code, expected, err = _run(["segment", "--mode", "online", *flags], cut, "input",
                                       rng, tmp_path / "cut.ctcp", capsys, monkeypatch)
            assert code == 1 and "stream ended" in err, (case, err)
            assert online_out == expected, case


def _online_peak(path, steps, capsys):
    """The tracemalloc peak, in bytes, of an online run over the first `steps` rows."""
    labels = np.tile(np.r_[np.zeros(20, dtype=np.int64), np.arange(1, 11)], steps // 30 + 1)
    rows = np.full((steps, 32), 0.1 / 31, dtype="<f4")
    rows[np.arange(steps), labels[:steps]] = 0.9
    path.write_bytes(HEADER.pack(b"CTCP", 1, 1, 0, steps, 32, 0, 10.0, 4) + rows.tobytes())
    tracemalloc.start()
    try:
        assert main(["segment", "--mode", "online", "--input", str(path),
                     "--output", os.devnull]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        assert capsys.readouterr() == ("", "")


def test_online_memory_stays_flat_as_the_stream_grows(tmp_path, capsys):
    # 16k rows of 32 labels fill the reader's 1 MiB buffer twice over, so at 64k
    # rows nothing but per-stream state could grow.
    _online_peak(tmp_path / "warm.ctcp", 1000, capsys)
    small = _online_peak(tmp_path / "small.ctcp", 16_000, capsys)
    large = _online_peak(tmp_path / "large.ctcp", 64_000, capsys)
    assert large <= 1.05 * small, (small, large)
