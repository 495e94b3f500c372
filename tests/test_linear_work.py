"""Work grows linearly with the stream: no CLI path is quadratic in steps or segments.

Each case runs `main()` in process on a stream of N steps and on one of 4N,
and counts the line events that `sys.settrace` reports in ctcseg's own
frames. The count does not depend on time or on the host. Linear work reads
at most x4 (a fixed cost pulls it below); a path quadratic in steps or in
segments reads about x16. numpy's work does not show in the count, so a
`tracemalloc` peak bounds the memory of an offline run as well.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ctcseg
from ctcseg import PosteriorStream, write_posteriors
from ctcseg.cli import PROFILES, main

from conftest import FakeStdin, prob_frames

PACKAGE = str(Path(ctcseg.__file__).parent)
N = 4_000  # steps; the second run has 4N
R = 4  # subsample factor, as in the benchmark's streams
FRAME_SHIFT_MS = 10.0
NUM_LABELS = 8
V = PROFILES["csj"]["v_threshold"]  # the CLI's default threshold
WAV_RATE = 1_000  # Hz: 10 samples per 10 ms frame
# Largest 4N/N ratio accepted: 4 plus 10% for list growth and random draws.
LINEAR_BOUND = 4.4


def _tiled(burst_range, gap_range, seed):
    """Steps made of one 1,000-step block repeated, so 4N holds exactly 4x N's segments."""
    rng = np.random.default_rng(seed)
    block = [0] * int(rng.integers(*gap_range))
    while True:
        burst = (np.arange(int(rng.integers(*burst_range))) % (NUM_LABELS - 1) + 1).tolist()
        gap = [0] * int(rng.integers(*gap_range))
        if len(block) + len(burst) + len(gap) > 1_000:
            break
        block += burst + gap
    block += [0] * (1_000 - len(block))
    return lambda steps: block * (steps // 1_000)


def _long(steps):
    """Two segments, each nearly half the stream: they grow with it, not in number."""
    half = steps // 2
    speech = [k % (NUM_LABELS - 1) + 1 if k % 2 == 0 else 0 for k in range(half - 2 * V - 1)]
    return ([0] * V + speech + [0] * (V + 1)) * 2


SHAPES = {
    # bursts of 3-11 labels between 20-30 blanks, like the benchmark's streams
    "bursts": _tiled((3, 12), (20, 31), seed=1),
    # many tiny segments: 1-2 labels between gaps just over V
    "tiny": _tiled((1, 3), (V + 1, V + 3), seed=2),
    "long": _long,
}

COMMANDS = {
    "segment-offline-input": ["segment", "--input", "{ctcp}"],
    "segment-online-input": ["segment", "--mode", "online", "--input", "{ctcp}"],
    "segment-offline-stream": ["segment", "--stream"],
    "segment-online-stream": ["segment", "--mode", "online", "--stream"],
    "eval": ["eval", "--input", "{ctcp}", "--ref", "{ref}"],
    "eval-compare": ["eval", "--input", "{ctcp}", "--ref", "{ref}", "--compare", "--wav",
                     "{wav}"],
    "simulate": ["simulate", "--annotation", "{ref}", "--output", "{out}"],
}


def _speech_spans(labels):
    """1-based (first, last) steps of each run of speech: non-blanks less than V apart."""
    spans = []
    for k in np.flatnonzero(labels) + 1:
        if spans and k - spans[-1][1] <= V:
            spans[-1][1] = int(k)
        else:
            spans.append([int(k), int(k)])
    return spans


def _inputs(tmp_path, shape, steps, write_wav):
    """The CTCP file and bytes, its annotation and its WAV, for one shape and size."""
    labels = np.array(SHAPES[shape](steps))
    assert labels.size == steps
    paths = {"ctcp": tmp_path / f"{steps}.ctcp", "ref": tmp_path / f"{steps}.json",
             "out": tmp_path / f"{steps}.sim.ctcp"}
    write_posteriors(PosteriorStream(frames=prob_frames(labels, NUM_LABELS),
                                     frame_shift_ms=FRAME_SHIFT_MS, subsample_factor=R),
                     paths["ctcp"])
    step_sec = R * FRAME_SHIFT_MS / 1000.0
    spans = _speech_spans(labels)
    paths["ref"].write_text(json.dumps({
        "duration_sec": steps * step_sec,
        "regions": [[(a - 1) * step_sec, b * step_sec] for a, b in spans]}))
    samples = np.zeros(int(steps * step_sec * WAV_RATE))
    for a, b in spans:
        samples[int((a - 1) * step_sec * WAV_RATE):int(b * step_sec * WAV_RATE)] = 0.5
    paths["wav"] = write_wav(samples, sample_rate=WAV_RATE, name=f"{steps}.wav")
    return {k: str(v) for k, v in paths.items()}, paths["ctcp"].read_bytes()


def _line_events(fn):
    """The number of line events in ctcseg's frames while fn() runs."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def _runner(command, files, data, capsys, monkeypatch):
    """One in-process CLI run of command on files, which must succeed; returns its stdout."""
    argv = [arg.format(**files) for arg in COMMANDS[command]]

    def run():
        monkeypatch.setattr(sys, "stdin", FakeStdin(data))
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), err
        return out
    return run


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_line_events_grow_linearly(tmp_path, capsys, monkeypatch, write_wav, command, shape):
    counts = []
    for steps in (N, 4 * N):
        files, data = _inputs(tmp_path, shape, steps, write_wav)
        run = _runner(command, files, data, capsys, monkeypatch)
        run()  # warm-up: imports and first-use caches are not per-step work
        counts.append(_line_events(run))
    assert counts[1] <= LINEAR_BOUND * counts[0], counts


@pytest.mark.parametrize("shape", ["bursts", "tiny"])
def test_offline_peak_memory_grows_no_faster_than_the_segments(
        tmp_path, capsys, monkeypatch, write_wav, shape):
    peaks, segments = [], []
    for steps in (N, 4 * N):
        files, data = _inputs(tmp_path, shape, steps, write_wav)
        run = _runner("segment-offline-input", files, data, capsys, monkeypatch)
        run()
        tracemalloc.start()
        try:
            out = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        segments.append(out.count("\n"))
    assert segments[1] == 4 * segments[0] > 0
    assert peaks[1] <= LINEAR_BOUND * peaks[0], peaks


def test_shapes_scale_as_described(tmp_path, capsys, monkeypatch, write_wav):
    found = {}
    for shape in SHAPES:
        for steps in (N, 4 * N):
            files, data = _inputs(tmp_path, shape, steps, write_wav)
            out = _runner("segment-offline-input", files, data, capsys, monkeypatch)()
            found[shape, steps] = out.count("\n")
    assert found["long", N] == found["long", 4 * N] == 2
    assert found["tiny", N] > found["bursts", N] > 100
