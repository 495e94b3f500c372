"""Seeded input generator for the benchmark.

Writes CTCP bytes with numpy and struct, and annotation JSON, from a
seed. It deliberately imports nothing from ctcseg (no simulate, no
write_posteriors), so a change to the program cannot change a workload:
the program only ever receives the bytes made here.

Every stream uses r=4 and 10 ms feature frames, so one row (subsampled
step) is 40 ms of audio. Labels are planted as bursts of speech between
silences of blanks; each row puts PEAK on its planted label and spreads
the rest of the probability mass as random noise over the other labels,
so the argmax is the planted label and probability rows sum to one.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

R = 4
FRAME_SHIFT_MS = 10.0
BLANK = 0
STEP_SEC = R * FRAME_SHIFT_MS / 1000.0
PEAK = 0.6
# Share of bursts that are one run of one label. Their collapsed transcript
# is a single token, so the length filter rejects them.
REPEAT_SHARE = 0.25
# Most feature frames an annotated boundary moves away from its burst.
REF_JITTER = 6

_HEADER = struct.Struct("<4sHBBIIIfI")
HEADER_SIZE = _HEADER.size
_FLAG_PROBABILITIES = 0x01
_CHUNK_ROWS = 1024


@dataclass(frozen=True)
class Shape:
    """Size and burst pattern of one planted stream, in subsampled steps."""

    num_steps: int
    num_labels: int
    burst_steps: tuple[int, int]  # inclusive range of a speech burst's length
    gap_steps: tuple[int, int]  # inclusive range of the silence between bursts
    spike_gap_max: int  # most blanks between two spikes inside a burst

    @property
    def duration_sec(self) -> float:
        return self.num_steps * STEP_SEC


# 600 s, 3000 labels: 2 s speech / 1 s silence, about 200 bursts, of
# which about 150 become segments.
WIDE = Shape(15_000, 3000, (45, 55), (20, 30), 3)
# 1 h, 32 labels: the same pattern, about 1,200 bursts and 900 segments.
HOUR = Shape(90_000, 32, (45, 55), (20, 30), 3)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream name)."""
    return np.random.default_rng([seed, *stream.encode()])


def plant_labels(shape: Shape,
                 rng: np.random.Generator) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Greedy labels per step and the planted bursts as 1-based (first, last) steps.

    Every burst starts and ends on a spike; blanks inside a burst never
    reach the segmentation threshold, and every silence (leading and
    trailing included) is at least shape.gap_steps[0] long.
    """
    labels = np.full(shape.num_steps, BLANK, dtype=np.int64)
    bursts = []
    pos = int(rng.integers(shape.gap_steps[0], shape.gap_steps[1] + 1))
    while True:
        length = int(rng.integers(shape.burst_steps[0], shape.burst_steps[1] + 1))
        if pos + length + shape.gap_steps[0] > shape.num_steps:
            break
        if rng.random() < REPEAT_SHARE:
            labels[pos:pos + length] = rng.integers(1, shape.num_labels)
        else:
            _plant_spikes(labels, pos, length, shape, rng)
        bursts.append((pos + 1, pos + length))
        pos += length + int(rng.integers(shape.gap_steps[0], shape.gap_steps[1] + 1))
    return labels, bursts


def _plant_spikes(labels: np.ndarray, pos: int, length: int, shape: Shape,
                  rng: np.random.Generator) -> None:
    gaps = rng.integers(1, shape.spike_gap_max + 2, size=length)
    offsets = np.concatenate(([0], np.cumsum(gaps)))
    offsets = np.append(offsets[offsets < length - 1], length - 1)
    # Consecutive spikes differ, so each spike adds one collapsed token.
    steps = rng.integers(1, shape.num_labels - 1, size=offsets.size)
    spikes = np.cumsum(steps) % (shape.num_labels - 1) + 1
    labels[pos + offsets] = spikes


def posterior_rows(labels: np.ndarray, num_labels: int, rng: np.random.Generator):
    """Probability rows (float32, little-endian) whose argmax is the planted label."""
    for i in range(0, labels.size, _CHUNK_ROWS):
        lab = labels[i:i + _CHUNK_ROWS]
        rows = rng.random((lab.size, num_labels), dtype=np.float32) + np.float32(0.5)
        rows[np.arange(lab.size), lab] = 0.0
        rows *= np.float32(1.0 - PEAK) / rows.sum(axis=1, keepdims=True)
        rows[np.arange(lab.size), lab] = PEAK
        yield rows.astype("<f4", copy=False)


def ctcp_header(num_frames: int, num_labels: int) -> bytes:
    return _HEADER.pack(b"CTCP", 1, _FLAG_PROBABILITIES, 0, num_frames, num_labels,
                        BLANK, FRAME_SHIFT_MS, R)


def write_ctcp(path: Path, labels: np.ndarray, num_labels: int,
               rng: np.random.Generator) -> None:
    """Write the stream and wait until it is on disk.

    Without the fsync, the kernel would write the dirty pages back
    while the benchmark is timing reads of the same file.
    """
    with open(path, "wb") as f:
        f.write(ctcp_header(labels.size, num_labels))
        for rows in posterior_rows(labels, num_labels, rng):
            f.write(rows.tobytes())
        f.flush()
        os.fsync(f.fileno())


def ctcp_bytes(labels: np.ndarray, num_labels: int, rng: np.random.Generator) -> bytes:
    parts = [ctcp_header(labels.size, num_labels)]
    parts += [rows.tobytes() for rows in posterior_rows(labels, num_labels, rng)]
    return b"".join(parts)


def reference_frames(bursts: list[tuple[int, int]],
                     rng: np.random.Generator) -> list[tuple[int, int]]:
    """Annotated regions as 1-based inclusive feature frames around the bursts.

    Each boundary moves by up to REF_JITTER frames, so the hypothesis and
    the reference disagree a little and precision and recall are not 1.
    Rejected bursts are annotated too, as speech the segmenter missed.
    """
    out = []
    for first, last in bursts:
        a = (first - 1) * R + 1 + int(rng.integers(-REF_JITTER, REF_JITTER + 1))
        b = last * R + int(rng.integers(-REF_JITTER, REF_JITTER + 1))
        out.append((max(1, a), b))
    return out


def annotation_json(frames: list[tuple[int, int]], duration_sec: float) -> str:
    """Annotation whose regions cover exactly the given feature frames."""
    unit = FRAME_SHIFT_MS / 1000.0
    regions = [[(a - 1) * unit, b * unit] for a, b in frames]
    return json.dumps({"duration_sec": duration_sec, "regions": regions})
