"""Shared domain types and index arithmetic.

Indexing convention used everywhere in this package: subsampled steps k
and feature frames t are both 1-based. Step k covers feature frames
(k-1)*r+1 .. k*r and is anchored at its last covered frame, k*r. The
I/O layer converts to 0-based array offsets at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfig, NonFiniteScore, ProbabilityOutOfRange, RowSumViolation

# Tolerance for "rows sum to one" checks on probability streams.
PROB_SUM_TOLERANCE = 1e-4

# Guard against float dust when snapping second-valued times onto frame grids.
_GRID_EPS = 1e-9


def check_layout(num_labels: int, blank_id: int, frame_shift_ms: float,
                 subsample_factor: int) -> None:
    """Check a stream description; raise InvalidConfig naming the first bad field.

    A valid stream has a valid layout (this check) and valid rows (validate_rows).
    """
    if num_labels < 1:
        raise InvalidConfig(f"num_labels must be >= 1, got {num_labels}")
    if not 0 <= blank_id < num_labels:
        raise InvalidConfig(f"blank_id {blank_id} out of range for {num_labels} labels")
    if subsample_factor < 1:
        raise InvalidConfig(f"subsample_factor must be >= 1, got {subsample_factor}")
    if not 0 < frame_shift_ms < math.inf:  # NaN fails too
        raise InvalidConfig(f"frame_shift_ms must be positive and finite, got {frame_shift_ms}")


def validate_rows(rows: np.ndarray, probabilities: bool, first_row: int = 1) -> None:
    """Check a (steps, labels) float32 block of score rows; raise on the first bad one.

    Every row must be finite; probability rows must also sum to one within
    PROB_SUM_TOLERANCE and lie in [0, 1], checked in that order. The error
    names the row as first_row + its index in the block and carries that
    number as .row. The common all-good case costs a few whole-block
    reductions.
    """
    if not rows.shape[0]:
        return
    with np.errstate(over="ignore", invalid="ignore"):  # huge or non-finite scores
        sums = rows.sum(axis=1)
        deviation = np.abs(sums - 1.0)  # NaN for a row holding NaN or inf
    if probabilities:
        # NaN fails every comparison, so a row holding NaN misses this fast path too.
        if rows.min() >= 0.0 and rows.max() <= 1.0 and deviation.max() <= PROB_SUM_TOLERANCE:
            return
        bad = ((rows.min(axis=1) < 0.0) | (rows.max(axis=1) > 1.0)
               | ~(deviation <= PROB_SUM_TOLERANCE))
    else:
        # A finite row whose float32 sum overflows is fine: scan only rows whose
        # sum is not finite, element by element.
        bad = ~np.isfinite(sums)
        if bad.any():
            bad[bad] = ~np.isfinite(rows[bad]).all(axis=1)
    if not bad.any():
        return
    i = int(np.argmax(bad))
    row, n = rows[i], first_row + i
    if not np.isfinite(row).all():
        raise NonFiniteScore(f"row {n} holds a non-finite score", n)
    if deviation[i] > PROB_SUM_TOLERANCE:
        raise RowSumViolation(f"row {n} sums to {sums[i]:.6f}, not 1", n)
    raise ProbabilityOutOfRange(f"row {n} holds a probability outside [0, 1]", n)


def first_frame_at_or_after(time_sec: float, unit_ms: float) -> int:
    """First 1-based frame of length unit_ms whose span starts at or after time_sec.

    Frames cover half-open time spans ((f-1)*unit_ms, f*unit_ms]; a region
    start lying exactly on a frame boundary belongs to the next frame.
    """
    return int(math.floor(time_sec * 1000.0 / unit_ms + _GRID_EPS)) + 1


def last_frame_before(time_sec: float, unit_ms: float) -> int:
    """Last 1-based frame of length unit_ms overlapping [0, time_sec)."""
    return int(math.ceil(time_sec * 1000.0 / unit_ms - _GRID_EPS))


@dataclass(frozen=True)
class PosteriorStream:
    """Per-step label scores on the subsampled grid.

    frames has shape (num_steps, num_labels), one score vector per
    subsampled step. Scores are probabilities unless presoftmax is set,
    in which case they are unnormalized scores (argmax is invariant, so
    greedy decoding treats both identically; only the finiteness check of
    validate_rows applies). frame_shift_ms is the RAW feature frame shift;
    one row spans subsample_factor raw frames.
    """

    frames: np.ndarray
    frame_shift_ms: float = 10.0
    subsample_factor: int = 1
    blank_id: int = 0
    presoftmax: bool = False

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float32)
        if frames.ndim != 2:
            raise ValueError(f"frames must be 2-D (steps, labels), got shape {frames.shape}")
        object.__setattr__(self, "frames", frames)
        check_layout(frames.shape[1], self.blank_id, self.frame_shift_ms, self.subsample_factor)
        validate_rows(frames, probabilities=not self.presoftmax)

    @property
    def num_steps(self) -> int:
        return self.frames.shape[0]

    @property
    def num_labels(self) -> int:
        return self.frames.shape[1]

    @property
    def total_feature_frames(self) -> int:
        return self.num_steps * self.subsample_factor

    @property
    def duration_sec(self) -> float:
        return self.total_feature_frames * self.frame_shift_ms / 1000.0


@dataclass(frozen=True)
class LabelStream:
    """Frame-synchronous greedy label IDs with their designated blank."""

    labels: np.ndarray
    blank_id: int = 0

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if labels.size and labels.min() < 0:
            raise ValueError("label IDs must be non-negative")
        if self.blank_id < 0:
            raise InvalidConfig(f"blank_id must be non-negative, got {self.blank_id}")
        object.__setattr__(self, "labels", labels)

    @property
    def num_steps(self) -> int:
        return int(self.labels.shape[0])


@dataclass(frozen=True)
class SegmenterConfig:
    """Blank-run segmentation parameters, all in subsampled steps.

    Defaults are the tuned values for 10 ms features at subsampling 4:
    a threshold of 16 steps means 16 * 4 * 10 = 640 ms of consecutive
    blanks ends a segment.
    """

    v_threshold: int = 16
    onset_margin: int = 2
    offset_margin: int = 3
    subsample_factor: int = 4
    blank_id: int = 0
    min_len_ratio: float = 0.1

    def __post_init__(self):
        if self.v_threshold < 1:
            raise InvalidConfig(f"v_threshold must be >= 1, got {self.v_threshold}")
        if self.onset_margin < 0 or self.offset_margin < 0:
            raise InvalidConfig("margins must be non-negative")
        if self.subsample_factor < 1:
            raise InvalidConfig(f"subsample_factor must be >= 1, got {self.subsample_factor}")
        if self.blank_id < 0:
            raise InvalidConfig(f"blank_id must be non-negative, got {self.blank_id}")
        if not 0.0 <= self.min_len_ratio < 1.0:
            raise InvalidConfig(f"min_len_ratio must be in [0, 1), got {self.min_len_ratio}")

    def blank_threshold_ms(self, frame_shift_ms: float) -> float:
        """Minimum non-speech duration implied by the threshold, in milliseconds."""
        return self.v_threshold * self.subsample_factor * frame_shift_ms


@dataclass(frozen=True)
class Segment:
    """One detected speech region.

    k_first_nonblank/k_last_nonblank span the non-blank anchor labels in
    subsampled steps; t_start/t_end are the margin-expanded feature-frame
    span (1-based, inclusive). Online close events may carry a t_end past
    the frames seen so far; it is clipped to the stream length once that
    is known.
    """

    index: int
    k_first_nonblank: int
    k_last_nonblank: int
    t_start: int
    t_end: int
    frame_shift_ms: float = 10.0

    def __post_init__(self):
        if self.k_first_nonblank < 1 or self.k_last_nonblank < self.k_first_nonblank:
            raise ValueError(
                f"bad anchor span [{self.k_first_nonblank}, {self.k_last_nonblank}]"
            )
        if self.t_start < 1 or self.t_end < self.t_start:
            raise ValueError(f"bad feature span [{self.t_start}, {self.t_end}]")

    @property
    def start_sec(self) -> float:
        return self.t_start * self.frame_shift_ms / 1000.0

    @property
    def end_sec(self) -> float:
        return self.t_end * self.frame_shift_ms / 1000.0

    @property
    def num_feature_frames(self) -> int:
        return self.t_end - self.t_start + 1


class EventKind(Enum):
    OPEN = "open"
    CLOSE = "close"
    FLUSH = "flush"


@dataclass(frozen=True)
class SegmentEvent:
    """Online emission: a segment opening, closing, or being flushed at stream end.

    Open events carry only the retroactive t_start (consumers keep a ring
    buffer of onset_margin * r feature frames); Close and Flush carry the
    full segment plus the collapsed-transcript length seen so far.
    """

    kind: EventKind
    emitted_at_step: int
    index: int
    t_start: int
    segment: Segment | None = None
    transcript_len: int | None = None

    def __post_init__(self):
        if self.kind is EventKind.OPEN:
            if self.segment is not None:
                raise ValueError("open events carry no segment payload")
        elif self.segment is None:
            raise ValueError(f"{self.kind.value} events must carry a segment")


@dataclass(frozen=True)
class ReferenceAnnotation:
    """Ground-truth speech regions for a recording, in seconds.

    Regions are half-open [start, end) and must be sorted, non-overlapping
    and inside [0, total_duration_sec]. label_alphabet_size is the CTC
    alphabet (including blank) used when synthesizing posteriors from the
    annotation.
    """

    speech_regions: tuple[tuple[float, float], ...]
    total_duration_sec: float
    label_alphabet_size: int = 32

    def __post_init__(self):
        regions = tuple((float(s), float(e)) for s, e in self.speech_regions)
        object.__setattr__(self, "speech_regions", regions)
        if not 0 < self.total_duration_sec < math.inf:
            raise ValueError(f"total_duration_sec must be positive and finite, "
                             f"got {self.total_duration_sec}")
        if self.label_alphabet_size < 2:
            raise InvalidConfig("label alphabet needs at least blank plus one label")
        prev_end = 0.0
        for s, e in regions:
            if s < prev_end or e <= s:
                raise ValueError(f"regions must be sorted, non-overlapping, non-empty: ({s}, {e})")
            prev_end = e
        if regions and regions[-1][1] > self.total_duration_sec + _GRID_EPS:
            raise ValueError("last region extends past total_duration_sec")

    def region_frame_spans(self, frame_shift_ms: float, total_frames: int) -> list[tuple[int, int]]:
        """Regions as 1-based inclusive feature-frame spans, clipped to the stream."""
        spans = []
        for s, e in self.speech_regions:
            fs = max(1, first_frame_at_or_after(s, frame_shift_ms))
            fe = min(total_frames, last_frame_before(e, frame_shift_ms))
            if fs <= fe:
                spans.append((fs, fe))
        return spans
