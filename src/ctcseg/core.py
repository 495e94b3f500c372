"""Shared domain types and index arithmetic.

Indexing convention used everywhere in this package: subsampled steps k
and feature frames t are both 1-based. Step k covers feature frames
(k-1)*r+1 .. k*r and is anchored at its last covered frame, k*r. The
I/O layer converts to 0-based array offsets at the boundary.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidConfig, NonFiniteScore, ProbabilityOutOfRange, RowSumViolation

# Tolerance for "rows sum to one" checks on probability streams.
PROB_SUM_TOLERANCE = 1e-4
# |s - 1| <= 1e-4 in float32 as exact bounds on s: s - 1 is exact for s in [0.5, 2]
# (Sterbenz), no float32 lies between float32(1e-4) and 1e-4, and other s fail both.
_SUM_LO = 1.0 - float(np.float32(PROB_SUM_TOLERANCE))
_SUM_HI = 1.0 + float(np.float32(PROB_SUM_TOLERANCE))

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
    with np.errstate(over="ignore"):  # as the CTCP header's f32: 1e40 reads inf, 1e-46 reads 0
        shift = np.float32(frame_shift_ms)
    if not 0 < shift < math.inf:  # NaN fails too
        raise InvalidConfig(f"frame_shift_ms must be a positive finite f32, got {frame_shift_ms}")


def steps_in(duration_sec: float, frame_shift_ms: float, subsample_factor: int,
             num_labels: int) -> int:
    """Whole steps in duration_sec, raw frames rounded half to even; at most 2**32 - 1,
    and no more than physical memory holds as float32 rows of num_labels scores."""
    steps = round(duration_sec * 1000.0 / frame_shift_ms, 0) // subsample_factor
    if not steps < 2**32:  # the CTCP header's u32; as floats, so inf and NaN fail too
        raise InvalidConfig(f"{duration_sec} s at {frame_shift_ms} ms must be < 2**32 steps")
    steps = int(steps)
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # not POSIX: the u32 rule alone
        memory = math.inf
    if steps * num_labels * 4 > memory:  # in ints, which no label count overflows
        raise InvalidConfig(f"{steps} steps x {num_labels} labels of float32 exceed "
                            f"the {memory} bytes of physical memory")
    return steps


def validate_rows(rows: np.ndarray, probabilities: bool, first_row: int = 1) -> None:
    """Check a (steps, labels) float32 block of score rows; raise on the first bad one.

    Every row must be finite; probability rows must also sum to one within
    PROB_SUM_TOLERANCE and lie in [0, 1], checked in that order. The error
    names the row as first_row + its index in the block and carries that
    number as .row. A block passes when the extremes of its scores and row
    sums do, which is exactly when every row passes; a failing block is halved,
    first half first, down to its first bad row. Rows are in C order, so that
    a row sums alike in a block and alone (PosteriorStream makes them so).
    """
    if not rows.shape[0]:
        return
    # argmin/argmax beat a ufunc reduce on small blocks, and both find the first NaN.
    lo, hi = rows.item(rows.argmin()), rows.item(rows.argmax())
    if not probabilities and -math.inf < lo and hi < math.inf:
        return
    if probabilities and 0.0 <= lo and hi <= 1.0:  # in range, so the sums cannot overflow
        sums = np.add.reduce(rows, 1)
        if _SUM_LO <= sums.item(sums.argmin()) and sums.item(sums.argmax()) <= _SUM_HI:
            return
    if half := rows.shape[0] // 2:
        validate_rows(rows[:half], probabilities, first_row)
        validate_rows(rows[half:], probabilities, first_row + half)
        return
    if not (-math.inf < lo and hi < math.inf):
        raise NonFiniteScore(f"row {first_row} holds a non-finite score", first_row)
    with np.errstate(over="ignore", invalid="ignore"):  # huge scores; inf - inf is NaN
        total = np.add.reduce(rows, 1).item()
    if total < _SUM_LO or total > _SUM_HI:  # a NaN sum (huge cells) is named out of range
        raise RowSumViolation(f"row {first_row} sums to {total:.6f}, not 1", first_row)
    raise ProbabilityOutOfRange(f"row {first_row} holds a probability outside [0, 1]", first_row)


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
        frames = np.asarray(self.frames, dtype=np.float32, order="C")  # see validate_rows
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
    is known. transcript_len is the length of the collapsed greedy
    transcript of the anchor span, which the min-length filter reads.
    """

    index: int
    k_first_nonblank: int
    k_last_nonblank: int
    t_start: int
    t_end: int
    frame_shift_ms: float = 10.0
    transcript_len: int = 0

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
    full segment.
    """

    kind: EventKind
    emitted_at_step: int
    index: int
    t_start: int
    segment: Segment | None = None

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
            if not prev_end <= s < e:
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
