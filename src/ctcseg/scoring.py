"""Frame-level segmentation metrics and real-time-factor measurement."""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .core import ReferenceAnnotation, Segment


@dataclass(frozen=True)
class EvalReport:
    """Frame-level precision/recall/F1 plus boundary error.

    An empty denominator scores 1.0 only when the other side is empty too,
    otherwise 0.0; f1 is the harmonic mean (0 when both are 0).
    """

    frame_precision: float
    frame_recall: float
    frame_f1: float
    boundary_mae_frames: float
    n_hyp_segments: int
    n_ref_segments: int

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(hyp: list[Segment], ref: ReferenceAnnotation, frame_shift_ms: float,
             total_frames: int) -> EvalReport:
    """Score each hypothesis segment's part on frames 1..total_frames against the annotation."""
    hyp_spans = []
    prev_end = 0
    for seg in hyp:
        if seg.t_start <= prev_end:
            raise ValueError("hypothesis segments must be sorted and disjoint")
        prev_end = seg.t_end
        if seg.t_start <= total_frames:
            hyp_spans.append((seg.t_start, min(seg.t_end, total_frames)))
    ref_spans = ref.region_frame_spans(frame_shift_ms, total_frames)

    hyp_mask = _span_mask(hyp_spans, total_frames)
    ref_mask = _span_mask(ref_spans, total_frames)
    n_hyp = int(hyp_mask.sum())
    n_ref = int(ref_mask.sum())
    n_hit = int((hyp_mask & ref_mask).sum())

    precision = _safe_ratio(n_hit, n_hyp, other_empty=n_ref == 0)
    recall = _safe_ratio(n_hit, n_ref, other_empty=n_hyp == 0)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

    return EvalReport(
        frame_precision=precision,
        frame_recall=recall,
        frame_f1=f1,
        boundary_mae_frames=_boundary_mae(hyp_spans, ref_spans),
        n_hyp_segments=len(hyp_spans),
        n_ref_segments=len(ref_spans),
    )


def measure_rtf(work: Callable[[], object], audio_duration_sec: float) -> float:
    """Wall-clock seconds spent in work() divided by the audio duration."""
    if audio_duration_sec <= 0:
        raise ValueError(f"audio_duration_sec must be positive, got {audio_duration_sec}")
    t0 = time.perf_counter()
    work()
    return (time.perf_counter() - t0) / audio_duration_sec


def _span_mask(spans: list[tuple[int, int]], total_frames: int) -> np.ndarray:
    mask = np.zeros(total_frames + 1, dtype=bool)  # slot 0 unused, 1-based frames
    for a, b in spans:
        mask[a:b + 1] = True
    return mask


def _safe_ratio(hits: int, denom: int, other_empty: bool) -> float:
    if denom == 0:
        return 1.0 if other_empty else 0.0
    return hits / denom


def _boundary_mae(hyp_spans: list[tuple[int, int]], ref_spans: list[tuple[int, int]]) -> float:
    """Mean boundary error over greedily matched pairs (largest overlap first).

    Both lists are sorted with non-decreasing ends, so the refs overlapping
    one hyp span form a run that only moves right from one hyp to the next:
    a single sweep finds every overlapping pair in O(H + R + pairs).
    """
    candidates = []
    lo = 0
    for i, (ha, hb) in enumerate(hyp_spans):
        while lo < len(ref_spans) and ref_spans[lo][1] < ha:
            lo += 1  # ends before this hyp span, so before every later one too
        for j in range(lo, len(ref_spans)):
            ra, rb = ref_spans[j]
            if ra > hb:
                break
            overlap = min(hb, rb) - max(ha, ra) + 1
            if overlap > 0:
                candidates.append((overlap, i, j))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    used_h: set[int] = set()
    used_r: set[int] = set()
    errors = []
    for _, i, j in candidates:
        if i in used_h or j in used_r:
            continue
        used_h.add(i)
        used_r.add(j)
        ha, hb = hyp_spans[i]
        ra, rb = ref_spans[j]
        errors.append((abs(ha - ra) + abs(hb - rb)) / 2.0)
    return float(np.mean(errors)) if errors else 0.0
