"""Greedy decoding and blank-run segmentation: one gap rule, fed in blocks, offline and online.

greedy_decode() and greedy_label() give the greedy label of each subsampled
step k: its score vector's argmax. The rule works on those labels. A segment
opens at a non-blank step. It ends once v_threshold (V) consecutive
blanks follow its last non-blank step k_last, so its close fires at step
k_last + V; a non-blank step more than V steps after k_last therefore
belongs to a new segment. OnlineSegmenter.push() is the only
implementation of the rule and of the collapsed transcript count, which
rides on each Segment as transcript_len. It takes the labels of the next
steps in blocks of any size, and the offline path is push() over the
whole stream, then finish() and segments_from_events().
filter_short_segments() is the one min-length filter.

Detected segments are anchored at their first/last non-blank step,
expanded by the onset/offset margins in feature frames, clipped to the
stream, and merged when the expanded spans share frames. A close
event's t_end includes the offset margin and may lie past the frames
seen so far; consumers buffer offset_margin * r feature frames, and
segments_from_events() clips once the stream length is known.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from .core import EventKind, LabelStream, PosteriorStream, Segment, SegmentEvent, SegmenterConfig
from .errors import InvalidConfig, InvalidState


def greedy_decode(stream: PosteriorStream) -> LabelStream:
    """Per-step argmax over the score vectors.

    Works identically on probabilities and pre-softmax scores (argmax is
    invariant under any strictly monotone transform). Ties break to the
    lowest label ID. A zero-row stream gives zero labels.
    """
    labels = np.argmax(stream.frames, axis=1)
    return LabelStream(labels=labels, blank_id=stream.blank_id)


def greedy_label(scores: np.ndarray) -> int:
    """Argmax of a single score vector; the incremental unit of greedy_decode."""
    return int(np.argmax(scores))


def min_length_filter(output_len: int, encoded_len: int, alpha: float) -> bool:
    """Keep/reject decision for one segment; returns True to keep.

    Rejects when output_len / encoded_len <= alpha (boundary inclusive:
    a ratio exactly equal to alpha rejects).
    """
    if encoded_len < 1:
        raise ValueError(f"encoded_len must be >= 1, got {encoded_len}")
    return output_len / encoded_len > alpha


def _check_stream_extent(num_steps: int, r: int, total_feature_frames: int) -> None:
    if total_feature_frames < num_steps * r:
        raise ValueError(
            f"total_feature_frames {total_feature_frames} shorter than "
            f"{num_steps} steps * r={r}"
        )
    if total_feature_frames - num_steps * r >= r:
        raise ValueError(
            f"total_feature_frames {total_feature_frames} leaves a ragged tail of "
            f">= r={r} frames beyond {num_steps} steps"
        )


def _reindex(segments: list[Segment]) -> list[Segment]:
    return [seg if seg.index == i else dataclasses.replace(seg, index=i)
            for i, seg in enumerate(segments, start=1)]


def segment_offline(labels: LabelStream, cfg: SegmenterConfig, total_feature_frames: int,
                    frame_shift_ms: float = 10.0) -> list[Segment]:
    """Segment a complete label stream.

    Returns sorted, non-overlapping segments. Leading/trailing blank runs
    never create segments; interior blank runs of length >= cfg.v_threshold
    separate them.
    """
    if labels.blank_id != cfg.blank_id:
        raise InvalidConfig(
            f"label stream blank_id {labels.blank_id} != config blank_id {cfg.blank_id}"
        )
    segmenter = OnlineSegmenter(cfg, frame_shift_ms=frame_shift_ms)
    events = segmenter.push(labels.labels.tolist())
    events += segmenter.finish(total_feature_frames)
    return segments_from_events(events, cfg, total_feature_frames)


def encoded_length(segment: Segment, r: int) -> int:
    """Expanded feature span measured in subsampled steps (ceil division)."""
    return -(-segment.num_feature_frames // r)


def filter_short_segments(segments: list[Segment], cfg: SegmenterConfig) -> list[Segment]:
    """Drop segments whose collapsed transcript is too short for their span.

    output_len is the segment's transcript_len, encoded_len the expanded span
    in subsampled steps; kept segments are reindexed 1..n. A transcript_len of
    0, as on every energy_vad segment, is rejected at any ratio, 0.0 included.
    """
    r, alpha = cfg.subsample_factor, cfg.min_len_ratio
    return _reindex([seg for seg in segments
                     if min_length_filter(seg.transcript_len, encoded_length(seg, r), alpha)])


class OnlineSegmenter:
    """Single-pass streaming segmenter; feed greedy labels in blocks of any size.

    push() returns the events fired by the next steps' labels, in step
    order; step() pushes one label. Call finish(total_feature_frames)
    exactly once at end of stream to flush a segment still open; reset()
    rearms the instance for a new stream.
    """

    def __init__(self, cfg: SegmenterConfig, frame_shift_ms: float = 10.0):
        self.cfg = cfg
        self.frame_shift_ms = frame_shift_ms
        self.reset()

    def reset(self) -> None:
        self._k = 0           # steps seen
        self._k_last = 0      # last non-blank step
        self._prev = -1       # label at k_last; -1 before the first one
        self._out_len = 0     # collapsed transcript length of the open segment
        self._open = False
        self._index = 0
        self._k_first = 0
        self._t_start = 0
        self._finished = False

    def step(self, label: int) -> list[SegmentEvent]:
        return self.push((label,))

    def push(self, labels: Sequence[int]) -> list[SegmentEvent]:
        """Feed the greedy labels of the next steps; returns their events in step order."""
        if self._finished:
            raise InvalidState("push() after finish(); call reset() first")
        blank = self.cfg.blank_id
        v = self.cfg.v_threshold
        k0, k_last, prev, out_len, is_open = (self._k, self._k_last, self._prev,
                                              self._out_len, self._open)
        events: list[SegmentEvent] = []
        for k, label in enumerate(labels, k0 + 1):
            if label == blank:
                continue
            if k - k_last > v or not is_open:
                if is_open:
                    events.append(self._ending(EventKind.CLOSE, k_last + v, k_last, out_len))
                events.append(self._opening(k))
                is_open = True
                out_len = 1
            elif k != k_last + 1 or label != prev:
                out_len += 1
            k_last = k
            prev = label
        k = k0 + len(labels)
        if is_open and k - k_last >= v:
            events.append(self._ending(EventKind.CLOSE, k_last + v, k_last, out_len))
            is_open = False
        self._k, self._k_last, self._prev, self._out_len, self._open = (k, k_last, prev,
                                                                         out_len, is_open)
        return events

    def finish(self, total_feature_frames: int) -> list[SegmentEvent]:
        """Flush an open segment at end of stream; t_end is clipped to the stream."""
        if self._finished:
            raise InvalidState("finish() called twice; call reset() first")
        _check_stream_extent(self._k, self.cfg.subsample_factor, total_feature_frames)
        self._finished = True
        if not self._open:
            return []
        return [self._ending(EventKind.FLUSH, self._k, self._k_last, self._out_len,
                             total_feature_frames)]

    def _opening(self, k: int) -> SegmentEvent:
        cfg = self.cfg
        self._index += 1
        self._k_first = k
        self._t_start = max(1, cfg.subsample_factor * (k - cfg.onset_margin))
        return SegmentEvent(kind=EventKind.OPEN, emitted_at_step=k,
                            index=self._index, t_start=self._t_start)

    def _ending(self, kind: EventKind, step: int, k_last: int, out_len: int,
                t_max: int | None = None) -> SegmentEvent:
        t_end = self.cfg.subsample_factor * (k_last + self.cfg.offset_margin)
        if t_max is not None:
            t_end = min(t_end, t_max)
        return SegmentEvent(
            kind=kind, emitted_at_step=step, index=self._index, t_start=self._t_start,
            segment=Segment(index=self._index, k_first_nonblank=self._k_first,
                            k_last_nonblank=k_last, t_start=self._t_start, t_end=t_end,
                            frame_shift_ms=self.frame_shift_ms, transcript_len=out_len),
        )


def segments_from_events(events: list[SegmentEvent], cfg: SegmenterConfig,
                         total_feature_frames: int) -> list[Segment]:
    """Rebuild the offline segment list from an online event stream.

    Clips close-event spans to the now-known stream length, merges
    neighbours whose spans share at least one feature frame (spans that
    only touch stay apart), and reindexes. Merged parts are separated by
    blanks, so their transcript lengths add up. filter_short_segments()
    of the result equals segment_posteriors.
    """
    segments: list[Segment] = []
    for ev in events:
        seg = ev.segment
        if seg is None:  # an open event
            continue
        if seg.t_end > total_feature_frames:
            seg = dataclasses.replace(seg, t_end=total_feature_frames)
        if segments and seg.t_start <= segments[-1].t_end:  # a later part ends later
            first = segments.pop()
            seg = dataclasses.replace(first, k_last_nonblank=seg.k_last_nonblank, t_end=seg.t_end,
                                      transcript_len=first.transcript_len + seg.transcript_len)
        segments.append(seg)
    return _reindex(segments)


def segment_posteriors(stream: PosteriorStream, cfg: SegmenterConfig) -> list[Segment]:
    """Full offline pipeline: greedy decode, segment, length-filter.

    cfg.min_len_ratio = 0.0 keeps every segment.
    """
    if cfg.subsample_factor != stream.subsample_factor:
        raise InvalidConfig(
            f"config subsample_factor {cfg.subsample_factor} != "
            f"stream subsample_factor {stream.subsample_factor}"
        )
    segments = segment_offline(greedy_decode(stream), cfg, stream.total_feature_frames,
                               frame_shift_ms=stream.frame_shift_ms)
    return filter_short_segments(segments, cfg)  # positional: perfbench's hook reads args[0]
