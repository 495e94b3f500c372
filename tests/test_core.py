import os
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcseg import (EventKind, InvalidConfig, LabelStream, PosteriorStream,
                    ReferenceAnnotation, Segment, SegmentEvent, SegmenterConfig,
                    segment_offline, segments_from_events)
from ctcseg.core import steps_in


def _segments(labels, r, onset=0, offset=0, total=None):
    """Config and offline segments of a label list, blank 0, V=1."""
    cfg = SegmenterConfig(v_threshold=1, onset_margin=onset, offset_margin=offset,
                          subsample_factor=r, blank_id=0)
    total = r * len(labels) if total is None else total
    return cfg, segment_offline(LabelStream(labels, blank_id=0), cfg, total)


def _spans(labels, r, onset=0, offset=0, total=None):
    """(t_start, t_end) of each segment of a label list."""
    return [(s.t_start, s.t_end) for s in _segments(labels, r, onset, offset, total)[1]]


class TestIndexArithmetic:
    """Step k is anchored at feature frame k*r (1-based), as the segments show."""

    def test_first_step_maps_to_r(self):
        assert _spans([1], 4) == [(4, 4)]

    def test_threshold_step_at_subsampling_four(self):
        # 16 steps at r=4 end at feature frame 64, i.e. 640 ms at a 10 ms shift
        assert _spans([0] * 15 + [1], 4) == [(64, 64)]
        assert SegmenterConfig(v_threshold=16, subsample_factor=4).blank_threshold_ms(10.0) \
            == 640.0

    def test_plain_arithmetic(self):
        assert _spans([0] * 6 + [1], 2) == [(14, 14)]


class TestClip:
    """Margin-expanded spans are clipped into [1, total_feature_frames]."""

    def test_lower(self):
        assert _spans([0, 1, 0, 0], 4, onset=3) == [(1, 8)]

    def test_upper(self):
        assert _spans([0, 0, 1], 4, offset=5, total=14) == [(12, 14)]

    def test_identity(self):
        assert _spans([0, 0, 0, 1, 0, 0, 0, 0], 2, onset=1, offset=2) == [(6, 12)]

    @given(st.lists(st.integers(0, 2), max_size=60), st.sampled_from([1, 2, 4]),
           st.integers(0, 6), st.integers(0, 6), st.data())
    def test_idempotent_and_in_range(self, labels, r, onset, offset, data):
        total = r * len(labels) + data.draw(st.integers(0, r - 1))
        cfg, segs = _segments(labels, r, onset, offset, total)
        assert all(1 <= s.t_start <= s.t_end <= total for s in segs)
        # clipping the clipped segments again changes nothing
        events = [SegmentEvent(kind=EventKind.CLOSE, emitted_at_step=s.k_last_nonblank,
                               index=s.index, t_start=s.t_start, segment=s)
                  for s in segs]
        assert segments_from_events(events, cfg, total) == segs


class TestPosteriorStream:
    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            PosteriorStream(frames=np.array([[0.5, 0.5], [1.0]], dtype=object))

    def test_probability_rows_must_sum_to_one(self):
        frames = np.array([[0.5, 0.5], [0.9, 0.3]], dtype=np.float32)
        with pytest.raises(ValueError, match="row 2"):
            PosteriorStream(frames=frames)

    def test_sum_tolerance_is_loose_enough(self):
        frames = np.array([[0.50004, 0.5]], dtype=np.float32)
        PosteriorStream(frames=frames)  # within 1e-4

    def test_probabilities_must_be_in_unit_interval(self):
        with pytest.raises(ValueError):
            PosteriorStream(frames=np.array([[1.2, -0.2]], dtype=np.float32))

    def test_presoftmax_skips_probability_checks(self):
        stream = PosteriorStream(frames=np.array([[5.0, -3.0]], dtype=np.float32),
                                 presoftmax=True)
        assert stream.num_labels == 2

    def test_subsample_factor_must_be_positive(self):
        with pytest.raises(InvalidConfig):
            PosteriorStream(frames=np.array([[1.0, 0.0]], dtype=np.float32),
                            subsample_factor=0)

    def test_blank_must_be_in_alphabet(self):
        with pytest.raises(InvalidConfig):
            PosteriorStream(frames=np.array([[1.0, 0.0]], dtype=np.float32), blank_id=2)

    def test_derived_sizes(self):
        stream = PosteriorStream(frames=np.zeros((5, 3), dtype=np.float32),
                                 subsample_factor=4, presoftmax=True)
        assert stream.num_steps == 5
        assert stream.num_labels == 3
        assert stream.total_feature_frames == 20
        assert stream.duration_sec == pytest.approx(0.2)


class TestLabelStream:
    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            LabelStream([0, -1], blank_id=0)

    def test_num_steps(self):
        assert LabelStream([0, 1, 2], blank_id=0).num_steps == 3


class TestSegmenterConfig:
    def test_defaults_are_the_tuned_values(self):
        cfg = SegmenterConfig()
        assert (cfg.v_threshold, cfg.onset_margin, cfg.offset_margin) == (16, 2, 3)
        assert cfg.min_len_ratio == 0.1

    @pytest.mark.parametrize("kwargs", [
        {"v_threshold": 0},
        {"onset_margin": -1},
        {"offset_margin": -1},
        {"subsample_factor": 0},
        {"blank_id": -1},
        {"min_len_ratio": 1.0},
        {"min_len_ratio": -0.1},
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            SegmenterConfig(**kwargs)

    def test_blank_threshold_duration(self):
        cfg = SegmenterConfig(v_threshold=16, subsample_factor=4)
        assert cfg.blank_threshold_ms(10.0) == 640.0


class TestSegment:
    def test_second_fields_follow_frame_indices(self):
        seg = Segment(index=1, k_first_nonblank=3, k_last_nonblank=6,
                      t_start=4, t_end=16, frame_shift_ms=10.0)
        assert seg.start_sec == pytest.approx(0.04)
        assert seg.end_sec == pytest.approx(0.16)
        assert seg.num_feature_frames == 13

    @pytest.mark.parametrize("kwargs", [
        {"k_first_nonblank": 0, "k_last_nonblank": 1, "t_start": 1, "t_end": 2},
        {"k_first_nonblank": 5, "k_last_nonblank": 4, "t_start": 1, "t_end": 2},
        {"k_first_nonblank": 1, "k_last_nonblank": 1, "t_start": 0, "t_end": 2},
        {"k_first_nonblank": 1, "k_last_nonblank": 1, "t_start": 3, "t_end": 2},
    ])
    def test_bad_spans_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Segment(index=1, **kwargs)


class TestSegmentEvent:
    def test_open_carries_no_segment(self):
        seg = Segment(index=1, k_first_nonblank=1, k_last_nonblank=1, t_start=1, t_end=2)
        with pytest.raises(ValueError):
            SegmentEvent(kind=EventKind.OPEN, emitted_at_step=1, index=1,
                         t_start=1, segment=seg)

    def test_close_requires_segment(self):
        for kind in (EventKind.CLOSE, EventKind.FLUSH):
            with pytest.raises(ValueError, match="must carry a segment"):
                SegmentEvent(kind=kind, emitted_at_step=5, index=1, t_start=1)


class TestReferenceAnnotation:
    def test_regions_must_be_sorted_and_disjoint(self):
        with pytest.raises(ValueError):
            ReferenceAnnotation(speech_regions=((1.0, 2.0), (1.5, 3.0)),
                                total_duration_sec=5.0)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            ReferenceAnnotation(speech_regions=((1.0, 1.0),), total_duration_sec=5.0)

    def test_region_past_end_rejected(self):
        with pytest.raises(ValueError):
            ReferenceAnnotation(speech_regions=((1.0, 6.0),), total_duration_sec=5.0)

    @pytest.mark.parametrize("regions, named", [
        (((float("nan"), 1.0),), "(nan, 1.0)"),
        (((0.5, float("nan")), (0.7, 0.9)), "(0.5, nan)"),
    ])
    def test_nan_bound_rejected(self, regions, named):
        with pytest.raises(ValueError, match=re.escape(f"non-empty: {named}")):
            ReferenceAnnotation(speech_regions=regions, total_duration_sec=2.0)

    def test_frame_spans(self):
        ref = ReferenceAnnotation(speech_regions=((1.0, 2.0),), total_duration_sec=3.0)
        assert ref.region_frame_spans(10.0, 300) == [(101, 200)]

    def test_frame_spans_clip_to_stream(self):
        ref = ReferenceAnnotation(speech_regions=((0.0, 3.0),), total_duration_sec=3.0)
        assert ref.region_frame_spans(10.0, 280) == [(1, 280)]


def test_steps_in_refuses_rows_that_exceed_physical_memory(monkeypatch):
    # 1,000 pages of 4 KiB: 1,000 steps of 1,024 float32 scores fill it exactly
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}.get)
    assert steps_in(10.0, 10.0, 1, 1024) == 1000
    with pytest.raises(InvalidConfig, match="physical memory"):
        steps_in(10.0, 10.0, 1, 1025)
    monkeypatch.delattr(os, "sysconf")  # not POSIX: only the 2**32-step rule is left
    assert steps_in(10.0, 10.0, 1, 2**40) == 1000
    with pytest.raises(InvalidConfig, match="2\\*\\*32"):
        steps_in(2**32 * 0.01, 10.0, 1, 1)
