import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcseg import (EventKind, InvalidConfig, InvalidState, LabelStream, OnlineSegmenter,
                    SegmenterConfig, encoded_length, energy_vad, filter_short_segments,
                    min_length_filter, segment_offline, segment_posteriors,
                    segments_from_events)

from conftest import FIG1_LABELS, FIG1_NUM_LABELS, stream_from_labels
from oracle import ctc_collapse, oracle_anchor_spans, oracle_segments, random_stream_case

FIG1_CFG = SegmenterConfig(v_threshold=4, onset_margin=1, offset_margin=2,
                           subsample_factor=2, blank_id=0, min_len_ratio=0.0)


def run_online(labels, cfg, total_feature_frames, frame_shift_ms=10.0):
    seg = OnlineSegmenter(cfg, frame_shift_ms=frame_shift_ms)
    events = []
    for lab in labels:
        events += seg.step(lab)
    events += seg.finish(total_feature_frames)
    return events


class TestSegmentOffline:
    def test_worked_stream(self):
        segs = segment_offline(LabelStream(FIG1_LABELS, blank_id=0), FIG1_CFG, 28)
        assert [(s.t_start, s.t_end) for s in segs] == [(4, 16), (22, 28)]
        assert [(s.k_first_nonblank, s.k_last_nonblank) for s in segs] == [(3, 6), (12, 13)]
        assert [s.index for s in segs] == [1, 2]

    def test_all_blank_yields_nothing(self):
        labels = LabelStream([0] * 12, blank_id=0)
        assert segment_offline(labels, FIG1_CFG, 24) == []

    def test_no_blanks_single_run(self):
        cfg = SegmenterConfig(v_threshold=5, onset_margin=0, offset_margin=0,
                              subsample_factor=1, blank_id=0)
        segs = segment_offline(LabelStream([1] * 10, blank_id=0), cfg, 10)
        assert [(s.t_start, s.t_end) for s in segs] == [(1, 10)]

    def test_empty_labels(self):
        assert segment_offline(LabelStream([], blank_id=0), FIG1_CFG, 0) == []

    def test_blank_mismatch_rejected(self):
        with pytest.raises(InvalidConfig):
            segment_offline(LabelStream([1, 0], blank_id=1), FIG1_CFG, 4)

    def test_total_frames_extent_checked(self):
        labels = LabelStream([1, 0], blank_id=0)
        with pytest.raises(ValueError):
            segment_offline(labels, FIG1_CFG, 3)  # shorter than 2 steps * r=2
        with pytest.raises(ValueError):
            segment_offline(labels, FIG1_CFG, 6)  # ragged tail >= r

    def test_ragged_tail_clips_into_the_tail(self):
        cfg = SegmenterConfig(v_threshold=4, onset_margin=0, offset_margin=3,
                              subsample_factor=2, blank_id=0)
        segs = segment_offline(LabelStream([0, 1, 1], blank_id=0), cfg, 7)
        assert [(s.t_start, s.t_end) for s in segs] == [(4, 7)]

    def test_overlapping_margins_merge(self):
        cfg = SegmenterConfig(v_threshold=2, onset_margin=0, offset_margin=3,
                              subsample_factor=1, blank_id=0)
        labels = [1, 0, 0, 1, 0, 0, 0, 0]
        merged = segment_offline(LabelStream(labels, blank_id=0), cfg, 8)
        assert [(s.t_start, s.t_end) for s in merged] == [(1, 7)]
        assert [(s.k_first_nonblank, s.k_last_nonblank) for s in merged] == [(1, 4)]
        # two raw anchor spans, whose expanded spans (r=1) share frame 4
        raw = oracle_anchor_spans(labels, 0, cfg.v_threshold)
        assert raw == [(1, 1), (4, 4)]
        assert [(ks - cfg.onset_margin, ke + cfg.offset_margin) for ks, ke in raw] == \
            [(1, 4), (4, 7)]

    def test_adjacent_spans_do_not_merge(self):
        # expanded spans touch end-to-start with no shared frame: stay separate
        cfg = SegmenterConfig(v_threshold=2, onset_margin=1, offset_margin=1,
                              subsample_factor=1, blank_id=0)
        labels = LabelStream([1, 0, 0, 1], blank_id=0)
        segs = segment_offline(labels, cfg, 4)
        assert [(s.t_start, s.t_end) for s in segs] == [(1, 2), (3, 4)]


class TestMinLengthFilter:
    def test_keep_above_ratio(self):
        assert min_length_filter(3, 10, 0.1) is True

    def test_reject_below_ratio(self):
        assert min_length_filter(1, 20, 0.1) is False

    def test_boundary_ratio_rejects(self):
        assert min_length_filter(2, 20, 0.1) is False

    def test_encoded_len_must_be_positive(self):
        with pytest.raises(ValueError):
            min_length_filter(1, 0, 0.1)

    def test_filter_short_segments_reindexes(self):
        labels = LabelStream(FIG1_LABELS, blank_id=0)
        segs = segment_offline(labels, FIG1_CFG, 28)
        # transcript lengths 2 and 1 over encoded lengths 7 and 4
        cfg = dataclasses.replace(FIG1_CFG, min_len_ratio=0.26)
        kept = filter_short_segments(segs, cfg)
        assert [(s.index, s.t_start, s.t_end) for s in kept] == [(1, 4, 16)]

    def test_an_energy_segment_is_rejected_at_ratio_zero(self):
        samples = np.zeros(48_000)
        samples[16_000:32_000] = 0.5  # a 1 s burst in 3 s at 16 kHz
        segs = energy_vad(samples, 16_000, 10.0, threshold=0.001)
        assert [s.transcript_len for s in segs] == [0]
        cfg = SegmenterConfig(subsample_factor=1, min_len_ratio=0.0)
        assert filter_short_segments(segs, cfg) == []

    def test_encoded_length_is_ceil_of_span(self):
        segs = segment_offline(LabelStream(FIG1_LABELS, blank_id=0), FIG1_CFG, 28)
        assert encoded_length(segs[0], 2) == 7   # 13 frames at r=2
        assert encoded_length(segs[1], 2) == 4   # 7 frames at r=2


class TestOnlineSegmenter:
    def test_worked_stream_trace(self):
        events = run_online(FIG1_LABELS, FIG1_CFG, 28)
        kinds = [(e.kind, e.emitted_at_step) for e in events]
        assert kinds == [(EventKind.OPEN, 3), (EventKind.CLOSE, 10),
                         (EventKind.OPEN, 12), (EventKind.FLUSH, 14)]
        assert events[0].t_start == 4
        assert (events[1].segment.t_start, events[1].segment.t_end) == (4, 16)
        assert events[1].segment.transcript_len == 2  # collapse([A,A,_,B]) = [A,B]
        assert events[2].t_start == 22
        assert (events[3].segment.t_start, events[3].segment.t_end) == (22, 28)
        assert events[3].segment.transcript_len == 1  # collapse([C,C]) = [C]

    def test_only_blanks_no_events(self):
        assert run_online([0] * 20, FIG1_CFG, 40) == []

    def test_open_clips_to_stream_start(self):
        cfg = SegmenterConfig(v_threshold=4, onset_margin=5, offset_margin=0,
                              subsample_factor=4, blank_id=0)
        seg = OnlineSegmenter(cfg)
        events = seg.step(1)
        assert events[0].kind is EventKind.OPEN
        assert events[0].t_start == 1  # clipped up from 4 - 20

    def test_flush_when_still_in_speech(self):
        events = run_online([0, 1, 1], FIG1_CFG, 6)
        assert [e.kind for e in events] == [EventKind.OPEN, EventKind.FLUSH]

    def test_flush_when_run_never_reached_threshold(self):
        labels = [1] + [0] * (FIG1_CFG.v_threshold - 1)
        events = run_online(labels, FIG1_CFG, 8)
        assert [e.kind for e in events] == [EventKind.OPEN, EventKind.FLUSH]

    def test_idle_finish_is_empty(self):
        seg = OnlineSegmenter(FIG1_CFG)
        seg.step(0)
        assert seg.finish(2) == []

    def test_step_after_finish_raises(self):
        seg = OnlineSegmenter(FIG1_CFG)
        seg.finish(0)
        with pytest.raises(InvalidState):
            seg.step(0)
        with pytest.raises(InvalidState):
            seg.push([])

    def test_finish_twice_raises(self):
        seg = OnlineSegmenter(FIG1_CFG)
        seg.finish(0)
        with pytest.raises(InvalidState):
            seg.finish(0)

    def test_reset_rearms(self):
        seg = OnlineSegmenter(FIG1_CFG)
        seg.step(1)
        seg.finish(2)
        seg.reset()
        events = seg.step(1)
        assert events[0].kind is EventKind.OPEN
        assert events[0].index == 1

    def test_close_latency_equals_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            labels, v, m_s, m_e, r, total = random_stream_case(rng, max_steps=120)
            cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                                  subsample_factor=r, blank_id=0)
            for ev in run_online(labels, cfg, total):
                if ev.kind is EventKind.CLOSE:
                    assert ev.emitted_at_step - ev.segment.k_last_nonblank == v


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(1, 8), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([1, 2, 4]), st.data())
    def test_online_equals_offline(self, labels, v, m_s, m_e, r, data):
        total = r * len(labels) + data.draw(st.integers(0, r - 1))
        cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                              subsample_factor=r, blank_id=0)
        offline = segment_offline(LabelStream(labels, blank_id=0), cfg, total)
        events = run_online(labels, cfg, total)
        assert segments_from_events(events, cfg, total) == offline

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(1, 8), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([1, 2, 4]))
    def test_offline_matches_oracle(self, labels, v, m_s, m_e, r):
        total = r * len(labels)
        cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                              subsample_factor=r, blank_id=0)
        got = [(s.k_first_nonblank, s.k_last_nonblank, s.t_start, s.t_end)
               for s in segment_offline(LabelStream(labels, blank_id=0), cfg, total)]
        assert got == oracle_segments(labels, 0, v, m_s, m_e, r, total)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(1, 8), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([1, 2, 4]))
    def test_events_alternate_and_flush_is_last(self, labels, v, m_s, m_e, r):
        cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                              subsample_factor=r, blank_id=0)
        events = run_online(labels, cfg, r * len(labels))
        expect_open = True
        for ev in events:
            assert (ev.kind is EventKind.OPEN) == expect_open
            expect_open = not expect_open
        assert [e.kind for e in events].count(EventKind.FLUSH) <= 1
        if events and events[-1].kind is EventKind.FLUSH:
            assert events[-1].emitted_at_step == len(labels)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(1, 8), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([1, 2, 4]))
    def test_every_nonblank_anchor_is_covered(self, labels, v, m_s, m_e, r):
        cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                              subsample_factor=r, blank_id=0)
        segs = segment_offline(LabelStream(labels, blank_id=0), cfg, r * len(labels))
        for k, lab in enumerate(labels, start=1):
            if lab != 0:
                assert any(s.t_start <= k * r <= s.t_end for s in segs)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(0, 4), st.integers(0, 4), st.sampled_from([1, 2, 4]))
    def test_segment_count_non_increasing_in_threshold(self, labels, m_s, m_e, r):
        stream = LabelStream(labels, blank_id=0)
        counts = []
        for v in range(1, 10):
            cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                                  subsample_factor=r, blank_id=0)
            counts.append(len(segment_offline(stream, cfg, r * len(labels))))
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(0, 4), st.integers(0, 4), st.sampled_from([1, 2, 4]),
           st.data())
    def test_no_merging_when_threshold_covers_margins(self, labels, m_s, m_e, r, data):
        v = data.draw(st.integers(max(m_s + m_e, 1), 9))
        cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                              subsample_factor=r, blank_id=0)
        merged = segment_offline(LabelStream(labels, blank_id=0), cfg, r * len(labels))
        assert [(s.k_first_nonblank, s.k_last_nonblank) for s in merged] == \
            oracle_anchor_spans(labels, 0, v)
        for a, b in zip(merged, merged[1:]):
            assert a.t_end < b.t_start

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=120),
           st.integers(1, 8), st.integers(0, 4), st.integers(0, 4),
           st.sampled_from([1, 2, 4]), st.data())
    def test_block_split_does_not_change_events(self, labels, v, m_s, m_e, r, data):
        # Cuts may repeat (empty blocks) or sit next to each other (single labels).
        cuts = sorted(data.draw(st.lists(st.integers(0, len(labels)), max_size=16)))
        blocks = [labels[a:b] for a, b in zip([0, *cuts], [*cuts, len(labels)])]
        total = r * len(labels)
        cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                              subsample_factor=r, blank_id=0)
        whole = OnlineSegmenter(cfg)
        expected = whole.push(labels) + whole.finish(total)
        split = OnlineSegmenter(cfg)
        got = [ev for block in blocks for ev in split.push(block)] + split.finish(total)
        assert got == expected
        assert run_online(labels, cfg, total) == expected


class TestPipeline:
    def test_pipeline_on_posterior_stream(self, fig1_stream):
        cfg = dataclasses.replace(FIG1_CFG, min_len_ratio=0.1)
        segs = segment_posteriors(fig1_stream, cfg)
        assert [(s.t_start, s.t_end) for s in segs] == [(4, 16), (22, 28)]

    def test_pipeline_empty_stream(self):
        stream = stream_from_labels([], FIG1_NUM_LABELS, subsample_factor=2)
        assert segment_posteriors(stream, FIG1_CFG) == []

    def test_pipeline_rejects_subsample_mismatch(self, fig1_stream):
        cfg = dataclasses.replace(FIG1_CFG, subsample_factor=4)
        with pytest.raises(InvalidConfig):
            segment_posteriors(fig1_stream, cfg)

    def test_count_and_filter_match_brute_force_on_10k_streams(self):
        # The reference count is the oracle's collapse of each anchor span, and the
        # reference filter is written out here; alpha varies per stream, and half
        # the streams sit alpha on one segment's own ratio, which must reject.
        rng = np.random.default_rng(20261019)
        segments = merged = rejected = 0
        for _ in range(10_000):
            labels, v, m_s, m_e, r, total = random_stream_case(rng)
            cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                                  subsample_factor=r, blank_id=0)
            events = run_online(labels, cfg, total)
            segs = segments_from_events(events, cfg, total)
            parts = [ev.segment for ev in events if ev.segment is not None]
            ratios = []
            for seg in segs:
                span = labels[seg.k_first_nonblank - 1:seg.k_last_nonblank]
                assert seg.transcript_len == len(ctc_collapse(span, 0))
                inside = [p.transcript_len for p in parts
                          if seg.k_first_nonblank <= p.k_first_nonblank <= seg.k_last_nonblank]
                assert seg.transcript_len == sum(inside)
                merged += len(inside) > 1
                ratios.append(seg.transcript_len / -(-(seg.t_end - seg.t_start + 1) // r))
            alpha = float(rng.uniform(0.0, 0.6))
            if ratios and rng.random() < 0.5 and max(ratios) < 1.0:
                alpha = max(ratios)
            cfg = dataclasses.replace(cfg, min_len_ratio=alpha)
            expected = [(i, s.t_start, s.t_end, s.transcript_len) for i, s in enumerate(
                [s for s, ratio in zip(segs, ratios) if ratio > alpha], start=1)]
            got = filter_short_segments(segs, cfg)
            assert [(s.index, s.t_start, s.t_end, s.transcript_len) for s in got] == expected
            segments += len(segs)
            rejected += len(segs) - len(got)
        assert merged > 1000 and 0.2 * segments < rejected < 0.8 * segments

    def test_reconstruction_with_filter_matches_pipeline(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            labels, v, m_s, m_e, r, total = random_stream_case(rng, max_steps=80)
            if not labels:
                continue
            cfg = SegmenterConfig(v_threshold=v, onset_margin=m_s, offset_margin=m_e,
                                  subsample_factor=r, blank_id=0, min_len_ratio=0.1)
            stream = stream_from_labels(labels, 6, subsample_factor=r)
            events = run_online(labels, cfg, stream.total_feature_frames)
            rebuilt = filter_short_segments(
                segments_from_events(events, cfg, stream.total_feature_frames), cfg)
            assert rebuilt == segment_posteriors(stream, cfg)
