import numpy as np
import pytest

from ctcseg import (InvalidConfig, ReferenceAnnotation, SegmenterConfig,
                    greedy_decode, segment_offline, synthesize_posteriors)


def _cfg(v=16, r=4, blank=0):
    return SegmenterConfig(v_threshold=v, onset_margin=0, offset_margin=0,
                           subsample_factor=r, blank_id=blank, min_len_ratio=0.0)


def _blank_runs(labels, blank):
    runs = []
    count = 0
    for lab in labels:
        if lab == blank:
            count += 1
        elif count:
            runs.append(count)
            count = 0
    if count:
        runs.append(count)
    return runs


class TestSynthesize:
    def test_deterministic_for_fixed_seed(self):
        ref = ReferenceAnnotation(((0.5, 2.0), (3.0, 4.5)), 6.0, label_alphabet_size=12)
        a = synthesize_posteriors(ref, _cfg(), jitter_steps=2, seed=99)
        b = synthesize_posteriors(ref, _cfg(), jitter_steps=2, seed=99)
        assert np.array_equal(a.frames, b.frames)

    def test_different_jitter_changes_the_stream(self):
        ref = ReferenceAnnotation(((0.5, 2.0),), 3.0, label_alphabet_size=12)
        frames = [synthesize_posteriors(ref, _cfg(), jitter_steps=j, seed=5).frames
                  for j in (0, 1, 2)]
        assert not np.array_equal(frames[0], frames[1])
        assert not np.array_equal(frames[1], frames[2])

    def test_no_regions_all_blank(self):
        ref = ReferenceAnnotation((), 2.0, label_alphabet_size=8)
        stream = synthesize_posteriors(ref, _cfg(), seed=1)
        labels = greedy_decode(stream)
        assert (labels.labels == 0).all()
        assert (stream.frames[:, 0] >= 0.9).all()

    def test_region_wholly_in_the_ragged_tail_writes_no_spike(self):
        # 2.01 s at r=4, 10 ms: 201 frames, 50 whole steps ending at 2.00 s
        ref = ReferenceAnnotation(((2.001, 2.01),), 2.01, label_alphabet_size=8)
        stream = synthesize_posteriors(ref, _cfg(), seed=1)
        assert stream.num_steps == 50
        bare = synthesize_posteriors(ReferenceAnnotation((), 2.01, label_alphabet_size=8),
                                     _cfg(), seed=1)
        assert np.array_equal(stream.frames, bare.frames)
        assert (greedy_decode(stream).labels == 0).all()

    def test_full_stream_region_keeps_gaps_below_threshold(self):
        ref = ReferenceAnnotation(((0.0, 4.0),), 4.0, label_alphabet_size=8)
        cfg = _cfg(v=16)
        stream = synthesize_posteriors(ref, cfg, spike_gap_max=5, seed=3)
        labels = greedy_decode(stream).labels.tolist()
        interior = _blank_runs(labels, 0)
        # leading/trailing runs can only come from grid rounding here
        assert max(interior, default=0) <= 5 < cfg.v_threshold

    def test_region_maps_onto_expected_steps(self):
        # (1.0 s, 2.0 s) at r=4, 10 ms shift covers subsampled steps 26..50
        ref = ReferenceAnnotation(((1.0, 2.0),), 3.0, label_alphabet_size=8)
        cfg = _cfg(v=8, r=4)
        stream = synthesize_posteriors(ref, cfg, spike_gap_max=4, jitter_steps=0, seed=7)
        segs = segment_offline(greedy_decode(stream), cfg, stream.total_feature_frames)
        assert len(segs) == 1
        assert (segs[0].k_first_nonblank, segs[0].k_last_nonblank) == (26, 50)
        assert 25 <= segs[0].k_first_nonblank <= segs[0].k_last_nonblank <= 50

    def test_nonspeech_rows_are_blank_dominated(self):
        ref = ReferenceAnnotation(((1.0, 2.0),), 3.0, label_alphabet_size=8)
        stream = synthesize_posteriors(ref, _cfg(), seed=0)
        labels = greedy_decode(stream).labels
        blank_rows = stream.frames[labels == 0]
        assert (blank_rows[:, 0] >= 0.9).all()

    def test_closed_loop_recovers_regions(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            r = int(rng.choice([1, 2, 4]))
            cfg = _cfg(v=16, r=r)
            shift = 10.0
            # regions separated by comfortably more than V*r frames
            gap_sec = (cfg.v_threshold + 4) * r * shift / 1000.0
            regions = []
            t = float(rng.uniform(0.1, 0.5))
            for _ in range(int(rng.integers(1, 4))):
                length = float(rng.uniform(0.3, 1.2))
                regions.append((round(t, 3), round(t + length, 3)))
                t += length + gap_sec + float(rng.uniform(0.05, 0.3))
            ref = ReferenceAnnotation(tuple(regions), t + 0.5, label_alphabet_size=10)
            stream = synthesize_posteriors(ref, cfg, jitter_steps=0, spike_gap_max=6,
                                           seed=trial)
            segs = segment_offline(greedy_decode(stream), cfg,
                                   stream.total_feature_frames)
            spans = ref.region_frame_spans(shift, stream.total_feature_frames)
            assert len(segs) == len(spans)
            for seg, (fs, fe) in zip(segs, spans):
                assert abs(seg.t_start - fs) <= r
                assert abs(seg.t_end - fe) <= r

    def test_gap_must_stay_below_threshold(self):
        ref = ReferenceAnnotation(((0.5, 1.0),), 2.0)
        with pytest.raises(InvalidConfig):
            synthesize_posteriors(ref, _cfg(v=4), spike_gap_max=4)

    def test_gap_must_be_positive(self):
        ref = ReferenceAnnotation(((0.5, 1.0),), 2.0)
        with pytest.raises(InvalidConfig):
            synthesize_posteriors(ref, _cfg(), spike_gap_max=0)

    def test_negative_jitter_rejected(self):
        ref = ReferenceAnnotation(((0.5, 1.0),), 2.0)
        with pytest.raises(InvalidConfig):
            synthesize_posteriors(ref, _cfg(), jitter_steps=-1)

    def test_blank_outside_alphabet_rejected(self):
        ref = ReferenceAnnotation(((0.5, 1.0),), 2.0, label_alphabet_size=4)
        with pytest.raises(InvalidConfig):
            synthesize_posteriors(ref, _cfg(blank=9))

    def test_stream_carries_the_requested_geometry(self):
        ref = ReferenceAnnotation(((0.5, 1.0),), 2.0, label_alphabet_size=16)
        stream = synthesize_posteriors(ref, _cfg(r=4), frame_shift_ms=10.0, seed=0)
        assert stream.num_labels == 16
        assert stream.subsample_factor == 4
        assert stream.num_steps == 50  # 200 feature frames / 4
