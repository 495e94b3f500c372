import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcseg import EvalReport, ReferenceAnnotation, Segment, evaluate
from ctcseg.scoring import _boundary_mae


def _seg(index, t_start, t_end):
    return Segment(index=index, k_first_nonblank=t_start, k_last_nonblank=t_end,
                   t_start=t_start, t_end=t_end, frame_shift_ms=10.0)


def _ref(regions, duration):
    return ReferenceAnnotation(tuple(regions), duration)


class TestEvaluate:
    def test_identity_scores_perfectly(self):
        # regions (0, 1.0) and (2.0, 3.0) are frames 1..100 and 201..300
        ref = _ref([(0.0, 1.0), (2.0, 3.0)], 4.0)
        hyp = [_seg(1, 1, 100), _seg(2, 201, 300)]
        rep = evaluate(hyp, ref, 10.0, 400)
        assert rep.frame_precision == 1.0
        assert rep.frame_recall == 1.0
        assert rep.frame_f1 == 1.0
        assert rep.boundary_mae_frames == 0.0
        assert (rep.n_hyp_segments, rep.n_ref_segments) == (2, 2)

    def test_empty_hypothesis_against_speech(self):
        rep = evaluate([], _ref([(0.0, 1.0)], 2.0), 10.0, 200)
        assert rep.frame_recall == 0.0
        assert rep.frame_precision == 0.0
        assert rep.frame_f1 == 0.0

    def test_both_empty_score_one(self):
        rep = evaluate([], _ref([], 2.0), 10.0, 200)
        assert (rep.frame_precision, rep.frame_recall, rep.frame_f1) == (1.0, 1.0, 1.0)

    def test_hypothesis_against_silence(self):
        rep = evaluate([_seg(1, 10, 20)], _ref([], 2.0), 10.0, 200)
        assert rep.frame_precision == 0.0
        assert rep.frame_recall == 0.0

    def test_half_coverage(self):
        # hyp covers exactly the first half of each region: frame counts by hand
        ref = _ref([(0.0, 1.0), (2.0, 3.0)], 4.0)
        hyp = [_seg(1, 1, 50), _seg(2, 201, 250)]
        rep = evaluate(hyp, ref, 10.0, 400)
        assert rep.frame_precision == 1.0
        assert rep.frame_recall == 0.5

    def test_boundary_mae_of_shifted_segments(self):
        ref = _ref([(0.0, 1.0), (2.0, 3.0)], 4.0)
        hyp = [_seg(1, 3, 102), _seg(2, 203, 302)]
        rep = evaluate(hyp, ref, 10.0, 400)
        assert rep.boundary_mae_frames == 2.0

    def test_a_segment_that_starts_past_the_stream_is_not_scored(self):
        ref = _ref([(0.0, 1.0)], 2.0)
        hyp = [_seg(1, 1, 100)]
        assert (evaluate(hyp + [_seg(2, 201, 205)], ref, 10.0, 200)
                == evaluate(hyp, ref, 10.0, 200))

    def test_unsorted_hypothesis_rejected(self):
        ref = _ref([(0.0, 1.0)], 2.0)
        with pytest.raises(ValueError):
            evaluate([_seg(1, 50, 80), _seg(2, 60, 90)], ref, 10.0, 200)

    def test_any_hypothesis_scores_one_against_itself(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spans = []
            t = 1
            for _ in range(int(rng.integers(0, 5))):
                start = t + int(rng.integers(0, 30))
                end = start + int(rng.integers(0, 40))
                spans.append((start, end))
                t = end + 2
            total = (spans[-1][1] if spans else 10) + 10
            hyp = [_seg(i, a, b) for i, (a, b) in enumerate(spans, start=1)]
            # regions whose frame spans are exactly the hypothesis spans
            regions = [((a - 1) / 100.0, b / 100.0) for a, b in spans]
            rep = evaluate(hyp, _ref(regions, total / 100.0), 10.0, total)
            assert rep.frame_f1 == 1.0
            assert rep.boundary_mae_frames == 0.0

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = int(rng.integers(1, 150))
            b = int(rng.integers(a, a + 100))
            ref = _ref([(0.2, 1.4)], 3.0)
            rep = evaluate([_seg(1, a, b)], ref, 10.0, 300)
            p, r = rep.frame_precision, rep.frame_recall
            expected = 0.0 if p + r == 0 else 2 * p * r / (p + r)
            assert rep.frame_f1 == pytest.approx(expected)

    def test_report_dict_round_trip(self):
        rep = EvalReport(1.0, 0.5, 2 / 3, 0.0, 1, 2)
        d = dataclasses.asdict(rep)
        assert d["frame_recall"] == 0.5
        assert "rtf" not in d


def boundary_mae_all_pairs(hyp_spans, ref_spans):
    """Reference for _boundary_mae: score every hyp x ref pair, then match greedily."""
    candidates = []
    for i, (ha, hb) in enumerate(hyp_spans):
        for j, (ra, rb) in enumerate(ref_spans):
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


_gaps_and_lengths = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 60)), max_size=25)


class TestBoundaryMatching:
    @given(_gaps_and_lengths, _gaps_and_lengths, st.integers(1, 400))
    def test_sweep_matches_all_pairs(self, hyp_shape, ref_shape, total):
        # Hyp spans as evaluate() builds them: sorted, disjoint, ends clipped
        # to the stream (which can leave a span empty past its end).
        hyp_spans, t = [], 0
        for gap, length in hyp_shape:
            a = t + gap + 1
            hyp_spans.append((a, min(a + length, total)))
            t = a + length
        # Ref spans from touching, sub-frame regions, so neighbours can share a frame.
        regions, t = [], 0.0
        for gap, length in ref_shape:
            start = t + gap * 0.0075
            t = start + length * 0.0075 + 0.001
            regions.append((start, t))
        ref = ReferenceAnnotation(tuple(regions), max(t, 0.01))
        ref_spans = ref.region_frame_spans(10.0, total)
        assert _boundary_mae(hyp_spans, ref_spans) == \
            boundary_mae_all_pairs(hyp_spans, ref_spans)

    def test_one_span_overlapping_many(self):
        hyp = [(1, 100), (150, 151)]
        ref = [(5, 10), (10, 20), (30, 149), (150, 300)]
        assert _boundary_mae(hyp, ref) == boundary_mae_all_pairs(hyp, ref)
