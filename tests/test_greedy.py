import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctcseg import LabelStream, PosteriorStream, greedy_decode, greedy_label

from conftest import stream_from_labels
from oracle import ctc_collapse


def _stream(rows, presoftmax=False):
    return PosteriorStream(frames=np.array(rows, dtype=np.float32), presoftmax=presoftmax)


class TestGreedyDecode:
    def test_argmax(self):
        out = greedy_decode(_stream([[0.7, 0.2, 0.1]]))
        assert out.labels.tolist() == [0]
        assert out.blank_id == 0

    def test_presoftmax_scores(self):
        out = greedy_decode(_stream([[1.0, 3.0, -1.0]], presoftmax=True))
        assert out.labels.tolist() == [1]

    def test_tie_breaks_to_lowest_id(self):
        out = greedy_decode(_stream([[0.5, 0.5, 0.0]]))
        assert out.labels.tolist() == [0]

    def test_empty_stream_gives_empty_labels(self):
        empty = PosteriorStream(frames=np.empty((0, 3), dtype=np.float32), blank_id=2)
        out = greedy_decode(empty)
        assert isinstance(out, LabelStream)
        assert (out.num_steps, out.labels.tolist(), out.blank_id) == (0, [], 2)

    def test_length_matches_input(self):
        stream = stream_from_labels([0, 1, 2, 1, 0], 3)
        assert greedy_decode(stream).num_steps == 5

    def test_greedy_label_matches_batch_decode(self):
        rng = np.random.default_rng(7)
        frames = rng.normal(size=(20, 6)).astype(np.float32)
        stream = PosteriorStream(frames=frames, presoftmax=True)
        batch = greedy_decode(stream).labels.tolist()
        assert [greedy_label(row) for row in frames] == batch


def _softmax(rows):
    z = np.exp(rows - rows.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


# Scores on a coarse grid: float32 rounding inside the transforms must not
# collapse distinct scores into ties (tanh saturates, softmax underflows).
frames_strategy = st.integers(1, 25).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-16, 16), min_size=4, max_size=4),
        min_size=n, max_size=n,
    )
)


class TestArgmaxInvariance:
    @given(frames_strategy)
    def test_strictly_monotone_transforms_do_not_change_labels(self, rows):
        scores = np.array(rows, dtype=np.float32) * 0.25
        base = greedy_decode(PosteriorStream(frames=scores, presoftmax=True))
        for transform in (_softmax, np.tanh, lambda x: 2.0 * x + 1.0):
            mapped = np.asarray(transform(scores), dtype=np.float32)
            out = greedy_decode(PosteriorStream(frames=mapped, presoftmax=True))
            assert out.labels.tolist() == base.labels.tolist()


A, B, C, BLANK = 1, 2, 3, 0


class TestCtcCollapse:
    def test_merge_then_drop(self):
        assert ctc_collapse([A, A, BLANK, A, B], blank_id=BLANK) == [A, A, B]

    def test_all_blank(self):
        assert ctc_collapse([BLANK, BLANK, BLANK], blank_id=BLANK) == []

    def test_blank_separated_repeats_survive(self):
        # merge-then-drop enumerated by hand: [_,C,C,_,_,C] -> [_,C,_,C] -> [C,C]
        assert ctc_collapse([BLANK, C, C, BLANK, BLANK, C], blank_id=BLANK) == [C, C]

    def test_empty(self):
        assert ctc_collapse([], blank_id=BLANK) == []

    def test_positional_blank_id(self):
        assert ctc_collapse([1, 1, 0, 2], 0) == [1, 2]

    def test_plain_sequence_needs_blank_id(self):
        with pytest.raises(TypeError):
            ctc_collapse([1, 2, 3])

    @given(st.lists(st.integers(0, 4), max_size=60))
    def test_output_shorter_and_blank_free(self, ids):
        out = ctc_collapse(ids, blank_id=0)
        assert len(out) <= len(ids)
        assert 0 not in out

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=40), st.data())
    def test_invariant_under_duplicating_one_frame(self, ids, data):
        pos = data.draw(st.integers(0, len(ids) - 1))
        doubled = ids[:pos + 1] + [ids[pos]] + ids[pos + 1:]
        assert ctc_collapse(doubled, blank_id=0) == ctc_collapse(ids, blank_id=0)

    @given(st.lists(st.integers(0, 4), max_size=60))
    def test_idempotent_when_output_has_no_adjacent_repeats(self, ids):
        # Re-collapsing only round-trips when the collapsed result has no
        # adjacent equal labels (otherwise they merge); a leading blank pad
        # never changes the result.
        out = ctc_collapse(ids, blank_id=0)
        if all(a != b for a, b in zip(out, out[1:])):
            assert ctc_collapse(out, blank_id=0) == out
            assert ctc_collapse([0] + out, blank_id=0) == out
