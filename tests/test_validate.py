"""validate_rows accepts and refuses exactly what its row-by-row check does.

The reference below is the row check as it stood before validate_rows took
its fast path on a block's extremes. Blocks are drawn around the edges of
that fast path: row sums within a few float32 ulps of 1 +- 1e-4, and 0,
-0.0, 1, the next float32 above 1, NaN and +-inf in any cell. Blocks of up
to 64 rows with a bad row at every index check the halving that names a
failing block's first bad row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcseg.core import PROB_SUM_TOLERANCE, PosteriorStream, validate_rows
from ctcseg.errors import FormatError, NonFiniteScore, ProbabilityOutOfRange, RowSumViolation


def reference_validate_rows(rows: np.ndarray, probabilities: bool, first_row: int = 1) -> None:
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


def _ulps_around(x: float, k: int = 3) -> list[float]:
    """The float32 nearest x and the k float32s on either side of it."""
    up, down = np.float32(np.inf), np.float32(-np.inf)
    out = [np.float32(x)]
    for _ in range(k):
        out = [np.nextafter(out[0], down), *out, np.nextafter(out[-1], up)]
    return [float(v) for v in out]


TOL = float(np.float32(PROB_SUM_TOLERANCE))
# Row sums to aim at: every float32 near the tolerance edges and near 1.
TARGET_SUMS = sorted({*_ulps_around(1 - 1e-4), *_ulps_around(1 + 1e-4),
                      *_ulps_around(1 - TOL), *_ulps_around(1 + TOL), *_ulps_around(1.0)})
INSIDE = [x for x in TARGET_SUMS if abs(x - 1) <= TOL]
OUTSIDE = [x for x in TARGET_SUMS if abs(x - 1) > TOL]
SPECIALS = [0.0, -0.0, 1.0, float(np.nextafter(np.float32(1), np.float32(2))),
            float("nan"), float("inf"), float("-inf"), 3e38, -3e38]
PARTS = [0.0, -0.0, 0.125, 0.25, 0.5, 0.1, 0.3]


@st.composite
def rows_summing_to(draw, num_labels, sums):
    """A row aimed at one of sums: spread over its labels, or a spike (one cell, zeros
    elsewhere), so a lone score just above 1 is common."""
    target = draw(st.sampled_from(sums))
    if draw(st.booleans()):
        head = draw(st.lists(st.sampled_from(PARTS), min_size=num_labels - 1,
                             max_size=num_labels - 1))
        return [*head, target - sum(head)]
    row = [draw(st.sampled_from([0.0, -0.0]))] * num_labels
    row[draw(st.integers(0, num_labels - 1))] = target
    return row


@st.composite
def blocks(draw):
    """1-6 rows of 1-8 labels aimed inside the tolerance, then up to two flaws: a row
    aimed just outside it, or a special value in one cell."""
    num_rows, num_labels = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    block = np.array([draw(rows_summing_to(num_labels, INSIDE)) for _ in range(num_rows)],
                     dtype=np.float32)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, num_rows - 1))
        if draw(st.booleans()):
            block[i] = draw(rows_summing_to(num_labels, OUTSIDE))
        else:
            block[i, draw(st.integers(0, num_labels - 1))] = draw(st.sampled_from(SPECIALS))
    return block


def _outcome(check, rows, probabilities, first_row):
    try:
        check(rows, probabilities, first_row)
    except FormatError as exc:
        return type(exc), exc.row, str(exc)
    return None


@settings(max_examples=600, deadline=None)
@given(blocks(), st.booleans(), st.integers(1, 10**6))
def test_fast_path_gives_the_reference_outcome(rows, probabilities, first_row):
    expected = _outcome(reference_validate_rows, rows.copy(), probabilities, first_row)
    assert _outcome(validate_rows, rows, probabilities, first_row) == expected


def _float32s_across(bound: float, outward: float):
    """The last float32 between 1 and bound, and the first one beyond bound."""
    inside = np.float32(bound)
    if abs(float(inside) - 1) > abs(bound - 1):
        inside = np.nextafter(inside, np.float32(1))
    return inside, np.nextafter(inside, np.float32(outward))


@pytest.mark.parametrize("bound, outward, head", [(1 + TOL, 2.0, 0.5), (1 - TOL, 0.0, 0.25)])
def test_the_last_sum_inside_the_tolerance_passes_and_the_next_fails(bound, outward, head):
    inside, outside = _float32s_across(bound, outward)
    assert abs(float(outside) - 1) > TOL >= abs(float(inside) - 1)
    assert {float(inside), float(outside)} <= set(TARGET_SUMS)
    for check in (validate_rows, reference_validate_rows):
        # [head, s - head] sums to s exactly in float32 for these s.
        good = np.array([[head, inside - head]], dtype=np.float32)
        bad = np.array([[head, outside - head]], dtype=np.float32)
        assert _outcome(check, good, True, 1) is None
        assert _outcome(check, bad, True, 1)[0] is RowSumViolation


def _good_rows(rng, height, num_labels):
    rows = rng.random((height, num_labels)) + 0.01
    return (rows / rows.sum(axis=1, keepdims=True)).astype(np.float32)


def _spoil(row, fault):
    """Give one probability row one fault; "both" breaks its sum and its range at once."""
    if fault in ("nan", "inf", "-inf"):
        row[-1] = float(fault)
    elif fault == "sum-off":
        row[0] += np.float32(2e-4)
    else:
        row[:] = 0.0
        row[:2] = [1.25, -0.25 + (2e-4 if fault == "both" else 0.0)]


FAULTS = ["nan", "inf", "-inf", "sum-off", "out-of-range", "both"]


@pytest.mark.parametrize("probabilities", [True, False])
def test_halving_names_the_reference_row_at_every_depth(probabilities):
    rng = np.random.default_rng(13)
    for height in range(1, 65):  # odd sizes, and powers of two up to 64
        num_labels = int(rng.integers(2, 9))
        for index in range(height):
            for fault in FAULTS:
                rows = _good_rows(rng, height, num_labels)
                _spoil(rows[index], fault)
                if index + 1 < height and rng.random() < 0.5:  # a second bad row after it
                    _spoil(rows[rng.integers(index + 1, height)], rng.choice(FAULTS))
                first_row = int(rng.integers(1, 10**6))
                expected = _outcome(reference_validate_rows, rows.copy(), probabilities,
                                    first_row)
                assert _outcome(validate_rows, rows, probabilities, first_row) == expected
                if probabilities or fault in ("nan", "inf", "-inf"):
                    assert expected is not None and expected[1] == first_row + index


def test_a_nan_in_the_last_row_of_a_long_stream_is_named():
    frames = np.full((90_000, 32), 1 / 32, dtype=np.float32)
    frames[-1, 7] = np.nan
    with pytest.raises(NonFiniteScore, match="^row 90000 holds a non-finite score$") as info:
        PosteriorStream(frames=frames)
    assert info.value.row == 90_000


@pytest.mark.parametrize("probabilities", [True, False])
def test_column_major_frames_are_checked_in_row_order(probabilities):
    # Column-major rows sum in another order than row-major ones, so a sum near the
    # tolerance could pass in one layout and fail in the other.
    rng = np.random.default_rng(29)
    for _ in range(200):
        rows = _good_rows(rng, 3, int(rng.integers(9, 40)))
        rows[1] *= np.float32(rng.choice([1 - TOL, 1 + TOL]))
        stream_outcome = _outcome(
            lambda r, p, f: PosteriorStream(frames=np.asfortranarray(r), presoftmax=not p),
            rows, probabilities, 1)
        assert stream_outcome == _outcome(reference_validate_rows, rows, probabilities, 1)
    good = np.asfortranarray(_good_rows(rng, 3, 9))
    assert PosteriorStream(frames=good).frames.flags.c_contiguous


@pytest.mark.parametrize("height", [1, 2, 5])
def test_a_finite_row_with_a_nan_sum_gets_the_reference_outcome(height):
    # Pairwise float32 summation meets +inf and -inf partial sums here: the sum is NaN.
    rows = np.full((height, 16), 1 / 16, dtype=np.float32)
    rows[-1, [0, 1, 2, 3, 8, 9, 10, 11]] = 3e38
    rows[-1, [4, 5, 6, 7, 12, 13, 14, 15]] = -3e38
    for probabilities in (True, False):
        expected = _outcome(reference_validate_rows, rows.copy(), probabilities, 1)
        assert _outcome(validate_rows, rows, probabilities, 1) == expected
