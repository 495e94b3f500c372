import numpy as np
import pytest

from ctcseg import EmptyAudio, energy_vad

SR = 16000
FRAME_MS = 10.0
FRAME_LEN = 160


def _signal(total_frames, bursts, amplitude=0.5):
    """Zeros with constant-amplitude bursts given as (first_frame, last_frame), 0-based."""
    x = np.zeros(total_frames * FRAME_LEN, dtype=np.float64)
    for a, b in bursts:
        x[a * FRAME_LEN:(b + 1) * FRAME_LEN] = amplitude
    return x


def test_silence_yields_nothing():
    assert energy_vad(np.zeros(SR), SR, FRAME_MS, threshold=1e-6) == []


def test_full_scale_signal_is_one_segment():
    segs = energy_vad(np.ones(SR), SR, FRAME_MS, threshold=0.5)
    assert [(s.t_start, s.t_end) for s in segs] == [(1, 100)]


def test_burst_with_hangover_spans_twelve_frames():
    # 100 ms burst inside 1 s of silence, hangover 2 frames at 10 ms
    x = _signal(100, [(40, 49)])
    segs = energy_vad(x, SR, FRAME_MS, threshold=0.01, hangover_frames=2)
    assert len(segs) == 1
    seg = segs[0]
    assert (seg.t_start, seg.t_end) == (41, 52)
    assert seg.num_feature_frames == 12
    assert (seg.k_first_nonblank, seg.k_last_nonblank) == (41, 50)


def test_hangover_stops_at_stream_end():
    x = _signal(50, [(45, 49)])
    segs = energy_vad(x, SR, FRAME_MS, threshold=0.01, hangover_frames=10)
    assert [(s.t_start, s.t_end) for s in segs] == [(46, 50)]


def test_hangover_bridges_nearby_bursts():
    x = _signal(100, [(10, 14), (17, 20)])
    merged = energy_vad(x, SR, FRAME_MS, threshold=0.01, hangover_frames=2)
    assert len(merged) == 1
    split = energy_vad(x, SR, FRAME_MS, threshold=0.01, hangover_frames=1)
    assert len(split) == 2


def test_empty_audio_raises():
    with pytest.raises(EmptyAudio):
        energy_vad(np.array([]), SR, FRAME_MS, threshold=0.01)


def test_nan_threshold_raises():
    # no frame's energy exceeds NaN, so it would silently find no speech
    with pytest.raises(ValueError, match="threshold"):
        energy_vad(np.ones(SR), SR, FRAME_MS, threshold=float("nan"))


@pytest.mark.parametrize("threshold", [-1.0, -np.inf, np.inf])
def test_threshold_must_be_finite_and_non_negative(threshold):
    # a mean-square energy is never below 0: -1 would mark every frame as speech, inf none
    with pytest.raises(ValueError, match="threshold"):
        energy_vad(np.ones(SR), SR, FRAME_MS, threshold=threshold)


def test_zero_threshold_marks_every_non_silent_frame():
    segs = energy_vad(_signal(10, [(3, 5)]), SR, FRAME_MS, threshold=0.0)
    assert [(s.t_start, s.t_end) for s in segs] == [(4, 6)]


def test_audio_shorter_than_one_frame_yields_nothing():
    assert energy_vad(np.full(FRAME_LEN - 1, 0.5), SR, FRAME_MS, threshold=0.01) == []


def test_int16_input_normalized():
    x = (_signal(100, [(40, 49)]) * 32767).astype(np.int16)
    segs = energy_vad(x, SR, FRAME_MS, threshold=0.01, hangover_frames=2)
    assert [(s.t_start, s.t_end) for s in segs] == [(41, 52)]


def test_segment_count_non_increasing_in_threshold_for_uniform_bursts():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n_bursts = int(rng.integers(1, 6))
        bursts = []
        start = int(rng.integers(0, 10))
        for _ in range(n_bursts):
            length = int(rng.integers(2, 8))
            bursts.append((start, start + length - 1))
            start += length + int(rng.integers(5, 15))
        total = bursts[-1][1] + 10
        x = _signal(total, bursts, amplitude=0.5)
        counts = [
            len(energy_vad(x, SR, FRAME_MS, threshold=th, hangover_frames=1))
            for th in (1e-5, 1e-3, 0.1, 0.2, 0.5)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def _brute_force_runs(active, hangover):
    """(t_start, t_end, k_last) per speech run, 1-based, from a per-frame scan."""
    speech = [any(active[j] for j in range(max(0, i - hangover), i + 1))
              for i in range(len(active))]
    runs = []
    for i, is_speech in enumerate(speech):
        if not is_speech:
            continue
        if i == 0 or not speech[i - 1]:
            runs.append([i + 1, i + 1, None])
        runs[-1][1] = i + 1
        if active[i]:
            runs[-1][2] = i + 1
    return [tuple(run) for run in runs]


def test_matches_a_per_frame_scan_on_random_frames():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        active = rng.random(n) < rng.uniform(0.0, 0.6)
        hangover = int(rng.integers(0, 2 * n + 2))
        x = _signal(n, [(i, i) for i in np.flatnonzero(active)])
        segs = energy_vad(x, SR, FRAME_MS, threshold=0.01, hangover_frames=hangover)
        assert [(s.t_start, s.t_end, s.k_last_nonblank) for s in segs] == \
            _brute_force_runs(active, hangover)
        assert [s.index for s in segs] == list(range(1, len(segs) + 1))
        assert all(s.k_first_nonblank == s.t_start for s in segs)
