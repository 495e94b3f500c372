"""Synthetic posterior generation from ground-truth annotations.

Models the characteristic shape of greedy CTC output: sparse non-blank
spikes inside speech, wall-to-wall blanks outside, and spike timing that
does not line up exactly with the acoustic boundaries (controlled here by
jitter_steps). Deterministic for a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .core import PosteriorStream, ReferenceAnnotation, SegmenterConfig, check_layout, \
    first_frame_at_or_after, last_frame_before
from .errors import InvalidConfig

# Probability put on the winning label of each synthetic row; the rest is
# spread evenly so rows always sum to one and argmax is never tied.
_PEAK = 0.9
_OFF_PEAK_BLANK = 0.95


def synthesize_posteriors(ref: ReferenceAnnotation, cfg: SegmenterConfig,
                          jitter_steps: int = 0, spike_gap_max: int = 4,
                          seed: int = 0, frame_shift_ms: float = 10.0) -> PosteriorStream:
    """Build a probability stream whose greedy decode matches the annotation.

    Non-speech steps are blank-dominated; each speech region gets non-blank
    spikes at its first and last covered step and a random walk of interior
    spikes with blank gaps <= spike_gap_max, so at jitter 0 no intra-region
    gap can reach the segmentation threshold. jitter_steps shifts every
    spike by a uniform offset in [-jitter_steps, +jitter_steps].
    """
    if spike_gap_max < 1:
        raise InvalidConfig(f"spike_gap_max must be >= 1, got {spike_gap_max}")
    if spike_gap_max >= cfg.v_threshold:
        raise InvalidConfig(
            f"spike_gap_max {spike_gap_max} must stay below v_threshold {cfg.v_threshold}"
        )
    if jitter_steps < 0:
        raise InvalidConfig(f"jitter_steps must be non-negative, got {jitter_steps}")
    num_labels = ref.label_alphabet_size
    check_layout(num_labels, cfg.blank_id, frame_shift_ms, cfg.subsample_factor)

    r = cfg.subsample_factor
    step_ms = r * frame_shift_ms
    total_frames = int(round(ref.total_duration_sec * 1000.0 / frame_shift_ms))
    num_steps = total_frames // r
    rng = np.random.default_rng(seed)

    spikes: dict[int, int] = {}
    for start_sec, end_sec in ref.speech_regions:
        k_on = max(1, first_frame_at_or_after(start_sec, step_ms))
        k_off = min(num_steps, last_frame_before(end_sec, step_ms))
        if k_on > k_off:
            continue
        k = k_on
        spikes[k] = _random_nonblank(rng, num_labels, cfg.blank_id)
        while k < k_off:
            gap = int(rng.integers(0, spike_gap_max + 1))
            k = min(k + 1 + gap, k_off)
            spikes[k] = _random_nonblank(rng, num_labels, cfg.blank_id)

    if jitter_steps > 0:
        jittered: dict[int, int] = {}
        for k in sorted(spikes):
            shift = int(rng.integers(-jitter_steps, jitter_steps + 1))
            k2 = min(max(k + shift, 1), num_steps)
            jittered[k2] = spikes[k]
        spikes = jittered

    frames = np.empty((num_steps, num_labels), dtype=np.float32)
    off_row = np.full(num_labels, (1.0 - _OFF_PEAK_BLANK) / max(num_labels - 1, 1),
                      dtype=np.float32)
    off_row[cfg.blank_id] = _OFF_PEAK_BLANK
    frames[:] = off_row
    rest = (1.0 - _PEAK) / max(num_labels - 1, 1)
    for k, lab in spikes.items():
        row = np.full(num_labels, rest, dtype=np.float32)
        row[lab] = _PEAK
        frames[k - 1] = row

    return PosteriorStream(frames=frames, frame_shift_ms=frame_shift_ms,
                           subsample_factor=r, blank_id=cfg.blank_id, presoftmax=False)


def _random_nonblank(rng: np.random.Generator, num_labels: int, blank_id: int) -> int:
    lab = int(rng.integers(0, num_labels - 1))
    return lab + 1 if lab >= blank_id else lab
