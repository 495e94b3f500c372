"""Energy-threshold baseline VAD with a hangover, for comparison runs."""

from __future__ import annotations

import numpy as np

from .core import Segment
from .errors import EmptyAudio


def energy_vad(samples: np.ndarray, sample_rate_hz: int, frame_ms: float,
               threshold: float, hangover_frames: int = 0) -> list[Segment]:
    """Segment mono PCM by short-time energy.

    Frames of frame_ms are speech when their mean-square energy (on the
    [-1, 1] sample scale; int16 input is normalized by 32768) exceeds
    threshold; speech extends hangover_frames past the last above-threshold
    frame. Returns 1-based frame-unit segments; a trailing partial frame is
    ignored.
    """
    samples = np.asarray(samples)
    if samples.size == 0:
        raise EmptyAudio("no samples")
    if samples.ndim != 1:
        raise ValueError("samples must be mono (1-D)")
    if frame_ms <= 0:
        raise ValueError(f"frame_ms must be positive, got {frame_ms}")
    if not 0 <= threshold < np.inf:  # a mean-square energy is >= 0; NaN fails too
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if hangover_frames < 0:
        raise ValueError(f"hangover_frames must be non-negative, got {hangover_frames}")
    if samples.dtype.kind == "i":
        samples = samples.astype(np.float64) / float(np.iinfo(samples.dtype).max + 1)
    else:
        samples = samples.astype(np.float64)

    frame_len = int(round(sample_rate_hz * frame_ms / 1000.0))
    if frame_len < 1:
        raise ValueError("frame_ms too short for the sample rate")
    n_frames = samples.size // frame_len
    if n_frames == 0:
        return []

    energy = np.mean(samples[:n_frames * frame_len].reshape(n_frames, frame_len) ** 2, axis=1)
    active = energy > threshold

    # frame i is speech iff some above-threshold frame lies within the
    # preceding hangover_frames steps (inclusive of i itself)
    idx = np.arange(n_frames)
    last_active = np.maximum.accumulate(np.where(active, idx, -1))
    speech = (last_active >= 0) & (idx - last_active <= hangover_frames)

    # runs are [start, end) in 0-based frames; each starts on an active frame,
    # so the last active frame of a run is last_active[end - 1]
    edges = np.flatnonzero(np.diff(speech, prepend=False, append=False))
    return [
        Segment(index=index, k_first_nonblank=start + 1,
                k_last_nonblank=int(last_active[end - 1]) + 1,
                t_start=start + 1, t_end=end, frame_shift_ms=frame_ms)
        for index, (start, end) in enumerate(edges.reshape(-1, 2).tolist(), start=1)
    ]
