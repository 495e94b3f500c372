"""Greedy frame-synchronous label prediction."""

from __future__ import annotations

import numpy as np

from .core import LabelStream, PosteriorStream


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

