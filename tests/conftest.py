import io
import json
import os
import wave
from pathlib import Path

import numpy as np
import pytest

from ctcseg import PosteriorStream

# Tests that start `python -m ctcseg` import it from this checkout, as the
# tests themselves do through pyproject's pytest pythonpath.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Fig-1-style worked stream: blank=0, A=1, B=2, C=3.
FIG1_LABELS = [0, 0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 3, 3, 0]
FIG1_NUM_LABELS = 4


def prob_frames(labels, num_labels, peak=0.9):
    """Probability rows whose argmax reproduces the given label sequence."""
    rest = (1.0 - peak) / (num_labels - 1)
    frames = np.full((len(labels), num_labels), rest, dtype=np.float32)
    for i, lab in enumerate(labels):
        frames[i, lab] = peak
    return frames


def stream_from_labels(labels, num_labels, blank_id=0, frame_shift_ms=10.0,
                       subsample_factor=1):
    return PosteriorStream(
        frames=prob_frames(labels, num_labels),
        frame_shift_ms=frame_shift_ms,
        subsample_factor=subsample_factor,
        blank_id=blank_id,
    )


class FakeStdin:
    """Stands in for sys.stdin: the CLI reads CTCP bytes from sys.stdin.buffer."""

    def __init__(self, data: bytes):
        self.buffer = io.BytesIO(data)


@pytest.fixture
def fig1_stream():
    return stream_from_labels(FIG1_LABELS, FIG1_NUM_LABELS, subsample_factor=2)


@pytest.fixture
def write_annotation(tmp_path):
    def _write(regions, duration_sec, name="ref.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"duration_sec": duration_sec,
                                    "regions": [list(r) for r in regions]}))
        return path
    return _write


@pytest.fixture
def write_wav(tmp_path):
    def _write(samples, sample_rate=16000, name="audio.wav"):
        path = tmp_path / name
        pcm = np.clip(np.asarray(samples) * 32767.0, -32768, 32767).astype("<i2")
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(2)
            w.setframerate(sample_rate)
            w.writeframes(pcm.tobytes())
        return path
    return _write
