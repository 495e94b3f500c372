"""Blank-run speech segmentation on CTC label posteriors.

Greedy frame-synchronous decoding emits long runs of blank labels in
non-speech; this package turns those runs into speech segments via a
minimum blank duration threshold with onset/offset margins, in both an
offline (whole stream) and an online (label-by-label, bounded state)
form, plus the surrounding harness: a CTCP binary interchange format,
synthetic posterior generation, an energy-VAD baseline, frame-level
evaluation, and RTF benchmarking.
"""

from .core import (EventKind, LabelStream, PosteriorStream, ReferenceAnnotation,
                   Segment, SegmentEvent, SegmenterConfig)
from .energy_vad import energy_vad
from .errors import (BadMagic, CtcSegError, EmptyAudio, EmptyStream, FormatError,
                     InvalidConfig, InvalidState, NonFiniteScore, ProbabilityOutOfRange,
                     RowError, RowSumViolation, SinkError, TruncatedFile, VersionMismatch)
from .evaluate import EvalReport, evaluate, measure_rtf
from .greedy import ctc_collapse, greedy_decode, greedy_label
from .io import (PosteriorReader, read_annotation, read_posterior_file,
                 read_wav_mono, write_posteriors, write_segments)
from .segmenter import (Mode, OnlineSegmenter, encoded_length, filter_short_segments,
                        min_length_filter, segment_offline, segment_posteriors,
                        segments_from_events)
from .simulate import synthesize_posteriors

__version__ = "0.1.0"

__all__ = [
    "BadMagic", "CtcSegError", "EmptyAudio", "EmptyStream", "EvalReport",
    "EventKind", "FormatError", "InvalidConfig", "InvalidState", "LabelStream",
    "Mode", "NonFiniteScore", "OnlineSegmenter", "PosteriorReader", "PosteriorStream",
    "ProbabilityOutOfRange", "ReferenceAnnotation", "RowError", "RowSumViolation",
    "Segment", "SegmentEvent",
    "SegmenterConfig", "SinkError", "TruncatedFile", "VersionMismatch",
    "ctc_collapse", "encoded_length", "energy_vad", "evaluate",
    "filter_short_segments", "greedy_decode", "greedy_label", "measure_rtf",
    "min_length_filter", "read_annotation", "read_posterior_file", "read_wav_mono",
    "segment_offline", "segment_posteriors", "segments_from_events",
    "synthesize_posteriors", "write_posteriors", "write_segments",
]
