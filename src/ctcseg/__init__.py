"""Blank-run speech segmentation on CTC label posteriors.

Greedy frame-synchronous decoding emits long runs of blank labels in
non-speech; this package turns those runs into speech segments via a
minimum blank duration threshold with onset/offset margins, in both an
offline (whole stream) and an online (label-by-label, bounded state)
form, plus the surrounding harness: a CTCP binary interchange format,
synthetic posterior generation, an energy-VAD baseline, frame-level
evaluation, and RTF benchmarking.

`import ctcseg` loads nothing heavy (numpy included): the first use of a
public name loads and binds the whole API at once, after which the package
is a plain module. No submodule shares a name with a public function, so
importing a submodule first cannot shadow one.
"""

__version__ = "0.1.0"

# Submodule -> the public names it exports.
_EXPORTS = {
    "core": ("EventKind", "LabelStream", "PosteriorStream", "ReferenceAnnotation",
             "Segment", "SegmentEvent", "SegmenterConfig"),
    "energy": ("energy_vad",),
    "errors": ("BadMagic", "CtcSegError", "EmptyAudio", "FormatError",
               "InvalidConfig", "InvalidState", "NonFiniteScore", "ProbabilityOutOfRange",
               "RowError", "RowSumViolation", "TruncatedFile",
               "VersionMismatch"),
    "io": ("PosteriorReader", "read_annotation", "read_posterior_file", "read_wav_mono",
           "write_posteriors", "write_segments"),
    "scoring": ("EvalReport", "evaluate"),
    "segmenter": ("OnlineSegmenter", "filter_short_segments", "greedy_decode", "greedy_label",
                  "min_length_filter", "segment_offline", "segment_posteriors",
                  "segments_from_events"),
    "simulate": ("synthesize_posteriors",),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name):
    """Load and bind the whole public API, then step aside for good."""
    # Other names are probes that must not load numpy: `from ctcseg import cli`
    # asks for "cli" before it imports the submodule.
    if name not in __all__ and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    namespace = globals()
    for module, names in _EXPORTS.items():
        loaded = import_module(f".{module}", __name__)
        namespace.update((n, getattr(loaded, n)) for n in names)
    del namespace["__getattr__"], namespace["__dir__"]
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
