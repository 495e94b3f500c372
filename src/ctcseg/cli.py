"""Command-line entry points: segment, simulate, eval, bench.

Data goes to stdout, diagnostics to stderr when CTC_SEG_LOG is DEBUG,
INFO or NOTSET. Exit codes: 0 success, 1 input, format or output errors, 2 bad flags.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import json
import os
import sys
from pathlib import Path

# ctcseg makes no BLAS call, but OpenBLAS starts an idle worker thread when
# numpy loads, which adds tens of ms to each launch; a value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Only what `segment` needs is loaded here; each other command imports its
# own modules when it runs.
from .core import ReferenceAnnotation, Segment, SegmenterConfig, check_layout, steps_in
from .errors import CtcSegError, RowError
from .io import (PosteriorReader, format_event, read_annotation, read_wav_mono,
                 write_posteriors, write_segments)
from .segmenter import OnlineSegmenter, filter_short_segments, segments_from_events

# Named presets: v_threshold / onset / offset tuned per encoder setup.
PROFILES = {
    "csj": {"v_threshold": 16, "onset_margin": 2, "offset_margin": 3},
    "ted-bi": {"v_threshold": 16, "onset_margin": 4, "offset_margin": 10},
    "ted-uni": {"v_threshold": 16, "onset_margin": 10, "offset_margin": 2},
}
DEFAULT_PROFILE = "csj"


def _add_segmenter_flags(parser: argparse.ArgumentParser) -> None:
    """The segmenter flags of segment and eval; None means "not given" (see _reader_cfg)."""
    parser.add_argument("-V", "--threshold", dest="v_threshold", type=int,
                        help="minimum blank run (subsampled steps) ending a segment")
    parser.add_argument("--onset-margin", dest="onset_margin", type=int,
                        help="steps prepended to each segment")
    parser.add_argument("--offset-margin", dest="offset_margin", type=int,
                        help="steps appended to each segment")
    parser.add_argument("--blank-id", type=int, help="override the header blank label ID")
    parser.add_argument("--min-len-ratio", type=float,
                        help="reject segments with transcript/steps ratio <= this "
                             f"(default {SegmenterConfig.min_len_ratio})")
    parser.add_argument("--profile", choices=sorted(PROFILES),
                        help=f"named threshold/margin preset (default {DEFAULT_PROFILE})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctcseg",
        description="Blank-run speech segmentation on CTC label posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a CTCP posterior stream")
    source = seg.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=Path, help="CTCP file")
    source.add_argument("--stream", action="store_true", help="read CTCP bytes from stdin")
    seg.add_argument("--output", type=Path, help="write here instead of stdout")
    _add_segmenter_flags(seg)
    seg.add_argument("--mode", choices=["offline", "online"], default="offline")
    seg.add_argument("--format", choices=["jsonl", "ctm", "tsv"], default="jsonl")
    seg.set_defaults(func=cmd_segment)

    sim = sub.add_parser("simulate", help="synthesize a CTCP file from an annotation")
    sim.add_argument("--annotation", type=Path, required=True,
                     help='JSON {"duration_sec": ..., "regions": [[s, e], ...]}')
    sim.add_argument("--output", type=Path, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--jitter", type=int, default=0, help="spike timing jitter in steps")
    sim.add_argument("--spike-gap-max", type=int, default=4,
                     help="max blank gap between spikes inside speech")
    sim.add_argument("--num-labels", type=int, default=32, help="CTC alphabet size incl. blank")
    sim.add_argument("-V", "--threshold", dest="v_threshold", type=int, default=16)
    sim.add_argument("-r", "--subsample", dest="subsample_factor", type=int, default=4)
    sim.add_argument("--blank-id", type=int, default=0)
    sim.add_argument("--frame-shift", dest="frame_shift_ms", type=float, default=10.0)
    sim.set_defaults(func=cmd_simulate)

    ev = sub.add_parser("eval", help="score segmentation against a reference annotation")
    ev.add_argument("--input", type=Path, required=True, help="CTCP file")
    ev.add_argument("--ref", type=Path, required=True, help="reference annotation JSON")
    _add_segmenter_flags(ev)
    ev.add_argument("--compare", action="store_true",
                    help="also run the energy VAD baseline on --wav")
    ev.add_argument("--wav", type=Path, help="paired 16-bit mono WAV for --compare")
    ev.add_argument("--energy-threshold", type=float, default=0.001,
                    help="mean-square energy threshold on the [-1, 1] scale")
    ev.add_argument("--hangover", type=int, default=2,
                    help="frames the energy VAD keeps speech after the last loud frame")
    ev.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="measure segmentation real-time factor")
    bench.add_argument("--input", type=Path, help="CTCP file (omit for a synthetic stream)")
    bench.add_argument("--duration", type=float, default=60.0,
                       help="synthetic stream length in seconds")
    bench.add_argument("--num-labels", type=int, default=3000)
    bench.add_argument("-r", "--subsample", dest="subsample_factor", type=int, default=4)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--rtf", choices=["core", "e2e"], default="core",
                       help="core: in-memory pipeline only; e2e: includes file reading")
    bench.add_argument("--repeat", type=int, default=5)
    bench.add_argument("--profile", choices=sorted(PROFILES))
    bench.set_defaults(func=cmd_bench)

    return parser


def _reader_cfg(args, reader: PosteriorReader) -> SegmenterConfig:
    """One stream's config: --blank-id beats the header, a flag the --profile preset."""
    blank_id = getattr(args, "blank_id", None)
    if blank_id is None:
        blank_id = reader.blank_id
    check_layout(reader.num_labels, blank_id, reader.frame_shift_ms, reader.subsample_factor)
    chosen = dict(PROFILES[args.profile or DEFAULT_PROFILE])
    for key in ("v_threshold", "onset_margin", "offset_margin", "min_len_ratio"):
        if getattr(args, key, None) is not None:
            chosen[key] = getattr(args, key)
    return SegmenterConfig(subsample_factor=reader.subsample_factor, blank_id=blank_id, **chosen)


def _info(message: str) -> None:
    """One diagnostic line on stderr, when CTC_SEG_LOG is DEBUG, INFO or NOTSET."""
    if os.environ.get("CTC_SEG_LOG", "").upper() in ("DEBUG", "INFO", "NOTSET"):
        print(f"INFO ctcseg: {message}", file=sys.stderr)


def _std(name: str):
    """sys.stdin or sys.stdout; Python sets it to None when the process starts with it closed."""
    if (stream := getattr(sys, name)) is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _events(reader: PosteriorReader, cfg: SegmenterConfig):
    """Push each read's greedy labels; yield a push's events once its rows pass, then finish's."""
    segmenter = OnlineSegmenter(cfg, frame_shift_ms=reader.frame_shift_ms)
    for labels in reader.labels():
        if events := segmenter.push(labels.tolist()):
            try:
                reader.check()
            except RowError as exc:  # push is causal: the events of the stream cut before the row
                yield [event for event in events if event.emitted_at_step < exc.row]
                raise
            yield events
    yield segmenter.finish(reader.total_feature_frames)


def _offline_segments(reader: PosteriorReader, cfg: SegmenterConfig) -> list[Segment]:
    """Rebuild and length-filter the segments from all of the stream's events."""
    events = [event for block in _events(reader, cfg) for event in block]
    return filter_short_segments(segments_from_events(events, cfg, reader.total_feature_frames),
                                 cfg)


def cmd_segment(args) -> int:
    if args.mode == "online" and args.format != "jsonl":
        print(f"error: --format {args.format} needs --mode offline; "
              "online mode writes JSON events", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        if args.input is not None:
            source = stack.enter_context(open(args.input, "rb"))
        else:
            source = _std("stdin").buffer
        reader = PosteriorReader(source)
        cfg = _reader_cfg(args, reader)
        if args.output is not None:
            sink = stack.enter_context(open(args.output, "w", encoding="utf-8", newline="\n"))
        else:
            sink = _std("stdout")
        if args.mode == "online":
            for events in _events(reader, cfg):  # each read's events as soon as they exist
                if events:
                    sink.write("".join(format_event(ev, reader.frame_shift_ms) + "\n"
                                       for ev in events))
                    sink.flush()
        else:
            segments = _offline_segments(reader, cfg)
            _info(f"segmented {reader.num_frames} steps into {len(segments)} segments")
            write_segments(segments, args.format, sink)
    return 0


def cmd_simulate(args) -> int:
    from .simulate import synthesize_posteriors

    ref = read_annotation(args.annotation, label_alphabet_size=args.num_labels)
    cfg = SegmenterConfig(
        v_threshold=args.v_threshold, onset_margin=0, offset_margin=0,
        subsample_factor=args.subsample_factor, blank_id=args.blank_id,
        min_len_ratio=0.0,
    )
    stream = synthesize_posteriors(ref, cfg, jitter_steps=args.jitter,
                                   spike_gap_max=args.spike_gap_max, seed=args.seed,
                                   frame_shift_ms=args.frame_shift_ms)
    write_posteriors(stream, args.output)
    _info(f"wrote {stream.num_steps} steps x {stream.num_labels} labels to {args.output}")
    return 0


def _check_coverage(what: str, seconds: float, reader: PosteriorReader) -> None:
    """Refuse a reference that is more than one posterior frame longer or shorter."""
    frames = int(round(seconds * 1000.0 / reader.frame_shift_ms))
    total = reader.total_feature_frames
    if abs(frames - total) > reader.subsample_factor:
        raise ValueError(f"{what} covers {frames} frames but the stream has {total} "
                         f"(> 1 posterior frame apart)")


def cmd_eval(args) -> int:
    from .scoring import evaluate

    if args.compare != (args.wav is not None):
        given, missing = ("--compare", "--wav") if args.compare else ("--wav", "--compare")
        print(f"error: {given} requires {missing}", file=sys.stderr)
        return 2
    with open(args.input, "rb") as source:
        reader = PosteriorReader(source)
        ref = read_annotation(args.ref)
        _check_coverage("annotation", ref.total_duration_sec, reader)
        hyp = _offline_segments(reader, _reader_cfg(args, reader))
    total, frame_shift_ms = reader.total_feature_frames, reader.frame_shift_ms
    report = evaluate(hyp, ref, frame_shift_ms, total).as_dict()
    if args.compare:
        samples, rate = read_wav_mono(args.wav)
        _check_coverage("WAV", len(samples) / rate, reader)
        from .energy import energy_vad

        energy_segments = energy_vad(samples, rate, frame_shift_ms, args.energy_threshold,
                                     args.hangover)
        report = {"ctc_blank_run": report,
                  "energy_vad": evaluate(energy_segments, ref, frame_shift_ms, total).as_dict()}
    print(json.dumps(report, sort_keys=True), file=_std("stdout"))
    return 0


def _synthetic_bench_ctcp(args) -> bytes:
    """CTCP bytes of alternating 2 s speech / 1 s silence filler for --input-less bench runs."""
    from .simulate import synthesize_posteriors

    duration, frame_shift_ms = args.duration, 10.0
    cfg = SegmenterConfig(subsample_factor=args.subsample_factor, min_len_ratio=0.0)
    steps_in(duration, frame_shift_ms, cfg.subsample_factor, args.num_labels)  # bounds the loop
    regions = []
    t = 0.5
    while t + 2.0 < duration:
        regions.append((t, t + 2.0))
        t += 3.0
    ref = ReferenceAnnotation(speech_regions=tuple(regions), total_duration_sec=duration,
                              label_alphabet_size=args.num_labels)
    sink = io.BytesIO()
    write_posteriors(synthesize_posteriors(ref, cfg, jitter_steps=1, spike_gap_max=8,
                                           seed=args.seed, frame_shift_ms=frame_shift_ms), sink)
    return sink.getvalue()


def cmd_bench(args) -> int:
    """Time the path `segment` runs: _offline_segments over a PosteriorReader.

    core reads CTCP bytes made before the clock starts (the --input file's or a synthetic
    stream's), e2e the --input file on each run; the header gives config and length."""
    import statistics
    from functools import partial

    from .scoring import measure_rtf

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if args.rtf == "e2e":
        if args.input is None:
            print("error: --rtf e2e needs --input (it times file reading too)",
                  file=sys.stderr)
            return 2
        source = partial(open, args.input, "rb")
    elif args.input is not None:
        source = partial(io.BytesIO, args.input.read_bytes())
    elif args.duration <= 0:
        print("error: zero-length input", file=sys.stderr)
        return 1
    else:
        source = partial(io.BytesIO, _synthetic_bench_ctcp(args))
    with source() as header:
        reader = PosteriorReader(header)  # the header only
    cfg = _reader_cfg(args, reader)
    if reader.num_frames == 0:
        print("error: zero-length input", file=sys.stderr)
        return 1

    def work():
        with source() as stream:
            _offline_segments(PosteriorReader(stream), cfg)

    audio_sec = reader.total_feature_frames * reader.frame_shift_ms / 1000.0
    runs = [measure_rtf(work, audio_sec) for _ in range(args.repeat)]
    median = statistics.median(runs)
    elapsed = median * audio_sec
    print(json.dumps({
        "mode": args.rtf,
        "repeats": args.repeat,
        "audio_sec": audio_sec,
        "num_frames": reader.num_frames,
        "rtf_median": median,
        "rtf_runs": runs,
        "frames_per_sec": reader.num_frames / elapsed if elapsed > 0 else 0.0,
    }, sort_keys=True), file=_std("stdout"))
    return 0


def main(argv=None) -> int:
    """Run one command, flush stdout and return the exit code, for every command and caller.

    The only place a failed read or write becomes a code: a reader that has gone
    (BrokenPipeError, as under `| head`) is not an error; any other OSError,
    a CtcSegError or a ValueError, a closed stdin or stdout the command uses included,
    is one `error:` line on stderr and code 1.
    """
    code = 0
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so that no later flush fails again (if --output broke,
        # stdout may be closed, None, or a stand-in with no descriptor).
        with (open(os.devnull, "w") as devnull,
              contextlib.suppress(AttributeError, io.UnsupportedOperation)):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (CtcSegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


def entrypoint() -> None:
    """The `ctcseg` command: main() on sys.argv under the CPU policy the caller set,
    then exit without interpreter teardown."""
    # Under PYTHONUNBUFFERED, text stdout writes to a raw file and drops the rest of a
    # short write; a buffered layer retries it or raises.
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        sys.stdout = open(sys.stdout.fileno(), "w", encoding=sys.stdout.encoding, closefd=False)
    code = main()
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    # main flushed stdout: skip the interpreter's teardown, which costs tens of ms.
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
