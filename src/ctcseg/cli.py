"""Command-line entry points: segment, simulate, eval, bench.

Data goes to stdout, diagnostics to stderr when CTC_SEG_LOG is DEBUG,
INFO or NOTSET. Exit codes: 0 success, 1 input/format errors, 2 bad flags.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .errors import CtcSegError
from .io import (PosteriorReader, format_event, read_annotation, read_posterior_file,
                 read_wav_mono, write_posteriors, write_segments)
from .segmenter import OnlineSegmenter, segment_posteriors, segments_from_events

# Named presets: v_threshold / onset / offset tuned per encoder setup.
PROFILES = {
    "csj": {"v_threshold": 16, "onset_margin": 2, "offset_margin": 3},
    "ted-bi": {"v_threshold": 16, "onset_margin": 4, "offset_margin": 10},
    "ted-uni": {"v_threshold": 16, "onset_margin": 10, "offset_margin": 2},
}
DEFAULT_PROFILE = "csj"


def _add_segmenter_flags(parser: argparse.ArgumentParser) -> None:
    """The segmenter flags of segment and eval; None means "not given" (see _resolve_cfg)."""
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


def _resolve_cfg(args, blank_id: int, subsample_factor: int) -> SegmenterConfig:
    """An explicit flag beats the --profile preset, which beats SegmenterConfig's default."""
    chosen = dict(PROFILES[args.profile or DEFAULT_PROFILE])
    for key in ("v_threshold", "onset_margin", "offset_margin", "min_len_ratio"):
        if getattr(args, key, None) is not None:
            chosen[key] = getattr(args, key)
    return SegmenterConfig(subsample_factor=subsample_factor, blank_id=blank_id, **chosen)


def _reader_cfg(args, reader: PosteriorReader) -> SegmenterConfig:
    """The config for one stream: --blank-id over the header's, checked against its labels."""
    blank_id = getattr(args, "blank_id", None)
    if blank_id is None:
        blank_id = reader.blank_id
    check_layout(reader.num_labels, blank_id, reader.frame_shift_ms, reader.subsample_factor)
    return _resolve_cfg(args, blank_id, reader.subsample_factor)


def _info(message: str) -> None:
    """One diagnostic line on stderr, when CTC_SEG_LOG is DEBUG, INFO or NOTSET."""
    if os.environ.get("CTC_SEG_LOG", "").upper() in ("DEBUG", "INFO", "NOTSET"):
        print(f"INFO ctcseg: {message}", file=sys.stderr)


def _events(reader: PosteriorReader, cfg: SegmenterConfig):
    """Push each block's greedy labels as it arrives; yield each push's events, then finish's."""
    segmenter = OnlineSegmenter(cfg, frame_shift_ms=reader.frame_shift_ms)
    for labels in reader.labels():
        yield segmenter.push(labels.tolist())
    yield segmenter.finish(reader.total_feature_frames)


def _offline_segments(reader: PosteriorReader, cfg: SegmenterConfig) -> list[Segment]:
    """Rebuild and length-filter the segments from all of the stream's events."""
    events = [event for block in _events(reader, cfg) for event in block]
    return segments_from_events(events, cfg, reader.total_feature_frames,
                                apply_min_length=True)


def cmd_segment(args) -> int:
    if args.mode == "online" and args.format != "jsonl":
        print(f"error: --format {args.format} needs --mode offline; "
              "online mode writes JSON events", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        if args.input is not None:
            source = stack.enter_context(open(args.input, "rb"))
        else:
            source = sys.stdin.buffer
        reader = PosteriorReader(source)
        cfg = _reader_cfg(args, reader)
        sink = sys.stdout
        if args.output is not None:
            sink = stack.enter_context(open(args.output, "w", encoding="utf-8", newline="\n"))
        try:
            if args.mode == "online":
                for events in _events(reader, cfg):  # each block's events as soon as they exist
                    if events:
                        sink.write("".join(format_event(ev, reader.frame_shift_ms) + "\n"
                                           for ev in events))
                        sink.flush()
            else:
                segments = _offline_segments(reader, cfg)
                _info(f"segmented {reader.num_frames} steps into {len(segments)} segments")
                write_segments(segments, args.format, sink)
                sink.flush()
        except BrokenPipeError:
            # The reader of our output has gone (`| head`): stop quietly, and
            # point the sink at devnull so the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sink.fileno())
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

    if args.compare and args.wav is None:
        print("error: --compare requires --wav", file=sys.stderr)
        return 2
    with open(args.input, "rb") as source:
        reader = PosteriorReader(source)
        ref = read_annotation(args.ref)
        _check_coverage("annotation", ref.total_duration_sec, reader)
        hyp = _offline_segments(reader, _reader_cfg(args, reader))
    total = reader.total_feature_frames
    frame_shift_ms = reader.frame_shift_ms
    report = evaluate(hyp, ref, frame_shift_ms, total)

    if not args.compare:
        print(json.dumps(report.as_dict(), sort_keys=True))
        return 0

    samples, rate = read_wav_mono(args.wav)
    _check_coverage("WAV", len(samples) / rate, reader)
    from .energy import energy_vad

    energy_segments = [s for s in energy_vad(samples, rate, frame_shift_ms,
                                             args.energy_threshold, args.hangover)
                       if s.t_start <= total]
    energy_report = evaluate(energy_segments, ref, frame_shift_ms, total)
    print(json.dumps(
        {"ctc_blank_run": report.as_dict(), "energy_vad": energy_report.as_dict()},
        sort_keys=True,
    ))
    return 0


def _synthetic_bench_stream(args):
    """Alternating 2 s speech / 1 s silence filler for --input-less bench runs."""
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
    return synthesize_posteriors(ref, cfg, jitter_steps=1, spike_gap_max=8, seed=args.seed,
                                 frame_shift_ms=frame_shift_ms)


def cmd_bench(args) -> int:
    import statistics

    from .scoring import measure_rtf

    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    if args.rtf == "e2e":
        if args.input is None:
            print("error: --rtf e2e needs --input (it times file reading too)",
                  file=sys.stderr)
            return 2
        with open(args.input, "rb") as source:
            reader = PosteriorReader(source)  # the header only
        num_steps = reader.num_frames
        audio_sec = reader.total_feature_frames * reader.frame_shift_ms / 1000.0
        cfg = _reader_cfg(args, reader)

        def work():
            with open(args.input, "rb") as source:
                _offline_segments(PosteriorReader(source), cfg)
    else:
        if args.input is not None:
            stream = read_posterior_file(args.input)
        elif args.duration <= 0:
            print("error: zero-length input", file=sys.stderr)
            return 1
        else:
            stream = _synthetic_bench_stream(args)
        num_steps = stream.num_steps
        audio_sec = stream.duration_sec
        cfg = _resolve_cfg(args, stream.blank_id, stream.subsample_factor)

        def work():
            segment_posteriors(stream, cfg)
    if num_steps == 0:
        print("error: zero-length input", file=sys.stderr)
        return 1

    runs = [measure_rtf(work, audio_sec) for _ in range(args.repeat)]
    median = statistics.median(runs)
    elapsed = median * audio_sec
    print(json.dumps({
        "mode": args.rtf,
        "repeats": args.repeat,
        "audio_sec": audio_sec,
        "num_frames": num_steps,
        "rtf_median": median,
        "rtf_runs": runs,
        "frames_per_sec": num_steps / elapsed if elapsed > 0 else 0.0,
    }, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CtcSegError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    # ctcseg commands are pipeline filters. As SCHED_BATCH, a write to the input pipe
    # wakes this process without preempting the writer in the middle of its work.
    with contextlib.suppress(AttributeError, OSError):  # not Linux, or not permitted
        if os.sched_getscheduler(0) == os.SCHED_OTHER:  # leave real-time and idle policies
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
