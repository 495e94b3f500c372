"""File formats and streaming ingestion.

CTCP binary layout (all little-endian):

    offset  size  field
    0       4     magic "CTCP"
    4       2     u16 version (= 1)
    6       1     u8 flags, bit0: 1 = probabilities, 0 = pre-softmax scores
    7       1     u8 reserved (= 0)
    8       4     u32 num_frames (subsampled steps)
    12      4     u32 num_labels
    16      4     u32 blank_id
    20      4     f32 frame_shift_ms (RAW feature shift; a row spans
                  subsample_factor raw frames)
    24      4     u32 subsample_factor
    28      ...   num_frames rows of num_labels f32

The same layout is consumed incrementally from pipes/stdin in blocks of
complete rows, so file and stream ingestion share a single reader.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import suppress
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, TextIO

import numpy as np

from .core import (PosteriorStream, ReferenceAnnotation, Segment, SegmentEvent, check_layout,
                   validate_rows)
from .errors import (BadMagic, FormatError, InvalidConfig, RowError, TruncatedFile,
                     VersionMismatch)

MAGIC = b"CTCP"
VERSION = 1
_HEADER = struct.Struct("<4sHBBIIIfI")
HEADER_SIZE = _HEADER.size  # 28
_FLAG_PROBABILITIES = 0x01

# Target size of the reader's reusable buffer; it always holds at least one row.
BLOCK_BYTES = 1 << 20


def _into(read: Callable[[int], bytes | None]) -> Callable[[memoryview], int]:
    """A readinto made of a read that returns bytes."""
    def readinto(view: memoryview) -> int:
        data = read(len(view)) or b""
        view[:len(data)] = data
        return len(data)
    return readinto


def _readinto(fileobj) -> Callable[[memoryview], int]:
    """One read into a buffer, returning what fileobj has ready (0 at end)."""
    return (getattr(fileobj, "readinto1", None) or getattr(fileobj, "readinto", None)
            or _into(fileobj.read))


def _when_ready(readinto: Callable[[memoryview], int | None], fd: int) -> Callable[..., int]:
    """The readinto of a non-blocking fd, made to wait while nothing is ready (a None)."""
    import select  # only a non-blocking source needs it
    (ready := select.poll()).register(fd, select.POLLIN)
    def readinto_when_ready(view: memoryview) -> int:
        while (n := readinto(view)) is None:
            ready.poll()
        return n
    return readinto_when_ready


class PosteriorReader:
    """Incremental CTCP reader over a binary file object.

    Parses and validates the header eagerly. One loop then reads the rows into a
    buffer of about BLOCK_BYTES, which bounds memory, never the header's sizes; check()
    validates each row labels() and rows() hand on once. to_stream() gathers the rows
    in one buffer of the stream's size and leaves their one check to PosteriorStream.
    """

    def __init__(self, fileobj: BinaryIO):
        self._readinto = _readinto(fileobj)
        # On an empty buffer, a buffered reader's read1 makes one raw read of just the
        # size asked; readinto1 would fill that buffer with row bytes, and the row loop
        # would then wait on one more raw read before handing those rows on.
        read = _into(fileobj.read1) if hasattr(fileobj, "read1") else self._readinto
        with suppress(AttributeError, OSError):  # no descriptor, as in BytesIO: reads block
            if not os.get_blocking(fd := fileobj.fileno()):  # read1 gives b'' if none is ready
                read = self._readinto = _when_ready(self._readinto, fd)
        raw = memoryview(bytearray(HEADER_SIZE))
        got = 0
        while got < HEADER_SIZE and (n := read(raw[got:])):
            got += n
        if got < HEADER_SIZE:
            raise TruncatedFile(f"header truncated at offset {got} of {HEADER_SIZE}")
        magic, version, flags, _reserved, num_frames, num_labels, blank_id, \
            frame_shift_ms, subsample_factor = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r} at offset 0, expected {MAGIC!r}")
        if version != VERSION:
            raise VersionMismatch(f"unsupported version {version}, expected {VERSION}")
        try:
            check_layout(num_labels, blank_id, frame_shift_ms, subsample_factor)
        except InvalidConfig as exc:
            raise FormatError(f"header: {exc}") from exc
        self.num_frames = num_frames
        self.num_labels = num_labels
        self.blank_id = blank_id
        self.frame_shift_ms = frame_shift_ms
        self.subsample_factor = subsample_factor
        self.probabilities = bool(flags & _FLAG_PROBABILITIES)
        # The buffer's rows, the stream rows before them, and how many are checked and handed on
        self._rows = np.empty((0, num_labels), dtype=np.float32)
        self._first = self._checked = self._handed = 0

    @property
    def total_feature_frames(self) -> int:
        return self.num_frames * self.subsample_factor

    def _reads(self) -> Iterator[np.ndarray]:
        """Each read's new complete rows, unchecked, as views of one reusable buffer.

        A read takes what the source has ready, so a live pipe never waits for
        more than the row in progress. The loop calls check() before it reuses
        the buffer, before it raises TruncatedFile and at the last declared row.
        """
        num_labels, row_bytes = self.num_labels, 4 * self.num_labels
        capacity = min(max(1, BLOCK_BYTES // row_bytes), self.num_frames) * row_bytes
        buf = np.empty(0, dtype=np.uint8)
        have = 0  # bytes in the buffer: the rows handed on, then the row in progress
        while self._first + self._handed < self.num_frames:
            if have == buf.size:  # full: check its rows, then reuse it or grow it
                self.check()
                have -= (start := self._handed * row_bytes)
                if start:
                    buf[:have] = buf[start:start + have]
                else:  # first read, or a long row filled it: new buffer and views
                    grown = np.empty(min(max(2 * buf.size, BLOCK_BYTES), capacity), dtype=np.uint8)
                    grown[:have] = buf[:have]
                    buf, mem = grown, memoryview(grown)
                    self._rows = np.ndarray((buf.size // row_bytes, num_labels), "<f4", buf)
                self._first, self._checked, self._handed = self._first + self._handed, 0, 0
            n = self._readinto(mem[have:min(buf.size, (self.num_frames - self._first) * row_bytes)])
            if not n:
                self.check()
                raise TruncatedFile(f"stream ended in row {self._first + self._handed + 1} of "
                                    f"{self.num_frames} at offset "
                                    f"{HEADER_SIZE + self._first * row_bytes + have}")
            have += n
            if k := have // row_bytes - self._handed:
                self._handed += k
                yield self._rows[self._handed - k:self._handed]
        self.check()

    def check(self) -> None:
        """Validate, in one validate_rows call, the rows handed on since the last check."""
        validate_rows(self._rows[self._checked:self._handed], self.probabilities,
                      first_row=self._first + self._checked + 1)
        self._checked = self._handed

    def labels(self) -> Iterator[np.ndarray]:
        """Greedy label IDs (per-row argmax, ties to the lowest ID), one array per read.

        Yielded before the read's rows are checked: call check() before acting on
        them. Unchecked rows are checked at the latest when the buffer is reused,
        before TruncatedFile and at end of stream.
        """
        for rows in self._reads():
            yield rows.argmax(axis=1)

    def rows(self) -> Iterator[np.ndarray]:
        """One checked f32 vector per declared row; each is a copy, safe to keep.

        On a bad row the rows before it come first, then its RowError.
        """
        for block in self._reads():
            try:
                self.check()
            except RowError as exc:
                yield from block[:exc.row - self._first - self._checked - 1].copy()
                raise
            yield from block.copy()

    def to_stream(self) -> PosteriorStream:
        """Drain the rows into a PosteriorStream; it alone checks them, even those before a cut."""
        data, cut = bytearray(), None
        try:
            for block in self._reads():
                data += block.data
                self._checked = self._handed  # left to the stream's check
        except TruncatedFile as exc:
            cut = exc
        stream = PosteriorStream(np.frombuffer(data, "<f4").reshape(-1, self.num_labels),
                                 self.frame_shift_ms, self.subsample_factor, self.blank_id,
                                 presoftmax=not self.probabilities)
        if cut:
            raise cut
        return stream


def read_posterior_file(path: str | Path) -> PosteriorStream:
    """Read a whole CTCP file, validating header and rows."""
    with open(path, "rb") as f:
        return PosteriorReader(f).to_stream()


def write_posteriors(stream: PosteriorStream, sink: str | Path | BinaryIO) -> None:
    """Write a stream in CTCP layout; a read gives back its rows bit-exactly and its
    frame_shift_ms as the header's f32 holds it (33.3 reads 33.29999923706055)."""
    if stream.num_steps >= 2**32:
        raise InvalidConfig(f"num_frames must be in [0, 2**32), got {stream.num_steps}")
    flags = 0 if stream.presoftmax else _FLAG_PROBABILITIES
    header = _HEADER.pack(MAGIC, VERSION, flags, 0, stream.num_steps, stream.num_labels,
                          stream.blank_id, stream.frame_shift_ms, stream.subsample_factor)
    body = np.ascontiguousarray(stream.frames, dtype="<f4").reshape(-1).view(np.uint8).data
    if hasattr(sink, "write"):
        sink.write(header)
        sink.write(body)
    else:
        with open(sink, "wb") as f:
            f.write(header)
            f.write(body)


def _span_fields(s: Segment) -> str:
    return (f'"t_start": {s.t_start}, "t_end": {s.t_end}, '
            f'"start_sec": {s.start_sec:.6f}, "end_sec": {s.end_sec:.6f}')


def format_event(event: SegmentEvent, frame_shift_ms: float) -> str:
    """One online event as a JSON line without its newline; close and flush carry the span."""
    head = (f'{{"event": "{event.kind.value}", "step": {event.emitted_at_step}, '
            f'"index": {event.index}, ')
    seg = event.segment
    if seg is None:
        start_sec = event.t_start * frame_shift_ms / 1000.0
        return (head + f'"k_first": {event.emitted_at_step}, "t_start": {event.t_start}, '
                f'"start_sec": {start_sec:.6f}}}')
    return (head + f'"k_first": {seg.k_first_nonblank}, "k_last": {seg.k_last_nonblank}, '
            f'{_span_fields(seg)}, "transcript_len": {seg.transcript_len}}}')


def _segment_lines(segments: list[Segment], fmt: str) -> list[str]:
    if fmt == "jsonl":
        return [f'{{"index": {s.index}, {_span_fields(s)}}}' for s in segments]
    if fmt == "ctm":
        return [
            f"utt 1 {s.start_sec:.6f} {s.end_sec - s.start_sec:.6f} speech"
            for s in segments
        ]
    if fmt == "tsv":
        lines = ["index\tt_start\tt_end\tstart_sec\tend_sec"]
        lines += [
            f"{s.index}\t{s.t_start}\t{s.t_end}\t{s.start_sec:.6f}\t{s.end_sec:.6f}"
            for s in segments
        ]
        return lines
    raise ValueError(f"unknown segment format {fmt!r}")


def write_segments(segments: list[Segment], fmt: str, sink: TextIO) -> None:
    """Write segments to a text sink as jsonl, ctm-like, or tsv lines; byte-stable."""
    sink.write("".join(line + "\n" for line in _segment_lines(segments, fmt)))


def read_annotation(path: str | Path, label_alphabet_size: int = 32) -> ReferenceAnnotation:
    """Load {"duration_sec": float, "regions": [[start, end], ...]} JSON."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    try:
        duration = float(data["duration_sec"])
        regions = tuple((float(s), float(e)) for s, e in data["regions"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed annotation {path}: {exc}") from exc
    return ReferenceAnnotation(speech_regions=regions, total_duration_sec=duration,
                               label_alphabet_size=label_alphabet_size)


def read_wav_mono(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a 16-bit mono PCM RIFF file; returns (float32 samples in [-1, 1], rate)."""
    import wave

    try:
        with wave.open(str(path), "rb") as w:
            if w.getnchannels() != 1:
                raise FormatError(f"{path}: expected mono, got {w.getnchannels()} channels")
            if w.getsampwidth() != 2:
                raise FormatError(f"{path}: expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
            if (rate := w.getframerate()) < 1:
                raise FormatError(f"{path}: sample rate must be positive, got {rate}")
            raw = w.readframes(w.getnframes())
    except (wave.Error, EOFError) as exc:  # not RIFF/WAVE, or a header cut short
        raise FormatError(f"{path}: not a readable WAV file ({exc or 'truncated'})") from exc
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    return samples, rate
