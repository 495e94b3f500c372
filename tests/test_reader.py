"""The block reader: validation per block, block boundaries, hostile input, live pipes."""

import io
import itertools
import os
import selectors
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctcseg.core
import ctcseg.io
from ctcseg import (FormatError, InvalidConfig, NonFiniteScore, OnlineSegmenter,
                    PosteriorReader, PosteriorStream, ProbabilityOutOfRange, RowSumViolation,
                    SegmenterConfig, TruncatedFile)

HEADER = struct.Struct("<4sHBBIIIfI")
SRC = str(Path(__file__).resolve().parent.parent / "src")


def ctcp(rows, flags=1, frame_shift_ms=10.0):
    rows = np.asarray(rows, dtype="<f4")
    return HEADER.pack(b"CTCP", 1, flags, 0, len(rows), rows.shape[1], 0, frame_shift_ms,
                       1) + rows.tobytes()


def one_hot_rows(labels, num_labels):
    rows = np.zeros((len(labels), num_labels), dtype="<f4")
    rows[np.arange(len(labels)), labels] = 1.0
    return rows


class TestRowErrors:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("flags", [1, 0])
    def test_non_finite_scores_are_rejected(self, bad, flags):
        data = ctcp([[0.5, 0.5], [bad, 0.5], [0.5, 0.5]], flags=flags)
        with pytest.raises(NonFiniteScore, match="row 2"):
            PosteriorReader(io.BytesIO(data)).to_stream()
        frames = np.array([[0.5, 0.5], [bad, 0.5]], dtype=np.float32)
        with pytest.raises(NonFiniteScore, match="row 2"):
            PosteriorStream(frames=frames, presoftmax=flags == 0)

    def test_presoftmax_rows_whose_float32_sum_overflows_are_fine(self):
        data = ctcp([[3e38, 3e38, -1.0]], flags=0)
        stream = PosteriorReader(io.BytesIO(data)).to_stream()
        assert stream.frames[0, 0] == np.float32(3e38)

    def test_out_of_range_probability_names_its_row(self):
        data = ctcp([[0.5, 0.5], [1.25, -0.25]])
        with pytest.raises(ProbabilityOutOfRange, match="row 2") as info:
            PosteriorReader(io.BytesIO(data)).to_stream()
        assert isinstance(info.value, ValueError)
        assert isinstance(info.value, FormatError)

    def test_stream_and_reader_raise_the_same_row_sum_error(self):
        frames = np.array([[0.5, 0.5], [0.9, 0.3]], dtype=np.float32)
        with pytest.raises(RowSumViolation, match="row 2") as info:
            PosteriorStream(frames=frames)
        assert isinstance(info.value, ValueError)
        with pytest.raises(RowSumViolation, match="row 2"):
            PosteriorReader(io.BytesIO(ctcp(frames))).to_stream()

    @pytest.mark.parametrize("shift", [float("inf"), float("nan"), 0.0, -10.0])
    def test_header_frame_shift_must_be_positive_and_finite(self, shift):
        data = ctcp(np.empty((0, 2)), frame_shift_ms=shift)
        with pytest.raises(FormatError, match="frame_shift_ms"):
            PosteriorReader(io.BytesIO(data))


# (num_labels, blank_id, frame_shift_ms, subsample_factor), each breaking one layout rule.
BAD_LAYOUTS = [
    pytest.param(0, 0, 10.0, 1, id="zero-labels"),
    pytest.param(2, 2, 10.0, 1, id="blank-out-of-range"),
    pytest.param(2, 0, 10.0, 0, id="subsample-zero"),
    pytest.param(2, 0, float("nan"), 1, id="shift-nan"),
    pytest.param(2, 0, float("inf"), 1, id="shift-inf"),
    pytest.param(2, 0, 0.0, 1, id="shift-zero"),
    pytest.param(2, 0, -10.0, 1, id="shift-negative"),
    pytest.param(2, 0, 1e40, 1, id="shift-beyond-float32"),
    pytest.param(2, 0, 1e-46, 1, id="shift-float32-rounds-to-zero"),
]


@pytest.mark.parametrize("num_labels, blank_id, shift, r", BAD_LAYOUTS)
def test_stream_and_reader_refuse_the_same_layouts(num_labels, blank_id, shift, r):
    with pytest.raises(InvalidConfig):
        PosteriorStream(frames=np.empty((0, num_labels), dtype=np.float32), blank_id=blank_id,
                        frame_shift_ms=shift, subsample_factor=r)
    with np.errstate(over="ignore"):  # the header holds the shift as float32 makes it
        header = HEADER.pack(b"CTCP", 1, 1, 0, 0, num_labels, blank_id, np.float32(shift), r)
    with pytest.raises(FormatError, match="^header: "):
        PosteriorReader(io.BytesIO(header))


def test_the_header_read_leaves_no_row_bytes_in_the_file_buffer(tmp_path):
    # Row bytes left in a buffered reader's own buffer would make the first block
    # read wait on one more raw read (the live-pipe test below shows the effect).
    path = tmp_path / "rows.ctcp"
    path.write_bytes(ctcp(one_hot_rows([0, 1] * 2000, 4)))
    with open(path, "rb") as f:
        PosteriorReader(f)
        assert f.raw.tell() == ctcseg.io.HEADER_SIZE


class Trickle:
    """A source whose every read hands over 1-7 bytes, as a slow pipe might."""

    def __init__(self, data: bytes):
        self.data, self.pos = memoryview(data), 0
        self.sizes = itertools.cycle([1, 7, 3, 5, 2, 6, 4])

    def readinto1(self, view) -> int:
        n = min(len(view), next(self.sizes), len(self.data) - self.pos)
        view[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


class TestBlocks:
    LABELS = [0, 1, 1, 0, 2, 0, 0, 3, 0, 1, 0]

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        # 3 rows of 4 labels per block
        monkeypatch.setattr(ctcseg.io, "BLOCK_BYTES", 3 * 16)

    def test_labels_and_rows_cross_block_boundaries(self, small_blocks):
        rows = one_hot_rows(self.LABELS, 4)
        reader = PosteriorReader(io.BytesIO(ctcp(rows)))
        assert np.concatenate(list(reader.labels())).tolist() == self.LABELS
        kept = list(PosteriorReader(io.BytesIO(ctcp(rows))).rows())
        assert np.array_equal(np.stack(kept), rows)

    def test_bad_row_in_a_later_block_yields_the_good_rows_first(self, small_blocks):
        rows = one_hot_rows(self.LABELS, 4)
        rows[4] = [0.5, 0.5, 0.5, 0.0]
        seen = []
        with pytest.raises(RowSumViolation, match="row 5"):
            for row in PosteriorReader(io.BytesIO(ctcp(rows))).rows():
                seen.append(row)
        assert np.array_equal(np.stack(seen), rows[:4])
        with pytest.raises(RowSumViolation, match="row 5"):
            PosteriorReader(io.BytesIO(ctcp(rows))).to_stream()
        # A cut in a later block than the bad row: the row's error still comes first.
        with pytest.raises(RowSumViolation, match="row 5") as info:
            PosteriorReader(io.BytesIO(ctcp(rows)[:-6])).to_stream()
        assert info.value.row == 5

    def test_to_stream_checks_each_row_once(self, small_blocks, monkeypatch):
        seen = []

        def counted(validate_rows):
            def count(rows, *args, **kwargs):
                seen.append(len(rows))
                return validate_rows(rows, *args, **kwargs)
            return count
        for module in (ctcseg.io, ctcseg.core):  # the reader's binding and the stream's
            monkeypatch.setattr(module, "validate_rows", counted(module.validate_rows))
        rows = one_hot_rows(self.LABELS * 91, 4)  # 1,001 rows in 334 blocks
        assert PosteriorReader(io.BytesIO(ctcp(rows))).to_stream().frames.tobytes() == \
            rows.tobytes()
        assert sum(seen) == len(rows)

    def test_truncation_offset_counts_every_byte_read(self, small_blocks):
        data = ctcp(one_hot_rows(self.LABELS, 4))[:-6]
        last = len(self.LABELS)
        with pytest.raises(TruncatedFile, match=f"row {last} of {last} at offset {len(data)}"):
            PosteriorReader(io.BytesIO(data)).to_stream()

    def test_long_rows_outgrow_the_block_size(self, small_blocks):
        rows = one_hot_rows([5, 2, 9], 10)  # 40-byte rows, 48-byte blocks
        assert PosteriorReader(io.BytesIO(ctcp(rows))).to_stream().frames.tobytes() == \
            rows.tobytes()

    # 160-byte rows grow the 48-byte buffer twice, to 96 and then 160 bytes;
    # 12-byte rows leave a partial row to carry after most blocks.
    @pytest.mark.parametrize("num_labels", [40, 3])
    def test_rows_arriving_a_few_bytes_at_a_time(self, small_blocks, num_labels):
        labels = [1, 0, 2, 2, 0, 1, 0]
        rows = one_hot_rows(labels, num_labels)
        data = ctcp(rows)
        assert np.concatenate(list(PosteriorReader(Trickle(data)).labels())).tolist() == labels
        assert np.array_equal(np.stack(list(PosteriorReader(Trickle(data)).rows())), rows)
        assert PosteriorReader(Trickle(data)).to_stream().frames.tobytes() == rows.tobytes()
        rows[3] = 0.5
        seen = []
        with pytest.raises(RowSumViolation, match="row 4"):
            for row in PosteriorReader(Trickle(ctcp(rows))).rows():
                seen.append(row)
        assert np.array_equal(np.stack(seen), rows[:3])


def test_to_stream_holds_the_rows_once():
    rows = one_hot_rows(np.arange(2000) % 7, 1000)  # 8 MB
    source = io.BytesIO(ctcp(rows))
    tracemalloc.start()
    try:
        stream = PosteriorReader(source).to_stream()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.frames.tobytes() == rows.tobytes()
    assert peak <= 1.15 * rows.nbytes + ctcseg.io.BLOCK_BYTES


def test_a_failed_read_is_not_replaced_by_an_earlier_bad_row():
    class FailingEnd(io.BytesIO):
        def readinto1(self, view):
            if not (n := super().readinto1(view)):
                raise OSError(5, "Input/output error")
            return n
    rows = one_hot_rows([0, 1, 2, 0], 3)
    rows[1] = 0.5
    with pytest.raises(OSError, match="Input/output error"):
        PosteriorReader(FailingEnd(ctcp(rows)[:-4])).to_stream()


_header_fields = st.tuples(
    st.sampled_from([b"CTCP", b"CTCX"]), st.sampled_from([1, 1, 1, 2]), st.integers(0, 255),
    st.integers(0, 255), st.integers(0, 2**32 - 1) | st.integers(0, 8),
    st.integers(0, 2**32 - 1) | st.integers(0, 6), st.integers(0, 2**32 - 1) | st.integers(0, 6),
    st.floats(width=32, allow_nan=True, allow_infinity=True),
    st.integers(0, 2**32 - 1) | st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(_header_fields, st.binary(max_size=200), st.integers(0, 228),
       st.sampled_from(["labels", "rows", "to_stream"]))
def test_fuzzed_input_raises_only_format_errors(fields, body, cut, how):
    data = (HEADER.pack(*fields) + body)[:cut]
    try:
        reader = PosteriorReader(io.BytesIO(data))
        list(getattr(reader, how)()) if how != "to_stream" else reader.to_stream()
    except FormatError:
        pass


def test_a_huge_declared_row_costs_no_memory():
    # One declared row of 64M labels (256 MB) on a 16-byte body.
    code = (
        "import io, resource, struct\n"
        "from ctcseg import PosteriorReader, TruncatedFile\n"
        "data = struct.pack('<4sHBBIIIfI', b'CTCP', 1, 1, 0, 1, 64 << 20, 0, 10.0, 1)"
        " + bytes(16)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    PosteriorReader(io.BytesIO(data)).to_stream()\n"
        "except TruncatedFile as exc:\n"
        "    print(exc)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    message, grown_kb = proc.stdout.splitlines()
    assert message == "stream ended in row 1 of 1 at offset 44"
    assert int(grown_kb) < 32 * 1024


def _read_lines(stream, n, timeout_s):
    """n lines from a pipe, or fewer if the deadline passes first."""
    sel = selectors.DefaultSelector()
    sel.register(stream, selectors.EVENT_READ)
    lines, data = [], b""
    deadline = time.monotonic() + timeout_s
    try:
        while len(lines) < n:
            left = deadline - time.monotonic()
            if left <= 0 or not sel.select(left):
                break
            chunk = os.read(stream.fileno(), 1 << 16)
            if not chunk:
                break
            data += chunk
            *done, data = data.split(b"\n")
            lines += done
    finally:
        sel.close()
    return lines, data


def test_live_pipe_events_arrive_before_the_next_row():
    labels = [1, 0, 0, 2, 2, 0, 0, 0, 3, 0, 0]
    cfg = SegmenterConfig(v_threshold=2, onset_margin=0, offset_margin=0, subsample_factor=1)
    segmenter = OnlineSegmenter(cfg)
    per_row = [len(segmenter.step(lab)) for lab in labels]
    # 1 KiB rows: the first row fits in stdin's own buffer, but the reader
    # asks for more than that buffer holds (all 11 rows at once).
    rows = one_hot_rows(labels, 256)
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctcseg", "segment", "--stream", "--mode", "online",
         "-V", "2", "--onset-margin", "0", "--offset-margin", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={**os.environ, "PYTHONPATH": SRC})
    try:
        # The header and the first row share one write, so both sit in the
        # reader's buffer together; the row's event must still come out.
        header = ctcp(rows)[:HEADER.size]
        for k, (row, expected) in enumerate(zip(rows, per_row), start=1):
            proc.stdin.write((header if k == 1 else b"") + row.tobytes())
            lines, partial = _read_lines(proc.stdout, expected, timeout_s=20.0)
            assert len(lines) == expected and partial == b"", f"row {k}: {lines} {partial}"
            assert all(f'"step": {k},'.encode() in line for line in lines)
        proc.stdin.close()
        assert proc.wait(timeout=20) == 0
    finally:
        proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            stream.close()


def test_live_pipe_bad_row_is_reported_with_the_next_event_and_no_event_after_it():
    # V = 2: open 1, close 3, open 4; the bad row 5 decodes to label 2 and extends
    # that segment, row 6 decides nothing, and row 7 would close it at step 7.
    labels = [1, 0, 0, 2, 2, 0, 0, 0]
    rows = one_hot_rows(labels, 256)
    rows[4, :2] = 0.5  # row 5 sums to 2
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctcseg", "segment", "--stream", "--mode", "online",
         "-V", "2", "--onset-margin", "0", "--offset-margin", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={**os.environ, "PYTHONPATH": SRC})
    try:
        data = ctcp(rows)
        proc.stdin.write(data[:HEADER.size])
        for k, (row, expected) in enumerate(zip(rows[:4], [1, 0, 1, 1]), start=1):
            proc.stdin.write(row.tobytes())
            lines, partial = _read_lines(proc.stdout, expected, timeout_s=20.0)
            assert len(lines) == expected and partial == b"", f"row {k}: {lines} {partial}"
            assert all(f'"step": {k},'.encode() in line for line in lines)
        for row in rows[4:6]:  # no event yet, so no check: the command waits for more rows
            proc.stdin.write(row.tobytes())
            with selectors.DefaultSelector() as sel:  # neither a line nor end of file
                sel.register(proc.stdout, selectors.EVENT_READ)
                assert not sel.select(0.5)
        proc.stdin.write(rows[6].tobytes())
        assert proc.wait(timeout=20) == 1
        assert proc.stdout.read() == b""
        assert proc.stderr.read().decode() == "error: row 5 sums to 2.000000, not 1\n"
    finally:
        proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            stream.close()


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_a_non_blocking_stdin_waits_for_bytes_not_yet_sent(tmp_path, mode):
    # O_NONBLOCK belongs to the pipe's file description, which the command shares
    # with whoever set it; a read that finds nothing ready is not the end of the stream.
    labels = np.random.default_rng(10).choice(5, 2000, p=[0.6, 0.1, 0.1, 0.1, 0.1])
    data = ctcp(one_hot_rows(labels, 5))
    path = tmp_path / "rows.ctcp"
    path.write_bytes(data)
    command = [sys.executable, "-m", "ctcseg", "segment", "--mode", mode, "-V", "3"]
    expected = subprocess.run(command + ["--input", str(path)], capture_output=True, timeout=60)
    assert expected.returncode == 0 and expected.stdout.count(b"\n") > 2, expected.stderr
    # The writer pauses before the header, inside row 49 and between rows 1000 and 1001.
    cuts = [0, HEADER.size + 48 * 20 + 7, HEADER.size + 1000 * 20, len(data)]
    read_end, write_end = os.pipe()
    os.set_blocking(read_end, False)
    try:
        proc = subprocess.Popen(command + ["--stream"], stdin=read_end,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    finally:
        os.close(read_end)
    try:
        with os.fdopen(write_end, "wb", buffering=0) as writer:
            for start, end in itertools.pairwise(cuts):
                time.sleep(0.3)
                assert proc.poll() is None, proc.stderr.read()
                writer.write(data[start:end])
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert (proc.returncode, stdout, stderr) == (0, expected.stdout, b"")
