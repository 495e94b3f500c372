import io
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from ctcseg import (BadMagic, FormatError, InvalidConfig, PosteriorReader, PosteriorStream,
                    RowSumViolation, SegmenterConfig, TruncatedFile,
                    VersionMismatch, filter_short_segments, greedy_label, read_annotation,
                    read_posterior_file, read_wav_mono, OnlineSegmenter, Segment,
                    segment_posteriors, segments_from_events, write_posteriors,
                    write_segments)

from conftest import FIG1_LABELS, FIG1_NUM_LABELS, stream_from_labels

HEADER = struct.Struct("<4sHBBIIIfI")


def pack_header(magic=b"CTCP", version=1, flags=1, reserved=0, num_frames=0,
                num_labels=2, blank_id=0, frame_shift_ms=10.0, subsample_factor=1):
    return HEADER.pack(magic, version, flags, reserved, num_frames, num_labels,
                       blank_id, frame_shift_ms, subsample_factor)


def pack_rows(rows):
    return np.asarray(rows, dtype="<f4").tobytes()


class TestHeaderLayout:
    def test_writer_emits_the_documented_layout(self):
        stream = PosteriorStream(frames=np.array([[0.25, 0.75]], dtype=np.float32),
                                 frame_shift_ms=10.0, subsample_factor=4, blank_id=1)
        buf = io.BytesIO()
        write_posteriors(stream, buf)
        expected = pack_header(num_frames=1, num_labels=2, blank_id=1,
                               subsample_factor=4) + pack_rows([[0.25, 0.75]])
        assert buf.getvalue() == expected

    def test_presoftmax_clears_the_probability_flag(self):
        stream = PosteriorStream(frames=np.array([[3.0, -1.0]], dtype=np.float32),
                                 presoftmax=True)
        buf = io.BytesIO()
        write_posteriors(stream, buf)
        assert buf.getvalue()[6] == 0

    def test_header_is_28_bytes(self):
        assert HEADER.size == 28


class TestReadErrors:
    def test_minimal_valid_file(self, tmp_path):
        path = tmp_path / "min.ctcp"
        path.write_bytes(pack_header(num_frames=1) + pack_rows([[0.4, 0.6]]))
        stream = read_posterior_file(path)
        assert stream.num_steps == 1
        assert stream.num_labels == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ctcp"
        path.write_bytes(pack_header(magic=b"XXXX", num_frames=0))
        with pytest.raises(BadMagic):
            read_posterior_file(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v2.ctcp"
        path.write_bytes(pack_header(version=2))
        with pytest.raises(VersionMismatch):
            read_posterior_file(path)

    def test_truncated_names_the_missing_row(self, tmp_path):
        rows = [[0.5, 0.5]] * 9
        path = tmp_path / "trunc.ctcp"
        path.write_bytes(pack_header(num_frames=10) + pack_rows(rows))
        with pytest.raises(TruncatedFile, match="row 10"):
            read_posterior_file(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.ctcp"
        path.write_bytes(b"CTCP\x01")
        with pytest.raises(TruncatedFile, match="header"):
            read_posterior_file(path)

    def test_row_sum_violation_names_the_row(self, tmp_path):
        rows = [[0.5, 0.5], [0.9, 0.3]]
        path = tmp_path / "sums.ctcp"
        path.write_bytes(pack_header(num_frames=2) + pack_rows(rows))
        with pytest.raises(RowSumViolation, match="row 2"):
            read_posterior_file(path)

    def test_presoftmax_rows_are_not_sum_checked(self, tmp_path):
        rows = [[5.0, -2.0]]
        path = tmp_path / "scores.ctcp"
        path.write_bytes(pack_header(flags=0, num_frames=1) + pack_rows(rows))
        stream = read_posterior_file(path)
        assert stream.presoftmax is True

    def test_header_sanity(self, tmp_path):
        path = tmp_path / "zero_labels.ctcp"
        path.write_bytes(pack_header(num_labels=0))
        with pytest.raises(FormatError):
            read_posterior_file(path)
        path.write_bytes(pack_header(num_labels=2, blank_id=5))
        with pytest.raises(FormatError):
            read_posterior_file(path)


class TestRoundTrip:
    def test_presoftmax_floats_bit_exact(self):
        rng = np.random.default_rng(404)
        frames = rng.normal(scale=30.0, size=(37, 11)).astype(np.float32)
        # The rows come back bit-exactly; the shift as the header's f32 holds it.
        for shift, read_shift in [(12.5, 12.5), (33.3, float(np.float32(33.3)))]:
            stream = PosteriorStream(frames=frames, frame_shift_ms=shift,
                                     subsample_factor=3, blank_id=7, presoftmax=True)
            buf = io.BytesIO()
            write_posteriors(stream, buf)
            buf.seek(0)
            back = PosteriorReader(buf).to_stream()
            assert back.frames.tobytes() == frames.tobytes()
            assert back.frame_shift_ms == read_shift
            assert back.subsample_factor == 3
            assert back.blank_id == 7
            assert back.presoftmax is True

    def test_2_32_rows_are_refused_before_a_byte_is_written(self, tmp_path):
        # A stand-in, so that no 16 GiB of rows are allocated.
        huge = SimpleNamespace(num_steps=2**32, num_labels=2, blank_id=0, frame_shift_ms=10.0,
                               subsample_factor=1, presoftmax=False,
                               frames=np.empty((0, 2), dtype=np.float32))
        sink = io.BytesIO()
        with pytest.raises(InvalidConfig, match=r"^num_frames must be in \[0, 2\*\*32\)"):
            write_posteriors(huge, sink)
        assert sink.getvalue() == b""
        with pytest.raises(InvalidConfig, match="num_frames"):
            write_posteriors(huge, tmp_path / "huge.ctcp")
        assert not (tmp_path / "huge.ctcp").exists()

    def test_probability_stream_file_round_trip(self, tmp_path):
        stream = stream_from_labels(FIG1_LABELS, FIG1_NUM_LABELS, subsample_factor=2)
        path = tmp_path / "probs.ctcp"
        write_posteriors(stream, path)
        back = read_posterior_file(path)
        assert np.array_equal(back.frames, stream.frames)

    def test_largest_u32_subsample_factor_round_trips(self):
        stream = stream_from_labels(FIG1_LABELS, FIG1_NUM_LABELS, subsample_factor=2**32 - 1)
        sink = io.BytesIO()
        write_posteriors(stream, sink)
        back = PosteriorReader(io.BytesIO(sink.getvalue())).to_stream()
        assert back.subsample_factor == 2**32 - 1
        assert back.total_feature_frames == len(FIG1_LABELS) * (2**32 - 1)
        assert np.array_equal(back.frames, stream.frames)

    def test_empty_stream_round_trip(self, tmp_path):
        stream = PosteriorStream(frames=np.empty((0, 5), dtype=np.float32))
        path = tmp_path / "empty.ctcp"
        write_posteriors(stream, path)
        back = read_posterior_file(path)
        assert back.num_steps == 0
        assert back.num_labels == 5


class _ChunkyPipe:
    """Delivers bytes in tiny chunks to mimic pipe reads."""

    def __init__(self, data, chunk=3):
        self._buf = io.BytesIO(data)
        self._chunk = chunk

    def read(self, n):
        return self._buf.read(min(n, self._chunk))


class TestStreaming:
    def test_rows_arrive_incrementally(self):
        data = pack_header(num_frames=3) + pack_rows([[0.5, 0.5], [0.4, 0.6], [1.0, 0.0]])
        reader = PosteriorReader(_ChunkyPipe(data))
        rows = list(reader.rows())
        assert len(rows) == 3
        assert rows[2].tolist() == [1.0, 0.0]

    def test_header_only_finishes_cleanly(self):
        reader = PosteriorReader(io.BytesIO(pack_header(num_frames=0)))
        assert list(reader.rows()) == []
        assert reader.to_stream().num_steps == 0

    def test_midstream_error_after_yielding_prior_rows(self):
        # corrupt one byte of row 2 so its sum breaks while row 1 stays valid
        rows = pack_rows([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
        corrupted = bytearray(pack_header(num_frames=3) + rows)
        corrupted[28 + 8 + 3] ^= 0x40  # exponent byte of row 2's first float
        reader = PosteriorReader(io.BytesIO(bytes(corrupted)))
        it = reader.rows()
        assert next(it).tolist() == [0.5, 0.5]
        with pytest.raises(RowSumViolation, match="row 2"):
            next(it)

    def test_midstream_truncation(self):
        data = pack_header(num_frames=2) + pack_rows([[0.5, 0.5]]) + b"\x00\x00"
        it = PosteriorReader(io.BytesIO(data)).rows()
        next(it)
        with pytest.raises(TruncatedFile, match="row 2"):
            next(it)

    def test_trailing_bytes_after_declared_rows_are_left_alone(self):
        data = pack_header(num_frames=1) + pack_rows([[0.5, 0.5]]) + b"EXTRA"
        buf = io.BytesIO(data)
        assert len(list(PosteriorReader(buf).rows())) == 1
        assert buf.read() == b"EXTRA"

    def test_streamed_bytes_match_whole_file_segmentation(self, tmp_path):
        stream = stream_from_labels(FIG1_LABELS, FIG1_NUM_LABELS, subsample_factor=2)
        path = tmp_path / "fig1.ctcp"
        write_posteriors(stream, path)
        cfg = SegmenterConfig(v_threshold=4, onset_margin=1, offset_margin=2,
                              subsample_factor=2, blank_id=0, min_len_ratio=0.1)
        with open(path, "rb") as f:
            reader = PosteriorReader(_ChunkyPipe(f.read(), chunk=5))
            online = OnlineSegmenter(cfg, frame_shift_ms=reader.frame_shift_ms)
            events = []
            for row in reader.rows():
                events += online.step(greedy_label(row))
            total = reader.num_frames * reader.subsample_factor
            events += online.finish(total)
        rebuilt = filter_short_segments(segments_from_events(events, cfg, total), cfg)
        assert rebuilt == segment_posteriors(read_posterior_file(path), cfg)


class TestWriteSegments:
    SEGMENTS = [
        Segment(index=1, k_first_nonblank=3, k_last_nonblank=6, t_start=4, t_end=16),
        Segment(index=2, k_first_nonblank=12, k_last_nonblank=13, t_start=22, t_end=28),
    ]

    def test_jsonl_golden_bytes(self):
        buf = io.StringIO()
        write_segments(self.SEGMENTS[:1], "jsonl", buf)
        assert buf.getvalue() == (
            '{"index": 1, "t_start": 4, "t_end": 16, '
            '"start_sec": 0.040000, "end_sec": 0.160000}\n'
        )

    def test_jsonl_lines_parse_and_stay_ordered(self):
        buf = io.StringIO()
        write_segments(self.SEGMENTS, "jsonl", buf)
        lines = buf.getvalue().splitlines()
        assert [json.loads(l)["index"] for l in lines] == [1, 2]

    def test_empty_list_writes_nothing(self):
        buf = io.StringIO()
        write_segments([], "jsonl", buf)
        assert buf.getvalue() == ""

    def test_tsv(self):
        buf = io.StringIO()
        write_segments(self.SEGMENTS, "tsv", buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "index\tt_start\tt_end\tstart_sec\tend_sec"
        assert lines[1] == "1\t4\t16\t0.040000\t0.160000"

    def test_ctm(self):
        buf = io.StringIO()
        write_segments(self.SEGMENTS[:1], "ctm", buf)
        assert buf.getvalue() == "utt 1 0.040000 0.120000 speech\n"

    def test_byte_stable_across_runs(self):
        a, b = io.StringIO(), io.StringIO()
        write_segments(self.SEGMENTS, "jsonl", a)
        write_segments(self.SEGMENTS, "jsonl", b)
        assert a.getvalue() == b.getvalue()

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            write_segments(self.SEGMENTS, "xml", io.StringIO())

    def test_sink_errors_propagate(self):
        class Broken:
            def write(self, _):
                raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_segments(self.SEGMENTS, "jsonl", Broken())


class TestAnnotationsAndWav:
    def test_read_annotation(self, write_annotation):
        path = write_annotation([(0.5, 1.5), (2.0, 2.5)], 3.0)
        ref = read_annotation(path, label_alphabet_size=10)
        assert ref.speech_regions == ((0.5, 1.5), (2.0, 2.5))
        assert ref.total_duration_sec == 3.0
        assert ref.label_alphabet_size == 10

    def test_malformed_annotation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"regions": [[0, 1]]}')
        with pytest.raises(ValueError):
            read_annotation(path)

    def test_wav_round_trip(self, write_wav):
        samples = np.sin(np.linspace(0, 40 * np.pi, 16000)) * 0.5
        path = write_wav(samples, sample_rate=16000)
        back, rate = read_wav_mono(path)
        assert rate == 16000
        assert back.shape == (16000,)
        assert np.abs(back - samples).max() < 1e-3

    def test_wav_must_be_mono_16bit(self, tmp_path):
        import wave
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00\x00" * 32)
        with pytest.raises(FormatError):
            read_wav_mono(path)
