"""Tests of the benchmark itself: inputs, expectations, latency and trace arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import drive
import expect
import inputs
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
SMALL = inputs.Shape(num_steps=1500, num_labels=6, burst_steps=(8, 30), gap_steps=(17, 25),
                     spike_gap_max=3)


def _oracle():
    spec = importlib.util.spec_from_file_location("perfbench_oracle", ROOT / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stream(seed, shape=SMALL):
    rng = inputs.rng_for(seed, "small")
    labels, bursts = inputs.plant_labels(shape, rng)
    return labels, bursts, inputs.ctcp_bytes(labels, shape.num_labels, rng)


def _cli(args, stdin=None):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-m", "ctcseg", *args], input=stdin, env=env,
                          capture_output=True, timeout=60, check=True).stdout


def test_generator_is_deterministic_per_seed_and_differs_across_seeds():
    assert _stream(1)[2] == _stream(1)[2]
    assert _stream(1)[2] != _stream(2)[2]


def test_generated_rows_decode_to_the_planted_labels():
    labels, bursts, data = _stream(3)
    frames = np.frombuffer(data, dtype="<f4", offset=inputs.HEADER_SIZE)
    frames = frames.reshape(-1, SMALL.num_labels)
    assert frames.shape[0] == SMALL.num_steps
    assert np.array_equal(frames.argmax(axis=1), labels)
    assert np.abs(frames.sum(axis=1, dtype=np.float32) - 1.0).max() < 1e-5
    first, last = bursts[0]
    assert labels[first - 1] != inputs.BLANK and labels[last - 1] != inputs.BLANK
    assert (labels[:first - 1] == inputs.BLANK).all()


@pytest.mark.parametrize("shape, bursts", [(inputs.WIDE, 200), (inputs.HOUR, 1200)])
def test_workload_shapes_hold_on_an_unseen_seed(shape, bursts):
    labels, planted = inputs.plant_labels(shape, inputs.rng_for(987_654, "shape"))
    assert labels.size == shape.num_steps
    assert abs(len(planted) - bursts) < bursts * 0.02
    rejected = 1 - len(expect.expected_segments(labels)) / len(planted)
    assert abs(rejected - inputs.REPEAT_SHARE) < 0.08


@pytest.mark.parametrize("seed", range(40))
def test_expectation_matches_the_brute_force_oracle(seed):
    oracle = _oracle()
    rng = np.random.default_rng(seed)
    labels, v, m_s, m_e, r, total = oracle.random_stream_case(rng)
    labels = np.array(labels, dtype=np.int64)
    want = oracle.oracle_segments(labels.tolist(), 0, expect.V, expect.ONSET, expect.OFFSET,
                                  inputs.R, labels.size * inputs.R)
    got = expect.raw_spans(labels, labels.size * inputs.R)
    assert [tuple(s[:4]) for s in got] == want


def test_expectation_matches_the_program_offline_online_and_eval(tmp_path):
    labels, bursts, data = _stream(5)
    segments = expect.expected_segments(labels)
    assert 0 < len(segments) < len(bursts)  # some bursts are rejected
    path = tmp_path / "s.ctcp"
    path.write_bytes(data)
    assert _cli(["segment", "--input", str(path)]) == expect.segments_jsonl(segments).encode()

    out = _cli(["segment", "--stream", "--mode", "online"], stdin=data)
    events = [json.loads(line) for line in out.splitlines()]
    total = labels.size * inputs.R
    assert expect.check_online(events, segments, total) is None
    late = [dict(ev, step=ev["step"] + 1) if ev["event"] == "close" else ev for ev in events]
    assert "not V=" in expect.check_online(late, segments, total)
    assert expect.check_online(events[:-1], segments, total) is not None

    ref = inputs.reference_frames(bursts, inputs.rng_for(5, "ref"))
    ann = tmp_path / "a.json"
    ann.write_text(inputs.annotation_json(ref, SMALL.duration_sec))
    want = expect.expected_eval(segments, ref, total)
    got = _cli(["eval", "--input", str(path), "--ref", str(ann)])
    assert expect.check_eval(got, want) is None
    assert "frame_recall" in expect.check_eval(got, dict(want, frame_recall=0.5))


def test_event_latency_counts_from_the_due_time_of_the_triggering_row():
    feed = drive.Pacer(b"h" * 4 + b"r" * 40, header_size=4, row_bytes=2, rate=1000.0,
                       start_delay_s=0.5)
    feed.start(10.0)  # row k is due at 10.5 + (k - 1) ms
    log = [(10.502, {"event": "open", "step": 1}),
           (10.5101, {"event": "close", "step": 10}),
           (11.0, {"event": "flush", "step": 20})]
    assert drive.event_latencies_ms(log, feed) == pytest.approx([2.0, 1.1])
    assert feed.rows_due(10.4999) == 0
    assert feed.rows_due(10.5) == 1
    assert feed.rows_due(10.5105) == 11
    assert feed.rows_due(99.0) == 20


def test_self_time_subtracts_the_children_it_covers():
    trace = {
        "names": ["root", "a", "b", "leaf"],
        "name_id": np.array([0, 1, 2, 3, 3]),
        "start": np.array([0.0, 1.0, 5.0, 2.0, 6.0]),
        "end": np.array([10.0, 4.0, 7.0, 3.0, 6.5]),
        "parent": np.array([-1, 0, 0, 1, 2]),
    }
    assert tracing.self_times(trace) == pytest.approx(
        {"root": 5.0, "a": 2.0, "b": 1.5, "leaf": 1.5})
    assert tracing.root_seconds(trace) == 10.0


def test_tracing_leaves_output_unchanged_and_restores_the_program():
    import ctcseg
    labels, _, data = _stream(7)
    frames = np.frombuffer(data, dtype="<f4", offset=inputs.HEADER_SIZE)
    frames = frames.reshape(-1, SMALL.num_labels)
    stream = ctcseg.PosteriorStream(frames=frames, frame_shift_ms=10.0, subsample_factor=4)
    cfg = ctcseg.SegmenterConfig(subsample_factor=4)
    before = (ctcseg.segmenter.greedy_decode, ctcseg.OnlineSegmenter.step)
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        segments = ctcseg.segment_posteriors(stream, cfg)
    finally:
        tracing.uninstall(patched)
    assert (ctcseg.segmenter.greedy_decode, ctcseg.OnlineSegmenter.step) == before
    assert [(s.t_start, s.t_end) for s in segments] == expect.expected_segments(labels)
    selfs = tracing.self_times(tracer.arrays())
    assert {"greedy.decode", "segmenter.offline", "segmenter.filter"} <= set(selfs)
    assert tracer.counters["segmenter.kept"] == len(segments)


def test_a_missing_target_or_failed_hook_reads_as_unmeasured(monkeypatch):
    import ctcseg
    monkeypatch.delattr(ctcseg, "greedy_label")
    monkeypatch.setattr(tracing, "_after_filter", lambda tracer, args, kept: kept.nope)
    targets = [(m, p, s, tracing._after_filter if s == "segmenter.filter" else a)
               for m, p, s, a in tracing.TARGETS]
    monkeypatch.setattr(tracing, "TARGETS", targets)
    labels, _, data = _stream(9)
    frames = np.frombuffer(data, dtype="<f4", offset=inputs.HEADER_SIZE)
    stream = ctcseg.PosteriorStream(frames=frames.reshape(-1, SMALL.num_labels),
                                    frame_shift_ms=10.0, subsample_factor=4)
    tracer = tracing.Tracer()
    patched = tracing.install(tracer)
    try:
        ctcseg.segment_posteriors(stream, ctcseg.SegmenterConfig(subsample_factor=4))
    finally:
        tracing.uninstall(patched)
    trace = tracer.arrays()
    assert trace["skipped"] == ["greedy.label"] and trace["lost"] == ["segmenter.filter"]
    op = run.Op(ok=True, cpu_s=1.0, trace=trace)
    metrics = run.layer_metrics([op], [op], [op])
    assert metrics["greedy.label.self_ms"] == (0.0, 0)
    assert metrics["greedy.label.calls"] == (0.0, 0)
    assert metrics["segmenter.kept_ratio"] == (0.0, 0)
    assert metrics["segmenter.filter.self_ms"][1] == 1
    assert metrics["segmenter.raw_segments"][1] == 1


def test_every_printed_metric_is_declared_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer")
                for m in spec[group]}
    assert run.E2E_UNITS.items() <= declared.items()
    assert run.LAYER_UNITS.items() <= declared.items()
    assert set(run.E2E_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.LAYER_UNITS) == {m["name"] for m in spec["per_layer"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}

    op = run.Op(ok=True, wall_s=1.0, cpu_s=0.5, rss_mb=10.0, latencies_ms=[1.0, 2.0],
                gen_lag_ms=np.array([0.1]))
    wl = run.WORKLOADS["file-offline-wide"](ROOT, {})
    assert set(run.e2e_metrics(wl, [op], [op])) == set(run.E2E_UNITS)
    assert set(run.layer_metrics([op], [op], [op])) == set(run.LAYER_UNITS)
