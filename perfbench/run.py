"""ctcseg benchmark: posteriors in, segments out, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing needs installing. Inputs are generated from --seed by
inputs.py. Every operation's output is checked against an expectation
computed from the planted labels; a nonzero exit, a timeout or a wrong
output counts as a failed operation.

Workloads (r=4, 10 ms frames, so one row is 40 ms of audio):

  file-offline-wide      `segment --input F`, 600 s x 3000 labels, a
                         180 MB file, ~200 segments. Ingest-bound: row
                         reads, stacking and validation dominate.
  stdin-online-paced     `segment --stream --mode online`, 1 h x 32
                         labels fed open-loop over a pipe at 20,000
                         rows/s. Per-row path and event latency.
  eval-hour              `eval --input F --ref A` on the 1 h stream and its
                         ~1,200-region annotation. The only run of evaluate.

An in-process library workload (4 h of short, dense segments) is left
out: on a 2-vCPU KVM guest its medians moved by up to 29% between runs,
more than any bound can absorb.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a separate traced run (tracing.py). The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are the environment record and a table with units and sample counts.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter as clock

import numpy as np

import drive
import expect
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench-work"

PACED_RATE = 20_000  # rows/s: 800x real time, about 1/5 of the closed-loop rate
START_DELAY_S = 1.0  # first paced row is due this long after launch
SETUP_REPEATS = 9
IMPORT_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "e2e_rtf": "s/s",
    "cpu_rtf": "s/s",
    "peak_rss_mb": "MB",
    "event_latency_p50_ms": "ms",
    "event_latency_p90_ms": "ms",
}
LAYER_UNITS = {
    "ctcseg.import_ms": "ms",
    **{metric: "ms" for metric in tracing.SPANS.values()},
    "io.rows.wait_ms": "ms",
    "io.rows.count": "count",
    "io.bytes_read": "bytes",
    "greedy.nonblank_ratio": "ratio",
    "greedy.label.calls": "count",
    "segmenter.raw_segments": "count",
    "segmenter.kept_ratio": "ratio",
    "segmenter.step.calls": "count",
    "segmenter.events": "count",
    "io.output_bytes": "bytes",
    "evaluate.pairs_hxr": "count",
    "bench.gen_lag_p99_ms": "ms",
    "bench.event_latency_p99_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}


@dataclasses.dataclass
class Op:
    """One attempted operation: a launch of the CLI."""

    ok: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    latencies_ms: list[float] = dataclasses.field(default_factory=list)
    gen_lag_ms: np.ndarray = dataclasses.field(default_factory=lambda: np.empty(0))
    trace: dict | None = None
    error: str = ""


class Workload:
    """Drives `python -m ctcseg ARGS` as a child process.

    A workload generates its inputs and expectations in prepare(seed);
    setup() launches its command on a zero-row stream, op(traced) runs
    it once on the real input, and shape() describes the input.
    """

    name = ""
    audio_sec = 0.0

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env

    def cli(self, args: list[str], *, feed=None,
            traced: bool = False) -> tuple[drive.ChildRun, dict | None]:
        spans = self.work / f"spans-{self.name}.npz"
        if traced:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "ctcseg", *args]
        run = drive.run_child(argv, env=self.env, cwd=str(ROOT),
                              stderr_path=str(self.work / "stderr.txt"),
                              feed=feed)
        trace = None
        if traced and spans.exists():
            trace = tracing.load(str(spans))
            spans.unlink()
        return run, trace

    def finish(self, run: drive.ChildRun, error: str | None, latencies: list[float],
               trace: dict | None = None) -> Op:
        """The Op of a finished child; a timeout or a nonzero exit outranks `error`."""
        if run.timed_out:
            error = f"timed out after {drive.TIMEOUT_S} s"
        elif run.code != 0:
            stderr = (self.work / "stderr.txt").read_text(errors="replace").strip()
            error = f"exit {run.code}: {stderr[-500:]}"
        return Op(ok=error is None, wall_s=run.wall_s, cpu_s=run.cpu_s, rss_mb=run.maxrss_mb,
                  latencies_ms=latencies, gen_lag_ms=run.gen_lag_s * 1000.0, trace=trace,
                  error=error or "")


def _offline_latencies(run: drive.ChildRun) -> list[float]:
    """Offline output depends on the whole input, all of it due at launch."""
    return [(t - run.t_launch) * 1000.0 for t, _ in run.lines]


class FileOfflineWide(Workload):
    name = "file-offline-wide"
    audio_sec = inputs.WIDE.duration_sec

    def prepare(self, seed):
        rng = inputs.rng_for(seed, "wide")
        self.labels, self.bursts = inputs.plant_labels(inputs.WIDE, rng)
        self.path = self.work / "wide.ctcp"
        inputs.write_ctcp(self.path, self.labels, inputs.WIDE.num_labels, rng)
        self.zero = self.work / "wide-0.ctcp"
        self.zero.write_bytes(inputs.ctcp_header(0, inputs.WIDE.num_labels))
        self.segments = expect.expected_segments(self.labels)
        self.expected = expect.segments_jsonl(self.segments).encode()

    def setup(self):
        run, _ = self.cli(["segment", "--input", str(self.zero)])
        return self.finish(run, None if run.stdout == b"" else "output on a zero-row stream", [])

    def op(self, traced):
        run, trace = self.cli(["segment", "--input", str(self.path)], traced=traced)
        error = None if run.stdout == self.expected else "offline output differs from expected"
        return self.finish(run, error, _offline_latencies(run), trace)

    def shape(self):
        return _shape(inputs.WIDE, self.labels, self.bursts, self.segments)


class StdinOnlinePaced(Workload):
    name = "stdin-online-paced"
    audio_sec = inputs.HOUR.duration_sec
    args = ["segment", "--stream", "--mode", "online"]

    def prepare(self, seed):
        rng = inputs.rng_for(seed, "hour")
        self.labels, self.bursts = inputs.plant_labels(inputs.HOUR, rng)
        self.data = inputs.ctcp_bytes(self.labels, inputs.HOUR.num_labels, rng)
        self.segments = expect.expected_segments(self.labels)

    def pacer(self, data: bytes, delay: float) -> drive.Pacer:
        return drive.Pacer(data, inputs.HEADER_SIZE, inputs.HOUR.num_labels * 4,
                           PACED_RATE, delay)

    def setup(self):
        header = inputs.ctcp_header(0, inputs.HOUR.num_labels)
        run, _ = self.cli(self.args, feed=self.pacer(header, 0.0))
        return self.finish(run, None if run.stdout == b"" else "output on a zero-row stream", [])

    def op(self, traced):
        feed = self.pacer(self.data, START_DELAY_S)
        run, trace = self.cli(self.args, feed=feed, traced=traced)
        try:
            events = [(t, json.loads(line)) for t, line in run.lines]
            error = expect.check_online([ev for _, ev in events], self.segments,
                                        self.labels.size * inputs.R)
            latencies = drive.event_latencies_ms(events, feed)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return self.finish(run, f"unreadable event stream: {exc!r}", [], trace)
        return self.finish(run, error, latencies, trace)

    def shape(self):
        return _shape(inputs.HOUR, self.labels, self.bursts, self.segments)


class EvalHour(Workload):
    name = "eval-hour"
    audio_sec = inputs.HOUR.duration_sec

    def prepare(self, seed):
        rng = inputs.rng_for(seed, "hour")  # the stdin-online-paced stream
        self.labels, self.bursts = inputs.plant_labels(inputs.HOUR, rng)
        self.path = self.work / "hour.ctcp"
        inputs.write_ctcp(self.path, self.labels, inputs.HOUR.num_labels, rng)
        ref = inputs.reference_frames(self.bursts, inputs.rng_for(seed, "hour-ref"))
        self.ref = self.work / "hour.json"
        self.ref.write_text(inputs.annotation_json(ref, inputs.HOUR.duration_sec))
        self.zero = self.work / "hour-0.ctcp"
        self.zero.write_bytes(inputs.ctcp_header(0, inputs.HOUR.num_labels))
        self.zero_ref = self.work / "hour-0.json"
        self.zero_ref.write_text(inputs.annotation_json([], inputs.STEP_SEC / 2))
        self.segments = expect.expected_segments(self.labels)
        total = self.labels.size * inputs.R
        self.expected = expect.expected_eval(self.segments, ref, total)
        self.zero_expected = expect.expected_eval([], [], 0)

    def setup(self):
        run, _ = self.cli(["eval", "--input", str(self.zero), "--ref", str(self.zero_ref)])
        return self.finish(run, expect.check_eval(run.stdout, self.zero_expected), [])

    def op(self, traced):
        run, trace = self.cli(["eval", "--input", str(self.path), "--ref", str(self.ref)],
                              traced=traced)
        error = expect.check_eval(run.stdout, self.expected)
        return self.finish(run, error, _offline_latencies(run), trace)

    def shape(self):
        return {**_shape(inputs.HOUR, self.labels, self.bursts, self.segments),
                "ref_regions": len(self.bursts)}


WORKLOADS = {w.name: w for w in (FileOfflineWide, StdinOnlinePaced, EvalHour)}


def _shape(shape: inputs.Shape, labels, bursts, segments) -> dict:
    return {"rows": int(labels.size), "labels": shape.num_labels, "audio_s": shape.duration_sec,
            "bursts": len(bursts), "segments": len(segments),
            "rejected_share": round(1 - len(segments) / len(bursts), 4) if bursts else 0.0}


# --- measurement ----------------------------------------------------------

def timed_loop(seconds: float, fn, setup=None) -> tuple[list[Op], list[Op]]:
    """Repeat fn for about `seconds`, at least once.

    No operation starts that would end more than half an operation past
    the deadline, so a run of long operations does not overrun by one.
    SETUP_REPEATS calls of `setup` are spread evenly between the
    operations, so both sample the same stretch of a machine whose speed
    drifts from one second to the next.
    """
    ops: list[Op] = []
    setups: list[Op] = []
    start = clock()
    while True:
        ops.append(fn())
        share = min(1.0, (clock() - start) / seconds) if seconds > 0 else 1.0
        while setup and len(setups) < round(SETUP_REPEATS * share):
            setups.append(setup())
        elapsed = clock() - start
        if elapsed * (1 + 0.5 / len(ops)) >= seconds:
            break
    while setup and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return ops, setups


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def e2e_metrics(wl: Workload, setups: list[Op], ops: list[Op]) -> dict:
    """Medians across operations; a latency percentile is taken per operation first.

    The sample count of a latency is the number of lines behind it.
    """
    good = [o for o in ops if o.ok]
    lines = sum(len(o.latencies_ms) for o in good)

    def latency(q):
        return median([percentile(o.latencies_ms, q) for o in good if o.latencies_ms]), lines

    return {
        "setup_s": (median([o.wall_s for o in setups if o.ok]), len(setups)),
        "e2e_rtf": (median([o.wall_s for o in good]) / wl.audio_sec, len(good)),
        "cpu_rtf": (median([o.cpu_s for o in good]) / wl.audio_sec, len(good)),
        "peak_rss_mb": (median([o.rss_mb for o in good]), len(good)),
        "event_latency_p50_ms": latency(50),
        "event_latency_p90_ms": latency(90),
    }


def import_ms(env: dict, work: Path) -> list[Op]:
    code = ("import time; t = time.perf_counter(); import ctcseg; "
            "print(repr((time.perf_counter() - t) * 1000.0))")
    ops = []
    for _ in range(IMPORT_REPEATS):
        run = drive.run_child([sys.executable, "-c", code], env=env, cwd=str(ROOT),
                              stderr_path=str(work / "stderr.txt"))
        try:
            value = float(run.stdout)
        except ValueError:
            value = 0.0
        ops.append(Op(ok=run.code == 0 and value > 0, wall_s=value / 1000.0,
                      error="" if run.code == 0 else f"import exited {run.code}"))
    return ops


# Per-layer counter metric -> the span whose wrapper or hook feeds it.
COUNTER_SPANS = {
    "io.rows.wait_ms": "io.rows",
    "io.rows.count": "io.rows",
    "io.bytes_read": "io.rows",
    "greedy.nonblank_ratio": "greedy.decode",
    "greedy.label.calls": "greedy.label",
    "segmenter.raw_segments": "segmenter.offline",
    "segmenter.kept_ratio": "segmenter.filter",
    "segmenter.step.calls": "segmenter.step",
    "segmenter.events": "segmenter.step",
    "io.output_bytes": "io.write_segments",
    "evaluate.pairs_hxr": "evaluate",
}


def traced_row(trace: dict) -> dict:
    """Per-layer metrics of one traced operation.

    A metric whose span was not found, or whose counter hook failed, is
    left out, so it is reported as unmeasured instead of as zero.
    """
    selfs = tracing.self_times(trace)
    c = trace["counters"]
    row = {metric: selfs.get(span, 0.0) * 1000.0 for span, metric in tracing.SPANS.items()}
    row.update({
        "io.rows.wait_ms": (selfs.get("io.rows", 0.0) - c.get("io.rows.busy_s", 0.0)) * 1000.0,
        "io.rows.count": c.get("io.rows.count", 0),
        "io.bytes_read": c.get("io.bytes_read", 0),
        "greedy.nonblank_ratio": _ratio(c.get("greedy.nonblank", 0), c.get("greedy.steps", 0)),
        "greedy.label.calls": c.get("greedy.label.calls", 0),
        "segmenter.raw_segments": c.get("segmenter.raw_segments", 0),
        "segmenter.kept_ratio": _ratio(c.get("segmenter.kept", 0),
                                       c.get("segmenter.filter_in", 0)),
        "segmenter.step.calls": c.get("segmenter.step.calls", 0),
        "segmenter.events": c.get("segmenter.events", 0),
        "io.output_bytes": c.get("io.output_bytes", 0),
        "evaluate.pairs_hxr": c.get("evaluate.pairs_hxr", 0),
    })
    missing = set(trace["skipped"])
    lost = missing | set(trace["lost"])
    for span, metric in tracing.SPANS.items():
        if span in missing:
            row.pop(metric)
    for metric, span in COUNTER_SPANS.items():
        if span in lost:
            row.pop(metric)
    return row


def layer_metrics(imports: list[Op], plain: list[Op], traced: list[Op]) -> dict:
    """Medians across traced operations, each with the number of operations behind it."""
    rows = [traced_row(o.trace) for o in traced if o.ok and o.trace]
    good_plain = [o for o in plain if o.ok]
    good_traced = [o for o in traced if o.ok]
    lat = [x for o in good_plain for x in o.latencies_ms]
    lags = np.concatenate([o.gen_lag_ms for o in good_plain] or [np.empty(0)])
    out = {"ctcseg.import_ms": (median([o.wall_s * 1000.0 for o in imports if o.ok]),
                                len(imports))}
    for metric in [*tracing.SPANS.values(), *COUNTER_SPANS]:
        values = [row[metric] for row in rows if metric in row]
        out[metric] = (median(values), len(values))
    out["bench.gen_lag_p99_ms"] = (percentile(lags, 99), len(lags))
    out["bench.event_latency_p99_ms"] = (percentile(lat, 99), len(lat))
    out["bench.trace_overhead_ratio"] = (
        _ratio(median([o.cpu_s for o in good_traced]), median([o.cpu_s for o in good_plain])),
        len(good_traced))
    return {metric: out[metric] for metric in LAYER_UNITS}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def coverage_note(traced: list[Op], plain: list[Op]) -> str:
    """How much of the traced operation the layer self times account for."""
    shares = []
    for o in traced:
        if o.ok and o.trace:
            selfs = tracing.self_times(o.trace)
            layers = sum(v for k, v in selfs.items() if k != "cli.main")
            shares.append((layers, tracing.root_seconds(o.trace)))
    if not shares:
        return "no traced operation succeeded"
    layers, root = (median(x) for x in zip(*shares))
    wall = median([o.wall_s for o in plain if o.ok])
    skipped = sorted({s for o in traced if o.trace for s in o.trace["skipped"]})
    lost = sorted({s for o in traced if o.trace for s in o.trace["lost"]})
    return (f"layer self times {layers * 1000:.1f} ms = {_ratio(layers, root):.1%} of the "
            f"cli.main span ({root * 1000:.1f} ms); untraced op wall {wall * 1000:.1f} ms; "
            f"targets not found: {', '.join(skipped) or 'none'}; "
            f"counters lost: {', '.join(lost) or 'none'}")


# --- reporting ------------------------------------------------------------

def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "commit": commit, "seed": seed, "paced_rate_rows_per_s": PACED_RATE,
            "page_cache": "warm: inputs are written just before use and the cache is "
                          "not dropped (dropping it needs privileges the benchmark lacks)"}


def report(metrics: dict, units: dict) -> dict:
    print(f"{'metric':<28} {'value':>14} {'unit':<6} samples")
    for name, (value, n) in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]:<6} {n}")
    return {name: {"value": value, "unit": units[name]} for name, (value, _) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ctcseg" / "__init__.py").is_file():
        print(f"error: no ctcseg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("CTC_SEG_LOG", None)

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = WORKLOADS[args.workload](work, env)
        t = clock()
        wl.prepare(args.seed)
        print("env", json.dumps(environment(args.seed)))
        print("workload", args.workload, json.dumps(wl.shape()),
              f"generated in {clock() - t:.2f} s")
        warmup = [wl.setup()]  # byte-compiles src/ before anything is timed
        if args.trace:
            imports = import_ms(env, work)
            plain, _ = timed_loop(args.seconds / 2, lambda: wl.op(traced=False))
            traced, _ = timed_loop(args.seconds / 2, lambda: wl.op(traced=True))
            metrics = layer_metrics(imports, plain, traced)
            ops = warmup + imports + plain + traced
            print("trace:", coverage_note(traced, plain))
            units = LAYER_UNITS
        else:
            timed, setups = timed_loop(args.seconds, lambda: wl.op(traced=False), wl.setup)
            metrics = e2e_metrics(wl, setups, timed)
            ops = warmup + setups + timed
            units = E2E_UNITS
        failed = [o for o in ops if not o.ok]
        for o in failed[:5]:
            print("failed:", o.error)
        result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
                  "metrics": report(metrics, units)}
        print(f"{'fail_ratio':<28} {len(failed) / len(ops):>14.6g} {'-':<6} {len(ops)}")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
