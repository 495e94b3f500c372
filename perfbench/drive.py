"""Child processes: launch, feed, time and reap.

One thread drives each child with `selectors`: non-blocking writes of
the input bytes to its stdin, on a fixed open-loop schedule when paced,
and timestamped reads of its stdout lines. The child is reaped with
os.wait4, which gives its CPU time and peak resident set size.
"""

from __future__ import annotations

import os
import selectors
import subprocess
from dataclasses import dataclass, field
from time import perf_counter as clock

import numpy as np

# The scheduler wakes at least this often to write the rows that fell due.
TICK_S = 0.0002
# A child still running this long after launch is killed and counts as failed.
TIMEOUT_S = 120.0


@dataclass
class ChildRun:
    code: int
    stdout: bytes
    lines: list[tuple[float, bytes]]  # (read time, line without newline)
    t_launch: float
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    timed_out: bool = False
    gen_lag_s: np.ndarray = field(default_factory=lambda: np.empty(0))


class Pacer:
    """Open-loop feed of a CTCP byte stream: the header at launch, then row k
    at t0 + (k - 1) / rate, where t0 = launch + start_delay_s.

    The delay lets the interpreter start before the first row is due, so
    start-up does not land on the first events' latency; setup_s measures
    start-up on its own.
    """

    def __init__(self, data: bytes, header_size: int, row_bytes: int,
                 rate: float, start_delay_s: float):
        self.view = memoryview(data)
        self.header_size = header_size
        self.row_bytes = row_bytes
        self.num_rows = (len(data) - header_size) // row_bytes if row_bytes else 0
        self.rate = rate
        self.start_delay_s = start_delay_s
        self.sent = 0
        self.t0 = 0.0
        self._lags: list[np.ndarray] = []

    def start(self, t_launch: float) -> None:
        self.t0 = t_launch + self.start_delay_s

    @property
    def done(self) -> bool:
        return self.sent == len(self.view)

    def due(self, step) -> float:
        """Time row `step` (1-based) is due; works on arrays too."""
        return self.t0 + (step - 1) / self.rate

    def rows_due(self, now: float) -> int:
        if now < self.t0:
            return 0
        return min(self.num_rows, int((now - self.t0) * self.rate) + 1)

    def pump(self, fd: int, now: float) -> bool:
        """Write what is due and fits in the pipe; True if due bytes are left."""
        limit = self.header_size + self.rows_due(now) * self.row_bytes
        if self.sent < limit:
            try:
                n = os.write(fd, self.view[self.sent:limit])
            except BlockingIOError:
                n = 0
            if n:
                t = clock()
                before = self._rows_in(self.sent)
                self.sent += n
                after = self._rows_in(self.sent)
                if after > before:
                    self._lags.append(t - self.due(np.arange(before + 1, after + 1)))
        return self.sent < limit

    def wait_s(self, now: float) -> float:
        """How long the feeding loop may sleep before the next row falls due."""
        if self.rows_due(now) >= self.num_rows:
            return 0.0
        return max(TICK_S, self.due(self.rows_due(now) + 1) - now)

    def _rows_in(self, nbytes: int) -> int:
        if nbytes <= self.header_size or not self.row_bytes:
            return 0
        return (nbytes - self.header_size) // self.row_bytes

    def lags(self) -> np.ndarray:
        return np.concatenate(self._lags) if self._lags else np.empty(0)


def run_child(argv: list[str], *, env: dict, cwd: str, stderr_path: str,
              feed: Pacer | None = None) -> ChildRun:
    """Run argv to exit, feeding stdin from `feed` (or /dev/null)."""
    with open(stderr_path, "wb") as err:
        t_launch = clock()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE if feed else subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd)
    lines: list[tuple[float, bytes]] = []
    chunks: list[bytes] = []
    partial = b""
    timed_out = False
    sel = selectors.SelectSelector()
    out_fd = proc.stdout.fileno()
    os.set_blocking(out_fd, False)
    sel.register(out_fd, selectors.EVENT_READ)
    in_fd = None
    if feed:
        in_fd = proc.stdin.fileno()
        os.set_blocking(in_fd, False)
        feed.start(t_launch)
    deadline = t_launch + TIMEOUT_S
    try:
        reading = True
        while reading:
            now = clock()
            if now > deadline:
                timed_out = True
                break
            wait = deadline - now
            if in_fd is not None:
                try:
                    backlog = feed.pump(in_fd, now)
                except BrokenPipeError:
                    backlog, feed.sent = False, len(feed.view)
                if feed.done:
                    _drop(sel, in_fd)
                    proc.stdin.close()
                    in_fd = None
                elif backlog:
                    _watch(sel, in_fd)
                else:
                    _drop(sel, in_fd)
                    wait = min(wait, feed.wait_s(clock()))
            for key, _ in sel.select(wait):
                if key.fd != out_fd:
                    continue
                data = os.read(out_fd, 1 << 16)
                t = clock()
                if not data:
                    reading = False
                    break
                chunks.append(data)
                parts = (partial + data).split(b"\n")
                partial = parts.pop()
                lines.extend((t, line) for line in parts)
    finally:
        sel.close()
        if in_fd is not None:
            proc.stdin.close()
        if timed_out or reading:
            proc.kill()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        t_exit = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode, stdout=b"".join(chunks), lines=lines, t_launch=t_launch,
        wall_s=t_exit - t_launch, cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0, timed_out=timed_out,
        gen_lag_s=feed.lags() if feed else np.empty(0),
    )


def _watch(sel: selectors.BaseSelector, fd: int) -> None:
    try:
        sel.get_key(fd)
    except KeyError:
        sel.register(fd, selectors.EVENT_WRITE)


def _drop(sel: selectors.BaseSelector, fd: int) -> None:
    try:
        sel.unregister(fd)
    except KeyError:
        pass


def event_latencies_ms(lines: list[tuple[float, dict]], feed: Pacer) -> list[float]:
    """Read time of each open/close event minus the time its row was due."""
    return [(t - feed.due(ev["step"])) * 1000.0 for t, ev in lines
            if ev.get("event") in ("open", "close")]
