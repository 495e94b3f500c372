"""Expected outputs, computed from the planted labels, and the output checks.

This is the benchmark's own statement of the segmentation rule, written
against the README rather than against ctcseg's code: cut the step axis
at interior blank runs of at least V steps, widen each anchor span by the
onset/offset margins, clip, merge spans that share a frame, and reject a
segment whose collapsed transcript is at most ALPHA times its widened
length. The benchmark's tests compare it with tests/oracle.py.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import BLANK, FRAME_SHIFT_MS, R

V = 16
ONSET = 2
OFFSET = 3
ALPHA = 0.1


def raw_spans(labels: np.ndarray, total_frames: int) -> list[list[int]]:
    """Merged spans [k_first, k_last, t_start, t_end, transcript_len] before the filter."""
    nonblank = np.flatnonzero(labels != BLANK) + 1
    if nonblank.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(nonblank) - 1 >= V)
    firsts = nonblank[np.concatenate(([0], cuts + 1))]
    lasts = nonblank[np.concatenate((cuts, [nonblank.size - 1]))]
    prev = np.concatenate(([BLANK], labels[:-1]))
    tokens = np.concatenate(([0], np.cumsum((labels != BLANK) & (labels != prev))))
    spans: list[list[int]] = []
    for kf, kl in zip(firsts.tolist(), lasts.tolist()):
        t_start = max(1, R * (kf - ONSET))
        t_end = min(total_frames, R * (kl + OFFSET))
        n = int(tokens[kl] - tokens[kf - 1])
        spans.append([kf, kl, t_start, t_end, n])
    return merge(spans)


def merge(spans: list[list[int]]) -> list[list[int]]:
    """Merge neighbours whose frame spans share a frame; transcript lengths add."""
    out: list[list[int]] = []
    for kf, kl, ts, te, n in spans:
        if out and ts <= out[-1][3]:
            out[-1][1] = kl
            out[-1][3] = max(out[-1][3], te)
            out[-1][4] += n
        else:
            out.append([kf, kl, ts, te, n])
    return out


def kept(spans: list[list[int]]) -> list[tuple[int, int]]:
    """(t_start, t_end) of the spans the length filter keeps."""
    return [(ts, te) for _, _, ts, te, n in spans
            if n / math.ceil((te - ts + 1) / R) > ALPHA]


def expected_segments(labels: np.ndarray) -> list[tuple[int, int]]:
    return kept(raw_spans(labels, labels.size * R))


def segments_jsonl(segments: list[tuple[int, int]]) -> str:
    """Offline jsonl output, byte for byte."""
    sec = FRAME_SHIFT_MS / 1000.0
    return "".join(
        f'{{"index": {i}, "t_start": {ts}, "t_end": {te}, '
        f'"start_sec": {ts * sec:.6f}, "end_sec": {te * sec:.6f}}}\n'
        for i, (ts, te) in enumerate(segments, start=1)
    )


def check_online(events: list[dict], expected: list[tuple[int, int]],
                 total_frames: int) -> str | None:
    """None if the online event stream is right, else what is wrong.

    Segments rebuilt from close/flush events must equal the offline
    expectation, and each close must fire exactly V steps after k_last.
    """
    spans = []
    opened: dict[int, int] = {}
    for ev in events:
        kind = ev.get("event")
        if kind == "open":
            opened[ev["index"]] = ev["t_start"]
            continue
        if kind not in ("close", "flush"):
            return f"unknown event {ev!r}"
        if kind == "close" and ev["step"] != ev["k_last"] + V:
            return f"close at step {ev['step']} is not V={V} steps after k_last {ev['k_last']}"
        if opened.pop(ev["index"], None) != ev["t_start"]:
            return f"{kind} for segment {ev['index']} has no matching open"
        spans.append([ev["k_first"], ev["k_last"], ev["t_start"],
                      min(ev["t_end"], total_frames), ev["transcript_len"]])
    if opened:
        return f"{len(opened)} segments opened but never closed"
    got = kept(merge(spans))
    if got != expected:
        return f"rebuilt {len(got)} segments, expected {len(expected)}; first differing " \
               f"{next(((g, e) for g, e in zip(got, expected) if g != e), None)}"
    return None


def expected_eval(hyp: list[tuple[int, int]], ref: list[tuple[int, int]],
                  total_frames: int) -> dict:
    """Frame-level scores and boundary error of hyp against ref, 1-based frames."""
    hyp = [(a, min(b, total_frames)) for a, b in hyp]
    ref = [(max(1, a), min(b, total_frames)) for a, b in ref if max(1, a) <= min(b, total_frames)]
    hyp_mask = _mask(hyp, total_frames)
    ref_mask = _mask(ref, total_frames)
    n_hyp, n_ref = int(hyp_mask.sum()), int(ref_mask.sum())
    n_hit = int((hyp_mask & ref_mask).sum())
    p = n_hit / n_hyp if n_hyp else float(n_ref == 0)
    r = n_hit / n_ref if n_ref else float(n_hyp == 0)
    f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return {"frame_precision": p, "frame_recall": r, "frame_f1": f1,
            "boundary_mae_frames": _boundary_mae(hyp, ref),
            "n_hyp_segments": len(hyp), "n_ref_segments": len(ref)}


def check_eval(stdout: bytes, expected: dict) -> str | None:
    """None if the eval report matches `expected`, else what differs."""
    try:
        got = json.loads(stdout)
        for key, want in expected.items():
            if not math.isclose(got[key], want, rel_tol=1e-9, abs_tol=1e-12):
                return f"eval {key} = {got[key]!r}, expected {want!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"eval output unreadable: {exc!r}"
    return None


def _mask(spans: list[tuple[int, int]], total_frames: int) -> np.ndarray:
    mask = np.zeros(total_frames + 1, dtype=bool)
    for a, b in spans:
        mask[a:b + 1] = True
    return mask


def _boundary_mae(hyp: list[tuple[int, int]], ref: list[tuple[int, int]]) -> float:
    """Greedy one-to-one matching, largest overlap first, ties by (hyp, ref) index.

    Both lists are sorted and disjoint, so a two-pointer sweep finds every
    overlapping pair.
    """
    pairs = []
    i = j = 0
    while i < len(hyp) and j < len(ref):
        overlap = min(hyp[i][1], ref[j][1]) - max(hyp[i][0], ref[j][0]) + 1
        if overlap > 0:
            pairs.append((-overlap, i, j))
        if hyp[i][1] < ref[j][1]:
            i += 1
        else:
            j += 1
    pairs.sort()
    used_h, used_r, errors = set(), set(), []
    for _, i, j in pairs:
        if i in used_h or j in used_r:
            continue
        used_h.add(i)
        used_r.add(j)
        errors.append((abs(hyp[i][0] - ref[j][0]) + abs(hyp[i][1] - ref[j][1])) / 2.0)
    return float(np.mean(errors)) if errors else 0.0
