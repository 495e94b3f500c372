"""Independent brute-force reference for blank-run segmentation.

Deliberately written as a different algorithm from the package: it
enumerates maximal blank runs with itertools.groupby, marks interior
runs of length >= V as separators, cuts the step axis there, and only
then applies margin/clip/merge arithmetic. Keep this file free of
imports from ctcseg.segmenter internals so the two routes stay
independent.
"""

from itertools import groupby


def ctc_collapse(labels, blank_id):
    """Merge consecutive duplicate labels, then drop blanks."""
    out = []
    prev = None
    for lab in labels:
        lab = int(lab)
        if lab != prev and lab != blank_id:
            out.append(lab)
        prev = lab
    return out


def label_runs(labels, blank_id):
    """Maximal runs as (is_blank, start_k, end_k) with 1-based inclusive steps."""
    runs = []
    k = 1
    for is_blank, grp in groupby(labels, key=lambda lab: lab == blank_id):
        n = len(list(grp))
        runs.append((is_blank, k, k + n - 1))
        k += n
    return runs


def oracle_anchor_spans(labels, blank_id, v_threshold):
    """(k_first, k_last) non-blank anchor spans after cutting at blank runs >= V."""
    runs = label_runs(labels, blank_id)
    chunks = [[]]
    for is_blank, a, b in runs:
        if is_blank and (b - a + 1) >= v_threshold:
            chunks.append([])
        else:
            chunks[-1].append((is_blank, a, b))
    spans = []
    for chunk in chunks:
        nonblank = [(a, b) for is_blank, a, b in chunk if not is_blank]
        if nonblank:
            spans.append((nonblank[0][0], nonblank[-1][1]))
    return spans


def oracle_segments(labels, blank_id, v_threshold, onset_margin, offset_margin,
                    subsample_factor, total_feature_frames):
    """Final merged feature spans [(k_first, k_last, t_start, t_end), ...]."""
    r = subsample_factor
    expanded = []
    for ks, ke in oracle_anchor_spans(labels, blank_id, v_threshold):
        ts = max(1, r * (ks - onset_margin))
        te = min(total_feature_frames, r * (ke + offset_margin))
        expanded.append([ks, ke, ts, te])
    merged = []
    for span in expanded:
        if merged and span[2] <= merged[-1][3]:  # shares at least one frame
            merged[-1][1] = span[1]
            merged[-1][3] = max(merged[-1][3], span[3])
        else:
            merged.append(span)
    return [tuple(m) for m in merged]


def random_stream_case(rng, max_steps=200):
    """One randomized (labels, params) case for equivalence sweeps."""
    num_steps = int(rng.integers(0, max_steps + 1))
    num_labels = int(rng.integers(2, 7))
    blank_weight = float(rng.uniform(0.3, 0.95))
    p = [blank_weight] + [(1.0 - blank_weight) / (num_labels - 1)] * (num_labels - 1)
    labels = [int(x) for x in rng.choice(num_labels, size=num_steps, p=p)]
    v = int(rng.integers(1, 9))
    m_s = int(rng.integers(0, 5))
    m_e = int(rng.integers(0, 5))
    r = int(rng.choice([1, 2, 4]))
    total = r * num_steps + int(rng.integers(0, r))
    return labels, v, m_s, m_e, r, total
