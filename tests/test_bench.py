import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

from ctcseg import LabelStream, SegmenterConfig, segment_offline
from ctcseg.cli import main


def test_sixty_second_synthetic_stays_under_real_time(capsys):
    code = main(["bench", "--duration", "60", "--num-labels", "200",
                 "--repeat", "3", "--seed", "2"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["rtf_median"] < 0.2


def test_offline_segmentation_rtf_regression_bound():
    # 600 s of labels at r=4 / 10 ms: 15000 steps through segment_offline alone
    rng = np.random.default_rng(6)
    labels = LabelStream(rng.choice(4, size=15_000, p=[0.7, 0.1, 0.1, 0.1]),
                         blank_id=0)
    cfg = SegmenterConfig(subsample_factor=4, blank_id=0)
    start = time.perf_counter()
    segment_offline(labels, cfg, 60_000)
    assert (time.perf_counter() - start) / 600.0 < 0.01


def test_rtf_is_one_runs_wall_time_over_the_audio_time(monkeypatch, capsys):
    # a clock that advances 0.25 s per reading: each run reads it once before, once after
    monkeypatch.setattr(time, "perf_counter", itertools.count(0.0, 0.25).__next__)
    assert main(["bench", "--duration", "6", "--num-labels", "20", "--repeat", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["audio_sec"] == 6.0
    assert report["rtf_runs"] == [0.25 / 6.0] * 3


def test_explicit_tuned_flags_match_the_defaults(tmp_path, capsys):
    ann = tmp_path / "ann.json"
    ann.write_text('{"duration_sec": 10.0, "regions": [[0.5, 2.0], [4.0, 6.5]]}')
    ctcp = tmp_path / "in.ctcp"
    assert main(["simulate", "--annotation", str(ann), "--output", str(ctcp),
                 "--seed", "3", "--jitter", "1"]) == 0
    capsys.readouterr()
    assert main(["segment", "--input", str(ctcp)]) == 0
    default_out, _ = capsys.readouterr()
    assert main(["segment", "--input", str(ctcp), "-V", "16",
                 "--onset-margin", "2", "--offset-margin", "3"]) == 0
    explicit_out, _ = capsys.readouterr()
    assert explicit_out == default_out
    assert explicit_out != ""


def test_log_level_env_var_controls_stderr(tmp_path):
    ann = tmp_path / "ann.json"
    ann.write_text('{"duration_sec": 2.0, "regions": [[0.5, 1.5]]}')
    out = tmp_path / "out.ctcp"
    argv = [sys.executable, "-m", "ctcseg", "simulate", "--annotation", str(ann),
            "--output", str(out)]
    info = f"INFO ctcseg: wrote 50 steps x 32 labels to {out}\n"
    base = {k: v for k, v in os.environ.items() if k != "CTC_SEG_LOG"}
    # DEBUG, INFO and NOTSET (any case) turn the line on; other values, unknown ones
    # included, leave stderr empty
    for level, stderr in ((None, ""), ("INFO", info), ("debug", info), ("NotSet", info),
                          ("warning", ""), ("basic_format", "")):
        env = base if level is None else {**base, "CTC_SEG_LOG": level}
        done = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert (done.returncode, done.stderr) == (0, stderr), level
