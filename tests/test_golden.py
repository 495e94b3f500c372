"""Golden bytes: the CLI's stdout, stderr and exit code on one hand-built stream.

The stream (r=2, 43 steps) holds, under GOLDEN_FLAGS["merge"], two parts that
merge, a long one-label segment the length filter rejects and a segment still
open at the end (a flush). Under GOLDEN_FLAGS["clip"] that last segment closes
on the last step with an offset margin past the stream, so its span is clipped.

Regenerate golden_cli.json only for an intended output change:
    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import sys
from pathlib import Path

import pytest

from ctcseg import write_posteriors
from ctcseg.cli import main

from conftest import FakeStdin, stream_from_labels

GOLDEN = Path(__file__).with_name("golden_cli.json")

GOLDEN_LABELS = ([0, 0, 1, 1, 2] + [0] * 4 + [3, 3] + [0] * 6 + [1] * 12 + [0] * 8
                 + [2, 0, 3] + [0] * 3)
GOLDEN_FLAGS = {
    "merge": ["-V", "4", "--onset-margin", "2", "--offset-margin", "3"],
    "clip": ["-V", "3", "--onset-margin", "1", "--offset-margin", "5"],
}
# 43 steps x r=2 x 10 ms = 0.86 s
GOLDEN_REF = {"duration_sec": 0.86, "regions": [[0.04, 0.24], [0.7, 0.86]]}


def _cases():
    """Case id -> (argv with {ctcp}/{ref} placeholders, whether stdin carries the stream)."""
    cases = {}
    for name, flags in GOLDEN_FLAGS.items():
        for source in ("input", "stream"):
            src = ["--input", "{ctcp}"] if source == "input" else ["--stream"]
            for fmt in ("jsonl", "ctm", "tsv"):
                cases[f"segment-offline-{fmt}-{source}-{name}"] = (
                    ["segment", *src, "--format", fmt, *flags], source == "stream")
            cases[f"segment-online-{source}-{name}"] = (
                ["segment", *src, "--mode", "online", *flags], source == "stream")
        cases[f"eval-{name}"] = (["eval", "--input", "{ctcp}", "--ref", "{ref}", *flags], False)
    return cases


def _write_inputs(directory: Path) -> dict:
    paths = {"ctcp": directory / "golden.ctcp", "ref": directory / "golden.json"}
    write_posteriors(stream_from_labels(GOLDEN_LABELS, 4, subsample_factor=2), paths["ctcp"])
    paths["ref"].write_text(json.dumps(GOLDEN_REF))
    return paths


def _run(argv, stdin_stream, paths, capture):
    """(exit code, stdout, stderr) of one in-process run; capture() returns (out, err)."""
    saved = sys.stdin
    if stdin_stream:
        sys.stdin = FakeStdin(paths["ctcp"].read_bytes())
    try:
        code = main([arg.format(**paths) for arg in argv])
    finally:
        sys.stdin = saved
    out, err = capture()
    return [code, out, err]


@pytest.mark.parametrize("case", sorted(_cases()))
def test_cli_output_matches_golden(case, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    argv, stdin_stream = _cases()[case]
    paths = _write_inputs(tmp_path)
    assert _run(argv, stdin_stream, paths, capsys.readouterr) == golden[case]


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_output_file_holds_the_golden_stdout(mode, tmp_path, capsys):
    golden = json.loads(GOLDEN.read_text())
    paths = _write_inputs(tmp_path)
    out_path = tmp_path / "out.txt"
    argv = ["segment", "--input", "{ctcp}", "--mode", mode, *GOLDEN_FLAGS["merge"],
            "--output", str(out_path)]
    assert _run(argv, False, paths, capsys.readouterr) == [0, "", ""]
    key = "segment-offline-jsonl-input-merge" if mode == "offline" else \
        "segment-online-input-merge"
    assert out_path.read_bytes() == golden[key][1].encode()


def test_golden_stream_has_every_feature():
    """Guard the fixture: each feature it is meant to pin shows in the golden output."""
    golden = json.loads(GOLDEN.read_text())
    online = [json.loads(line) for line in golden["segment-online-input-merge"][1].splitlines()]
    offline = golden["segment-offline-jsonl-input-merge"][1].splitlines()
    closed = [e for e in online if e["event"] != "open"]
    assert closed[-1]["event"] == "flush"
    assert len(closed) == 4 and len(offline) == 2  # one merge, one rejection
    clip = [json.loads(line) for line in golden["segment-online-input-clip"][1].splitlines()]
    assert clip[-1]["event"] == "close" and clip[-1]["t_end"] > 86
    assert json.loads(golden["segment-offline-jsonl-input-clip"][1].splitlines()[-1])["t_end"] == 86


if __name__ == "__main__":
    import contextlib
    import tempfile

    def capture():
        """Return and clear what one run wrote to the redirected stdout and stderr."""
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        for stream in (sys.stdout, sys.stderr):
            stream.seek(0)
            stream.truncate()
        return out, err

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        paths = _write_inputs(Path(tmp))
        golden = {case: _run(argv, stdin_stream, paths, capture)
                  for case, (argv, stdin_stream) in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}")
