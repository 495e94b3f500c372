"""The lazy package and the CLI's imports, each checked in a fresh interpreter."""

import json
import os
import struct
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ctcseg

# A zero-row CTCP stream: 4 labels, blank 0, 10 ms frames, r = 4.
ZERO_ROWS = struct.pack("<4sHBBIIIfI", b"CTCP", 1, 1, 0, 0, 4, 0, 10.0, 4)


def fresh(code: str, **env) -> dict:
    """Run `code` in a new interpreter without OPENBLAS_NUM_THREADS; returns its JSON line."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env={**base, **env}, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def zero_pair(tmp_path):
    ctcp = tmp_path / "zero.ctcp"
    ctcp.write_bytes(ZERO_ROWS)
    ref = tmp_path / "zero.json"
    ref.write_text(json.dumps({"duration_sec": 0.02, "regions": []}))
    return str(ctcp), str(ref)


def test_all_is_derived_from_the_export_table():
    names = [n for names in ctcseg._EXPORTS.values() for n in names]
    assert len(names) == len(set(names))
    assert ctcseg.__all__ == sorted(names)


def test_import_loads_no_numpy():
    out = fresh("""
        import json, sys
        import ctcseg
        probes = [hasattr(ctcseg, n) for n in ("__wrapped__", "cli", "no_such_name")]
        print(json.dumps({"numpy": "numpy" in sys.modules, "probes": probes,
                          "modules": sorted(m for m in sys.modules if m.startswith("ctcseg"))}))
    """)
    assert out == {"numpy": False, "probes": [False, False, False], "modules": ["ctcseg"]}


def test_every_public_name_resolves_and_is_listed():
    out = fresh("""
        import json
        import ctcseg
        listed = set(dir(ctcseg))
        missing = [n for n in ctcseg.__all__ if getattr(ctcseg, n, None) is None]
        print(json.dumps({"unlisted_before": sorted(set(ctcseg.__all__) - listed),
                          "unlisted_after": sorted(set(ctcseg.__all__) - set(dir(ctcseg))),
                          "missing": missing,
                          "lazy_hooks_left": [h for h in ("__getattr__", "__dir__")
                                              if h in vars(ctcseg)]}))
    """)
    assert out == {"unlisted_before": [], "unlisted_after": [], "missing": [],
                   "lazy_hooks_left": []}


def test_submodules_loaded_first_do_not_shadow_public_functions(zero_pair):
    ctcp, ref = zero_pair
    out = fresh(f"""
        import inspect, json
        import ctcseg.cli
        code = ctcseg.cli.main(["eval", "--input", {ctcp!r}, "--ref", {ref!r}])
        import ctcseg.energy, ctcseg.scoring
        print(json.dumps({{"code": code,
                          "evaluate": inspect.isfunction(ctcseg.evaluate),
                          "energy_vad": inspect.isfunction(ctcseg.energy_vad)}}))
    """)
    assert out == {"code": 0, "evaluate": True, "energy_vad": True}


def test_segment_imports_only_what_it_needs(zero_pair):
    ctcp, _ = zero_pair
    out = fresh(f"""
        import json, sys
        import ctcseg.cli
        code = ctcseg.cli.main(["segment", "--input", {ctcp!r}])
        print(json.dumps({{"code": code,
                          "modules": sorted(m for m in sys.modules if m.startswith("ctcseg")),
                          "stdlib": [m for m in ("logging", "statistics", "wave")
                                     if m in sys.modules]}}))
    """)
    assert out == {"code": 0, "stdlib": [],
                   "modules": ["ctcseg", "ctcseg.cli", "ctcseg.core", "ctcseg.errors",
                               "ctcseg.greedy", "ctcseg.io", "ctcseg.segmenter"]}


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_cli_runs_with_one_thread():
    out = fresh("""
        import json, os
        import ctcseg.cli
        print(json.dumps({"threads": len(os.listdir("/proc/self/task"))}))
    """)
    assert out == {"threads": 1}


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("3", "3")])
def test_cli_defaults_blas_threads_unless_the_caller_set_them(caller, expected):
    env = {} if caller is None else {"OPENBLAS_NUM_THREADS": caller}
    out = fresh("""
        import json, os
        import ctcseg.cli
        print(json.dumps({"value": os.environ.get("OPENBLAS_NUM_THREADS")}))
    """, **env)
    assert out == {"value": expected}


def test_library_leaves_the_environment_alone():
    out = fresh("""
        import json, os
        import numpy as np
        import ctcseg
        frames = np.full((8, 2), 0.5, dtype=np.float32)
        frames[2:4] = [0.1, 0.9]
        stream = ctcseg.PosteriorStream(frames=frames, frame_shift_ms=10.0, subsample_factor=1)
        segments = ctcseg.segment_posteriors(stream, ctcseg.SegmenterConfig(subsample_factor=1))
        print(json.dumps({"segments": len(segments),
                          "set": "OPENBLAS_NUM_THREADS" in os.environ}))
    """)
    assert out == {"segments": 1, "set": False}


def test_a_failing_hypothesis_test_does_not_stop_the_suite(tmp_path):
    # Reporting a failing example imports libcst -> mypy_extensions, which warns
    # DeprecationWarning; the suite's warning filters must not turn that into an error.
    (tmp_path / "test_demo.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    done = subprocess.run([sys.executable, "-m", "pytest", "-c", str(pyproject), "-q",
                           "-p", "no:cacheprovider", str(tmp_path / "test_demo.py")],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
