"""Run the ctcseg CLI with its layers traced.

    python3 perfbench/trace_child.py SPANS.npz segment --input F ...

Same arguments and output as `python -m ctcseg`; the spans go to SPANS.npz.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import ctcseg.cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        return ctcseg.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
