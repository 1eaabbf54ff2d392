"""Traced stand-in for ``python -m fal_spectrum``.

    python perfbench/child.py SPANS_JSON ARGV...

Imports the package as ``-m`` would, installs the span wrappers, runs the
CLI on ARGV and writes the spans, with the interpreter-start and import
timestamps, to SPANS_JSON.  Exit code, stdout and stderr are the CLI's own.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

import fal_spectrum  # noqa: E402,F401  (the package import that -m performs)
from fal_spectrum import cli  # noqa: E402

IMPORTED = time.monotonic()

import spans  # noqa: E402


def main() -> int:
    recorder = spans.Recorder()
    spans.install(recorder)
    try:
        return cli.main(sys.argv[2:])
    finally:
        recorder.dump(sys.argv[1], started=STARTED, imported=IMPORTED)


if __name__ == "__main__":
    raise SystemExit(main())
