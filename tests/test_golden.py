"""Golden corpus: every CLI invocation in ``golden/corpus.json`` must
reproduce its recorded exit code and stdout byte for byte.

The corpus locks the command line's observable behaviour across
refactors.  ``{catalog}`` in an argv stands for the committed fixture
``golden/catalog.json``.  After an intended output change, rewrite the
recorded results with ``python tests/test_golden.py`` (with ``src`` on
``PYTHONPATH``) and review the diff.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from fal_spectrum.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.json"


def run(argv):
    """(exit code, stdout) of one in-process invocation."""
    argv = [arg.replace("{catalog}", str(GOLDEN / "catalog.json")) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _load():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", [pytest.param(case, id=f"{i:02d}-{case['argv'][0]}") for i, case in enumerate(_load())]
)
def test_golden_invocation(case):
    code, stdout = run(case["argv"])
    assert code == case["exit"]
    assert stdout == case["stdout"]


if __name__ == "__main__":
    cases = []
    for case in _load():
        code, stdout = run(case["argv"])
        cases.append({"argv": case["argv"], "exit": code, "stdout": stdout})
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
