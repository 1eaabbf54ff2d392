"""What a cold command-line run imports, and the package's lazy exports.

Each run is a fresh interpreter started with ``-S``, so no site hook
preloads modules, and with the package's source directory on PYTHONPATH.
The golden invocations come from ``golden/corpus.json``, and their output
must match the recorded bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fal_spectrum

SRC = str(Path(fal_spectrum.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).parent / "golden"
CORPUS = json.loads((GOLDEN / "corpus.json").read_text(encoding="utf-8"))

# runs the package as -m does, then lists sys.modules on stderr's last line
_MODULES_AFTER_RUN = """
import runpy, sys
code = 0
try:
    runpy.run_module("fal_spectrum", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(" ".join(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""
_CONSOLE_SCRIPT = "import sys; from fal_spectrum.cli import main; sys.exit(main())"


def _golden(index):
    case = CORPUS[index]
    return [arg.replace("{catalog}", str(GOLDEN / "catalog.json")) for arg in case["argv"]], case


def _python(*args):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, env=env, timeout=120)


def _modules_after(argv):
    proc = _python("-c", _MODULES_AFTER_RUN, *argv)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout, set(proc.stderr.decode().splitlines()[-1].split())


def test_constants_imports_only_numerics():
    stdout, modules = _modules_after(["constants"])
    assert stdout.decode() == CORPUS[0]["stdout"]
    assert "fal_spectrum.numerics" in modules
    absent = {"dataclasses", "inspect", "json", "csv"} | {
        f"fal_spectrum.{layer}" for layer in ("catalog", "calculus", "approx", "bounds")
    }
    assert modules & absent == set()


@pytest.mark.parametrize("index", [27, 13], ids=["scan", "approximate"])
def test_a_table_run_imports_neither_dataclasses_nor_csv(index):
    argv, case = _golden(index)
    assert case["argv"][0] in ("scan", "approximate") and "csv" not in argv and "json" not in argv
    stdout, modules = _modules_after(argv)
    assert stdout.decode() == case["stdout"]
    assert modules & {"dataclasses", "inspect", "csv"} == set()


@pytest.mark.parametrize(
    "argv", [["certify", "--density", "5.5"], ["classify", "--density", "9"], ["bounds", "--a", "5"]], ids=lambda a: a[0]
)
def test_a_decimal_query_imports_neither_catalog_nor_calculus(argv):
    stdout, modules = _modules_after(argv)
    assert stdout and "fal_spectrum.bounds" in modules
    assert modules & {"fal_spectrum.catalog", "fal_spectrum.calculus"} == set()


@pytest.mark.parametrize("index", [0, 26], ids=["constants", "scan"])
def test_console_script_prints_the_same_bytes_as_dash_m(index):
    argv, case = _golden(index)
    as_module = _python("-m", "fal_spectrum", *argv)
    as_script = _python("-c", _CONSOLE_SCRIPT, *argv)
    assert as_module.returncode == as_script.returncode == 0
    assert as_module.stdout == as_script.stdout == case["stdout"].encode()


def test_every_export_resolves_and_is_listed():
    listing = dir(fal_spectrum)
    for name in fal_spectrum.__all__:
        assert getattr(fal_spectrum, name) is not None
        assert name in listing
    for layer in ("numerics", "catalog", "calculus", "approx", "bounds", "errors"):
        assert getattr(fal_spectrum, layer).__name__ == f"fal_spectrum.{layer}"
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        fal_spectrum.nope


def test_an_export_is_its_layers_own_object():
    from fal_spectrum import bounds, calculus, numerics

    assert fal_spectrum.spectrum_scan is bounds.spectrum_scan
    assert fal_spectrum.Composition is calculus.Composition
    assert fal_spectrum.PrecisionContext is numerics.PrecisionContext
