"""Start-up loads only what runs: each case starts a fresh interpreter and
lists the galoiskit modules it has imported."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "galoiskit").glob("*.py") if path.stem != "__init__")

# Runs the CLI on argv with its output discarded, then prints the loaded layers.
CLI_PROBE = """
import contextlib, io, json, sys
from galoiskit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps([m.split(".")[1] for m in sys.modules if m.startswith("galoiskit.")]))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(*argv):
    return set(json.loads(run_python(CLI_PROBE, *argv)))


def test_modules_found():
    assert {"cli", "errors", "radical"} <= set(MODULES)


def test_import_galoiskit_loads_no_layer():
    code = "import sys, galoiskit; print([m for m in sys.modules if m.startswith('galoiskit.')])"
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize("argv, absent", [
    (["--version"], {"numfield", "qfactor", "linalg", "splitting", "galois", "permgroup",
                     "modscreen", "radical"}),
    (["factor", "x^4-1"], {"numfield", "splitting", "galois", "permgroup", "radical"}),
    (["split", "x^3-2"], {"galois", "radical"}),
    (["group", "x^3-2"], {"radical"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_command_loads_only_its_layers(argv, absent):
    loaded = loaded_by(*argv)
    assert "cli" in loaded
    assert loaded & absent == set()


def test_solvable_loads_radical():
    # the probe sees a layer that a command does load
    assert "radical" in loaded_by("solvable", "x^5-x-1")


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_each_module_imports_alone(module):
    # a fresh interpreter, so no earlier import can hide a circular one
    name = "galoiskit" if module == "__init__" else f"galoiskit.{module}"
    run_python(f"import {name}")
