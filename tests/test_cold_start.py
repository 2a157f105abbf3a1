"""Start-up loads only what runs: each case starts a fresh interpreter and
lists the galoiskit modules it has imported.  No case loads ``dataclasses``,
whose import alone costs more than most layers."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(path.stem for path in (SRC / "galoiskit").glob("*.py") if path.stem != "__init__")

# Runs the CLI on argv with its output discarded, then prints the exit code
# and the loaded layers; "dataclasses" stands for that module if loaded.
CLI_PROBE = """
import contextlib, io, json, sys
from galoiskit.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as e:
        code = e.code
loaded = [m.split(".")[1] for m in sys.modules if m.startswith("galoiskit.")]
print(json.dumps([code, loaded + ["dataclasses"] * ("dataclasses" in sys.modules)]))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def exit_and_loaded(*argv):
    code, loaded = json.loads(run_python(CLI_PROBE, *argv))
    return code, set(loaded)


def loaded_by(*argv):
    return exit_and_loaded(*argv)[1]


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
    assert loaded & (absent | {"dataclasses"}) == set()


# inputs whose verdict comes from Frobenius cycle types alone: S5 and S6
@pytest.mark.parametrize("poly", ["x^5-x-1", "x^6+x+1"])
def test_certified_verdict_loads_no_field_layer(poly):
    code, loaded = exit_and_loaded("solvable", poly)
    assert code == 0
    assert {"radical", "permgroup", "qfactor"} <= loaded
    assert loaded & {"numfield", "galois", "splitting", "modscreen", "dataclasses"} == set()


# x^5-x-1 has splitting degree 120, refused under the default cap of 64
@pytest.mark.parametrize("argv", [
    ["group", "x^5-x-1"],
    ["minpoly", "x^5-x-1", "--element", "r1"],
    ["fixed", "x^5-x-1", "--subgroup", "1"],
], ids=lambda v: v[0])
def test_cap_refusal_loads_no_field_layer(argv):
    code, loaded = exit_and_loaded(*argv)
    assert code == 3
    assert loaded & {"numfield", "galois", "radical", "dataclasses"} == set()


def test_verdict_without_certificate_loads_the_field_layers():
    # x^4-2 (group D4) has no cycle-type certificate, so the group is built
    code, loaded = exit_and_loaded("solvable", "x^4-2")
    assert code == 0
    assert {"numfield", "galois", "splitting"} <= loaded
    assert "dataclasses" not in loaded


def test_solvable_loads_radical():
    # the probe sees a layer that a command does load
    assert "radical" in loaded_by("solvable", "x^5-x-1")


@pytest.mark.parametrize("module", ["__init__", *MODULES])
def test_each_module_imports_alone(module):
    # a fresh interpreter, so no earlier import can hide a circular one
    name = "galoiskit" if module == "__init__" else f"galoiskit.{module}"
    assert run_python(f"import sys, {name}; print('dataclasses' in sys.modules)").strip() == "False"


# Prints the stdlib extension modules (shared libraries under lib-dynload)
# loaded after start-up, and after the CLI ran on argv when one is given; it
# imports nothing that could load one itself.
EXTENSION_PROBE = """
import sys
if sys.argv[1:]:
    import contextlib, io
    from galoiskit.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            main(sys.argv[1:])
        except SystemExit:
            pass
print(sorted(name for name, module in sys.modules.items()
             if "lib-dynload" in (getattr(module, "__file__", None) or "")))
"""


def extensions_loaded(*argv):
    return set(ast.literal_eval(run_python(EXTENSION_PROBE, *argv)))


# Beyond start-up, every command loads only the accelerators of json (the
# CLI) and of decimal with its contextvars (fractions imports decimal).  The
# modular kernel reads packed slots through memoryview and packs them with
# struct, which start-up already loads; a kernel that pulled in another
# module, such as array, would show here before it moved peak memory.
@pytest.mark.parametrize("argv", [
    ["factor", "x^4-1"],
    ["factor", "x^12-3*x^6+5*x^4-1"],
    ["split", "x^3-2"],
    ["split", "x^4+x+1"],
    ["solvable", "x^5-x-1"],
    ["solvable", "x^4-2"],
], ids=" ".join)
def test_command_extension_modules(argv):
    assert extensions_loaded(*argv) - extensions_loaded() == {"_contextvars", "_decimal", "_json"}
