"""Start-up: synthesis, emission and the ``synth`` command run without
numpy, and the package loads ``fpsynt.simulator`` on first use of one of
its names."""

import json
import subprocess
import sys
from pathlib import Path

import fpsynt
import fpsynt.simulator
from fpsynt.cli import main

from conftest import FIR4_SRC, child_env

# Runs in a child whose numpy import raises ImportError; prints the API's
# artifacts for FIR-4 as JSON, then runs ``fpsynt synth`` on argv[1].
_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # a later "import numpy" raises ImportError
import fpsynt, fpsynt.cli
spec, outdir = sys.argv[1:3]
plan = fpsynt.synthesize(open(spec).read())
artifacts = {"c": fpsynt.emit_c(plan, name="fir4").source,
             "vhdl": fpsynt.emit_vhdl(plan, name="fir4").source,
             "report": fpsynt.report_json(plan),
             "summary": fpsynt.summary_table(plan)}
rc = fpsynt.cli.main(["synth", spec, "-o", outdir])
artifacts["simulator_loaded"] = "fpsynt.simulator" in sys.modules
print(json.dumps(artifacts))
sys.exit(rc)
"""


def _outputs(outdir) -> dict:
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def test_synthesis_and_synth_command_run_without_numpy(tmp_path, capsys):
    """With numpy unimportable, the API's synthesis and emission and the
    ``synth`` command exit 0 with the artifacts of a run that has numpy."""
    spec = tmp_path / "fir4.fps"
    spec.write_text(FIR4_SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, str(spec), str(tmp_path / "child")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    summary, line = proc.stdout.rsplit("\n", 2)[:2]
    child = json.loads(line)
    assert child.pop("simulator_loaded") is False
    plan = fpsynt.synthesize(FIR4_SRC)
    assert child == {"c": fpsynt.emit_c(plan, name="fir4").source,
                     "vhdl": fpsynt.emit_vhdl(plan, name="fir4").source,
                     "report": fpsynt.report_json(plan),
                     "summary": fpsynt.summary_table(plan)}
    assert main(["synth", str(spec), "-o", str(tmp_path / "parent")]) == 0
    assert summary + "\n" == capsys.readouterr().out
    assert _outputs(tmp_path / "child") == _outputs(tmp_path / "parent")
    assert {Path(name).suffix for name in _outputs(tmp_path / "child")} == {".c", ".vhd", ".json"}


def test_simulate_without_numpy_exits_1(tmp_path):
    """With numpy unimportable, ``fpsynt simulate`` ends in exit 1 and one
    ``fpsynt:`` line, with no traceback and no file written."""
    spec = tmp_path / "fir4.fps"
    spec.write_text(FIR4_SRC)
    script = ('import sys; sys.modules["numpy"] = None; import fpsynt.cli; '
              'sys.exit(fpsynt.cli.main(sys.argv[1:]))')
    proc = subprocess.run(
        [sys.executable, "-c", script, "simulate", str(spec), "-o", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("fpsynt: simulate needs numpy: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr, proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == [spec]


def test_importing_the_cli_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, fpsynt.cli; "
         "print('numpy' in sys.modules, 'fpsynt.simulator' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n"


# Runs in a child: the simulator's names load fpsynt.simulator on first use,
# as the same objects, through attribute access and "from fpsynt import".
_LAZY_NAMES = """
import sys
import fpsynt
assert "fpsynt.simulator" not in sys.modules and "numpy" not in sys.modules
assert set(fpsynt._SIMULATOR_NAMES) <= set(dir(fpsynt))
from fpsynt import compare, load_vectors_csv
import fpsynt.simulator as sim
assert compare is sim.compare and load_vectors_csv is sim.load_vectors_csv
for name in fpsynt._SIMULATOR_NAMES:
    assert getattr(fpsynt, name) is getattr(sim, name), name
    exec(f"from fpsynt import {name} as got")
    assert got is getattr(sim, name), name
    assert name in vars(fpsynt), name  # stored: later lookups are plain reads
print("ok")
"""


# A name set before the simulator loads is kept when another name loads it.
_SET_BEFORE_LOAD = """
import fpsynt
fpsynt.compare = len
assert fpsynt.run_fixed.__module__ == "fpsynt.simulator" and fpsynt.compare is len
print("ok")
"""


def test_simulator_names_load_on_first_use():
    for script in (_LAZY_NAMES, _SET_BEFORE_LOAD):
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"


def test_simulator_names_are_the_simulators_own():
    """In this process too each name is ``fpsynt.simulator``'s object, a
    caller may replace and restore one (as a tracer does), and an unknown
    name is still an AttributeError."""
    assert fpsynt._SIMULATOR_NAMES == (
        "ErrorStats", "TestVector", "VectorSet", "compare", "generate_vectors",
        "load_vectors_csv", "run_fixed", "run_fixed_columns", "run_reference_columns",
        "save_vectors_csv")
    for name in fpsynt._SIMULATOR_NAMES:
        assert getattr(fpsynt, name) is getattr(fpsynt.simulator, name)
    original = fpsynt.compare
    try:
        fpsynt.compare = len
        assert fpsynt.compare is len
    finally:
        fpsynt.compare = original
    assert fpsynt.compare is fpsynt.simulator.compare
    try:
        fpsynt.no_such_name
    except AttributeError as e:
        assert "no_such_name" in str(e)
    else:
        raise AssertionError("fpsynt.no_such_name resolved")
