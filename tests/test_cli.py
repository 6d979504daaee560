"""Command-line driver: pipeline order, exit codes, file outputs."""

import json
import subprocess
import sys
import time

import pytest

from fpsynt.cli import main

from conftest import FIR4_SRC, MIXED_CHAINS_SRC, child_env, make_sum_src

BAD_SRC = "input x : sif(1/0/15)\noutput y = x;\n"  # missing semicolon


@pytest.fixture
def fir4_spec(tmp_path):
    path = tmp_path / "fir4.fps"
    path.write_text(FIR4_SRC)
    return path


def test_synth_writes_everything(fir4_spec, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["synth", str(fir4_spec), "-o", str(out)])
    assert rc == 0
    assert (out / "fir4.fps.c").exists()
    assert (out / "fir4.fps.vhd").exists()
    report = json.loads((out / "report.json").read_text())
    kinds = [n["kind"] for n in report["nodes"]]
    assert kinds.count("mul") == 4
    assert kinds.count("add") + kinds.count("trunc") + kinds.count("shr") >= 3
    assert report["outputs"] == ["y"]
    assert 0 < report["predicted_bound"] <= 1.25e-4
    assert "4915" in (out / "fir4.fps.c").read_text()
    table = capsys.readouterr().out
    assert "predicted worst-case output error" in table


def test_report_lists_every_plan_node(fir4_spec, tmp_path):
    from fpsynt.pipeline import synthesize
    out = tmp_path / "out"
    assert main(["synth", str(fir4_spec), "-o", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    plan = synthesize(FIR4_SRC)
    assert sorted(n["name"] for n in report["nodes"]) == \
        sorted(n.id for n in plan.graph.nodes)


def test_syntax_error_exits_1_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "bad.fps"
    spec.write_text(BAD_SRC)
    out = tmp_path / "out"
    rc = main(["synth", str(spec), "-o", str(out)])
    assert rc == 1
    assert capsys.readouterr().err
    assert not out.exists()


def test_width_4_cannot_fit_exits_2(fir4_spec, tmp_path, capsys):
    rc = main(["synth", str(fir4_spec), "--width", "4", "-o", str(tmp_path / "o")])
    assert rc == 2
    assert "cannot fit" in capsys.readouterr().err


@pytest.mark.parametrize("value,shown", [
    ("1e400", "1.000e+400"), ("-1e400", "-1.000e+400"), ("1e40", "1e+40")])
def test_constant_too_large_exits_2(tmp_path, capsys, value, shown):
    """A constant past the float range is a cannot-fit error naming it, not
    an OverflowError traceback; in float range the message is unchanged."""
    spec = tmp_path / "big.fps"
    spec.write_text(f"input x : sif(1/0/15);\nconst c = {value};\noutput y = c*x;\n")
    assert main(["synth", str(spec), "--width", "16", "-o", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"const 'c': constant {shown} does not fit in 16 bits" in err
    # reported once, when the constant is quantized, not once per candidate
    assert err == f"fpsynt: cannot fit: const 'c': constant {shown} does not fit in 16 bits\n"
    assert "no formatting choice" not in err


def test_missing_file_exits_3(tmp_path, capsys):
    rc = main(["synth", str(tmp_path / "nope.fps"), "-o", str(tmp_path)])
    assert rc == 3


def test_bad_vector_file_exits_4(fir4_spec, tmp_path, capsys):
    vectors = tmp_path / "v.csv"
    vectors.write_text("x0,x1,x2,x3\n0.1,0.2,0.3\n")  # short row
    rc = main(["simulate", str(fir4_spec), "--vectors", str(vectors),
               "-o", str(tmp_path / "o")])
    assert rc == 4
    assert "row 2" in capsys.readouterr().err


TWO_INPUT_SRC = "input x0 : sif(1/0/7);\ninput x1 : sif(1/0/7);\noutput y = x0*x1;\n"


@pytest.mark.parametrize("spec,vectors,rc,message", [
    (b"input x0 : sif(1/0/7);\n# caf\xe9\noutput y = x0;\n", None, 1,
     "fpsynt: {spec}: not UTF-8 at byte 28\n"),
    # the offset counts the byte-order mark, as it is a byte of the file
    (b"\xef\xbb\xbfinput x0 : sif(1/0/7);\n# caf\xe9\noutput y = x0;\n", None, 1,
     "fpsynt: {spec}: not UTF-8 at byte 31\n"),
    (TWO_INPUT_SRC.encode(), b"x0,x1\n0.5,0.5\n\xe9,0.1\n", 4,
     "fpsynt: bad vectors: vector file is not UTF-8\n"),
    (TWO_INPUT_SRC.encode(), b"x0,x1\n0.5," + b"1" * 140_000 + b"\n", 4,
     "fpsynt: bad vectors: row 2: field larger than field limit (131072)\n"),
    (TWO_INPUT_SRC.encode(), b"x0,x1\n0.5,0.5\n0.25,1e-9999999\n", 4,
     "fpsynt: bad vectors: row 3: exponent exceeds 999\n"),
    (TWO_INPUT_SRC.encode(), b"x0,x1\n0.5,0.5\n0." + b"1" * 3000 + b",0.1\n", 4,
     "fpsynt: bad vectors: row 3: '0." + "1" * 38 + "'... has over 2000 digits\n"),
    (TWO_INPUT_SRC.encode(), b"x0,x1\n0.5,1e999\n", 4,
     "fpsynt: bad vectors: row 2: input 'x1': value 1.000e+999 is outside the decodable "
     "range of (1/0/7) [-1.0, 0.9921875]\n"),
], ids=["spec-latin1", "spec-bom-latin1", "vectors-latin1", "long-cell", "huge-exponent", "many-digits",
        "past-float"])
def test_bad_input_files_exit_with_their_code(tmp_path, capsys, spec, vectors, rc, message):
    """A spec or vector file that is not UTF-8, a vector cell past the csv
    field limit, with a huge exponent, with over ``parser.MAX_DIGITS``
    digits or past the float range each end in their exit code and one
    line, with no traceback, in well under a second."""
    (tmp_path / "bad.fps").write_bytes(spec)
    args = ["synth", str(tmp_path / "bad.fps")]
    if vectors is not None:
        (tmp_path / "v.csv").write_bytes(vectors)
        args = ["simulate", str(tmp_path / "bad.fps"), "--vectors", str(tmp_path / "v.csv")]
    start = time.perf_counter()
    assert main([*args, "-o", str(tmp_path / "o")]) == rc
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err == message.format(spec=tmp_path / "bad.fps")
    assert "Traceback" not in err


@pytest.mark.parametrize("marked", [("spec",), ("vectors",), ("spec", "vectors")],
                         ids=["spec", "vectors", "both"])
def test_a_byte_order_mark_changes_nothing(tmp_path, capsys, marked):
    """A spec or vector file that opens with a UTF-8 byte-order mark gives
    the report.json and the stats line of the same file without one."""
    files = {"spec": TWO_INPUT_SRC.encode(), "vectors": b"x0,x1\n0.5,0.5\n-0.25,0.125\n"}
    runs = []
    for bom in ((), marked):
        run = tmp_path / ("bom" if bom else "plain")
        run.mkdir()
        for name, data in files.items():
            (run / name).write_bytes(b"\xef\xbb\xbf" + data if name in bom else data)
        args = ["simulate", str(run / "spec"), "--vectors", str(run / "vectors")]
        assert main([*args, "-o", str(run / "o")]) == 0
        runs.append(((run / "o" / "report.json").read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert json.loads(runs[1][1])["count"] == 2


def test_simulate_random_stats_json(fir4_spec, tmp_path, capsys):
    rc = main(["simulate", str(fir4_spec), "--random", "90", "--seed", "1",
               "-o", str(tmp_path / "o")])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert set(stats) == {"min", "max", "mean", "median", "count"}
    assert stats["count"] == 93
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["stats"] == stats


def test_simulate_passthrough_all_zero_stats(tmp_path, capsys):
    spec = tmp_path / "p.fps"
    spec.write_text("input x : sif(1/0/15);\noutput y = x;\n")
    rc = main(["simulate", str(spec), "--random", "5", "--seed", "2",
               "-o", str(tmp_path / "o")])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["max"] == 0.0 and stats["mean"] == 0.0


def test_vectors_csv_drives_simulation(fir4_spec, tmp_path, capsys):
    vectors = tmp_path / "v.csv"
    vectors.write_text("x0,x1,x2,x3\n0.0,0.0,0.0,0.0\n0.5,0.25,-0.5,0.125\n")
    rc = main(["simulate", str(fir4_spec), "--vectors", str(vectors),
               "-o", str(tmp_path / "o")])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["count"] == 2


def test_byte_identical_reruns(fir4_spec, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synth", str(fir4_spec), "-o", str(out1)]) == 0
    assert main(["synth", str(fir4_spec), "-o", str(out2)]) == 0
    for name in ("fir4.fps.c", "fir4.fps.vhd", "report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_byte_identical_across_processes_and_hash_seeds(tmp_path):
    """Synthesis in child processes under two string-hash seeds, and in this
    one, writes the same C, VHDL and report.json for a spec whose chains
    share terms, so no artifact depends on the iteration order of a set."""
    spec = tmp_path / "mixed.fps"
    spec.write_text(MIXED_CHAINS_SRC)
    runs = [tmp_path / "here"]
    assert main(["synth", str(spec), "-o", str(runs[0])]) == 0
    for seed in ("0", "4242"):
        runs.append(tmp_path / seed)
        subprocess.run([sys.executable, "-m", "fpsynt.cli", "synth", str(spec),
                        "-o", str(runs[-1])],
                       check=True, capture_output=True, env=child_env(PYTHONHASHSEED=seed))
    names = ("mixed.fps.c", "mixed.fps.vhd", "report.json")
    first, *others = [[(out / name).read_bytes() for name in names] for out in runs]
    assert all(other == first for other in others)


def test_opt_flags_change_the_plan(fir4_spec, tmp_path):
    out_all = tmp_path / "all"
    out_none = tmp_path / "none"
    assert main(["synth", str(fir4_spec), "-o", str(out_all)]) == 0
    assert main(["synth", str(fir4_spec), "--opt", "none", "-o", str(out_none)]) == 0
    full = json.loads((out_all / "report.json").read_text())
    plain = json.loads((out_none / "report.json").read_text())
    assert full["accumulators"] and not plain["accumulators"]
    assert full["predicted_bound"] < plain["predicted_bound"]


def test_emit_selection(fir4_spec, tmp_path):
    out = tmp_path / "o"
    assert main(["synth", str(fir4_spec), "--emit", "c", "-o", str(out)]) == 0
    assert (out / "fir4.fps.c").exists()
    assert not (out / "fir4.fps.vhd").exists()


def test_quantize_trunc_mode(fir4_spec, tmp_path):
    out = tmp_path / "o"
    assert main(["synth", str(fir4_spec), "--quantize", "trunc", "-o", str(out)]) == 0
    src = (out / "fir4.fps.c").read_text()
    assert "1638" in src          # 0.05 * 2^15 = 1638.4 floors to 1638
    assert "14745" in src         # 0.45 * 2^15 = 14745.6 floors to 14745


def test_console_entry_point(fir4_spec, tmp_path):
    """Run ``python -m fpsynt.cli`` in a child process.

    That is the same ``main`` as the ``fpsynt`` console script
    (``fpsynt.cli:main``). The child finds the package the suite imported,
    whether it is installed or run from a ``src/`` checkout.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "fpsynt.cli", "synth", str(fir4_spec),
         "-o", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(FPSYNT_LOG="info"),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "report.json").exists()


_CORRUPT_AND_CHECK = """\
import sys
from fpsynt import Interval, NodeInfo, PlanCheckError, check_plan, synthesize
plan = synthesize(open(sys.argv[1]).read())
info = plan.info["y"]
sig = info.signal
plan.info["y"] = NodeInfo(sig, Interval.from_raws(0, sig.fmt.max_raw + 1, sig.grid_exp), info.err)
try:
    check_plan(plan)
except PlanCheckError as e:
    print(sys.flags.optimize, e)
"""


def test_check_plan_raises_under_python_O(fir4_spec):
    """``check_plan`` still rejects a plan when ``python -O`` strips asserts:
    an interval one LSB past its format raises PlanCheckError."""
    proc = subprocess.run([sys.executable, "-O", "-c", _CORRUPT_AND_CHECK, str(fir4_spec)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 interval of 'y' escapes its format\n"


# No input reaches these two checks (CHANGES.md says why for each), so the
# child calls the helpers that hold them with arguments no caller passes.
_BROKEN_INVARIANTS = """\
import sys
from fpsynt import ErrorBound, Interval, NodeInfo, PlanCheckError, ScaledSignal, SifFormat
from fpsynt.analysis import Chain, _shift_view
from fpsynt.optimizer import _rebuild_chain
info = NodeInfo(ScaledSignal(SifFormat(1, 0, 7), 0), Interval.from_raws(-128, 127, -7),
                ErrorBound(0))
chain = Chain("t1", ("t0",), (("a", -1), ("b", -1), ("c", -1)), ((0, 1), 2))
for call in (lambda: _shift_view(info, 1, 8, 0), lambda: _rebuild_chain([], chain, chain.shape, set())):
    try:
        call()
    except PlanCheckError as e:
        print(sys.flags.optimize, e)
"""


def test_internal_checks_raise_under_python_O():
    """The analyzer's and the optimizer's internal checks raise
    PlanCheckError also when ``python -O`` strips asserts."""
    proc = subprocess.run([sys.executable, "-O", "-c", _BROKEN_INVARIANTS],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("1 view of f=7 cannot have f=8\n"
                           "1 a chain cannot be globally negative\n")


@pytest.mark.parametrize("args,message", [
    (["synth", "--width", "100"], "width must be in [4, 64], got 100"),
    (["synth", "--width", "3"], "width must be in [4, 64], got 3"),
    (["simulate", "--random", "0"], "--random must be >= 1, got 0"),
    (["simulate", "--random", "-3"], "--random must be >= 1, got -3"),
    (["simulate", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["simulate", "--random", "100000000"], "--random must be <= 10000000, got 100000000"),
    (["synth", "--width", "abc"], "argument --width: invalid int value: 'abc'"),
    (["simulate", "--random", "x"], "argument --random: invalid int value: 'x'"),
    (["simulate", "--seed", "1.5"], "argument --seed: invalid int value: '1.5'"),
])
def test_bad_option_values_exit_1(fir4_spec, tmp_path, args, message):
    """Out-of-range or malformed option values end in exit 1 and one
    ``fpsynt:`` line, with no traceback and no file written."""
    before = sorted(tmp_path.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-m", "fpsynt.cli", args[0], str(fir4_spec), *args[1:],
         "-o", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(), cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"fpsynt: {message}\n"
    assert "Traceback" not in proc.stderr + proc.stdout
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("args", [[], ["synth"], ["bogus"]],
                         ids=["no-command", "no-spec", "unknown-command"])
def test_usage_errors_exit_1(tmp_path, args):
    """A missing command or spec, or an unknown command, ends in exit 1 and
    one ``fpsynt:`` line, as other bad input does; argparse words it."""
    proc = subprocess.run([sys.executable, "-m", "fpsynt.cli", *args],
                          capture_output=True, text=True, env=child_env(), cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("fpsynt: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    assert "synth" in capsys.readouterr().out


def test_5000_term_sum_synthesizes_in_a_child_process(tmp_path):
    """``fpsynt synth`` on a sum of 5000 inputs, no optimization: exit 0, no
    traceback, and C, VHDL and report.json written."""
    n = 5000
    spec = tmp_path / "sum5000.fps"
    spec.write_text("".join(f"input x{k} : sif(1/0/15);\n" for k in range(n))
                    + "output y = " + " + ".join(f"x{k}" for k in range(n)) + ";\n")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "fpsynt.cli", "synth", str(spec), "--width", "32",
         "--opt", "none", "-o", str(out)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    for name in ("sum5000.fps.c", "sum5000.fps.vhd", "report.json"):
        assert (out / name).stat().st_size > 0
    assert json.loads((out / "report.json").read_text())["predicted_bound"] == 0


# the CLI under a 512 MiB address-space cap, set in the child's own code
_CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from fpsynt.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_out_of_memory_exits_3_with_one_line(tmp_path):
    """A synthesis that runs out of memory ends in one ``fpsynt:`` line and
    exit 3, not a MemoryError traceback."""
    spec = tmp_path / "sum5000.fps"
    spec.write_text(make_sum_src(5000))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "synth", str(spec), "--width", "32",
         "--emit", "none", "-o", str(tmp_path / "o")],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines() == ["fpsynt: out of memory"]


def test_recursion_error_exits_1_with_one_line(fir4_spec, tmp_path, capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("fpsynt.cli.synthesize", too_deep)
    assert main(["synth", str(fir4_spec), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == ["fpsynt: internal error: recursion too deep"]


@pytest.mark.parametrize("value", ["basic_format", "nonsense"])
def test_unknown_log_level_falls_back_to_warning(fir4_spec, tmp_path, value):
    """An ``FPSYNT_LOG`` value that names no logging level, even one that
    names a string constant of the logging module, logs at warning."""
    proc = subprocess.run(
        [sys.executable, "-m", "fpsynt.cli", "synth", str(fir4_spec), "-o", str(tmp_path)],
        capture_output=True, text=True, env=child_env(FPSYNT_LOG=value),
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""


def test_info_log_goes_to_stderr_only(fir4_spec, tmp_path):
    """``FPSYNT_LOG=info`` prints one line per search, and for ``simulate``
    one simulator line, to stderr and changes neither stdout nor
    report.json."""
    runs = {}
    for command in ("synth", "simulate"):
        for level in ("warning", "info"):
            out = tmp_path / command / level
            proc = subprocess.run(
                [sys.executable, "-m", "fpsynt.cli", command, str(fir4_spec), "-o", str(out)],
                capture_output=True, text=True, env=child_env(FPSYNT_LOG=level),
            )
            assert proc.returncode == 0, proc.stderr
            runs[command, level] = (proc, (out / "report.json").read_bytes())
    for command in ("synth", "simulate"):
        (quiet, quiet_report), (loud, loud_report) = (runs[command, "warning"],
                                                      runs[command, "info"])
        assert loud_report == quiet_report
        assert loud.stdout == quiet.stdout
        assert quiet.stderr == ""
        searches = [line for line in loud.stderr.splitlines()
                    if line.startswith("fpsynt.optimizer: INFO: search ")]
        assert len(searches) == 6  # the chain plan and the five shapes of the 4-term sum
        sims = [line for line in loud.stderr.splitlines()
                if line.startswith("fpsynt.simulator: INFO: ")]
        assert sims == ([] if command == "synth" else
                        ["fpsynt.simulator: INFO: compare: 93 vectors, 1 outputs, "
                         "int64 columns, 1 blocks"])
