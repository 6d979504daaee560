"""Emitted C/VHDL: constants, shape, determinism, differential equivalence."""

import dataclasses
import itertools
import json
import re
import shutil
import subprocess
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fpsynt
from fpsynt.codegen import _VHDL_RESERVED, emit_c, emit_vhdl
from fpsynt.config import Config
from fpsynt.core import Dfg
from fpsynt.pipeline import synthesize
from fpsynt.report import report_json
from fpsynt.simulator import TestVector as Vec
from fpsynt.simulator import generate_vectors, run_fixed, run_fixed_columns

from conftest import (FIR4_SRC, SKEWED_SUM, VhdlError, extract_c_expression,
                      interpret_c_expression, interpret_vhdl, make_horner_src, make_sum_src,
                      quantize_const, vhdl_ports)

TWO_TAP_SRC = ("input x0 : sif(1/0/7);\ninput x1 : sif(1/0/7);\n"
               "const w0 = 0.3;\nconst w1 = 0.6;\n"
               "output y = w0*x0 + w1*x1;\n")


def test_quantize_const_reference_values():
    assert quantize_const(Fraction(15, 100), 25) == 5033165
    assert quantize_const(Fraction(5, 100), 28) == 13421773
    assert quantize_const(Fraction(1, 2), 4) == 8
    assert quantize_const(Fraction(-15, 100), 25) == -5033165


def test_emitted_constants_match_quantize_const():
    plan = synthesize(FIR4_SRC)
    for name, value in plan.bindings.consts.items():
        f = plan.info[name].signal.fmt.f
        assert plan.const_raws[name] == quantize_const(value, f)


def test_c_contains_coefficients_and_only_mul_add_shift():
    plan = synthesize(FIR4_SRC)
    art = emit_c(plan, "fir4")
    for literal in ("4915", "1638", "14746", "11469"):
        assert literal in art.source
    expr = extract_c_expression(art.source, "fps_y")
    assert re.fullmatch(r"[\sA-Za-z0-9_()*+<>]*", expr), expr
    assert "/" not in expr and "%" not in expr and "-" not in expr


def test_c_passthrough_has_no_arithmetic():
    plan = synthesize("input x : sif(1/0/15);\noutput y = x;\n")
    expr = extract_c_expression(emit_c(plan, "p").source, "fps_y")
    assert expr == "x"


def test_c_header_documents_every_node():
    plan = synthesize(FIR4_SRC)
    src = emit_c(plan, "fir4").source
    for node in plan.graph.nodes:
        fmt = plan.info[node.id].signal.fmt
        assert f"-- {node.id}: SIF({fmt.s}/{fmt.i}/{fmt.f})" in src


def test_version_is_written_once():
    plan = synthesize(TWO_TAP_SRC)
    assert json.loads(report_json(plan))["version"] == fpsynt.__version__
    generated = f"generated by fpsynt {fpsynt.__version__}"
    assert generated in emit_c(plan).source.splitlines()[0]
    assert generated in emit_vhdl(plan).source.splitlines()[0]
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == \
        {"attr": "fpsynt.__version__"}


def test_c_determinism():
    a = emit_c(synthesize(FIR4_SRC), "fir4")
    b = emit_c(synthesize(FIR4_SRC), "fir4")
    assert a.source == b.source


def test_emit_c_walks_the_nodes_as_often_on_any_number_of_inputs():
    """``emit_c`` passes over the plan's nodes a fixed number of times: as
    often on a 2,000-input sum as on a 4-input one. One pass per input or
    output name made it quadratic in the spec's size."""
    count, walks = [0], {}

    class Nodes(tuple):
        def __iter__(self):
            count[0] += 1
            return super().__iter__()

    for n in (4, 2000):
        plan = synthesize(make_sum_src(n), Config(width=32, k_max=0, enable_topology_opt=False))
        counted = dataclasses.replace(plan, graph=Dfg(Nodes(plan.graph.nodes)))
        count[0] = 0  # building the Dfg walks its nodes too
        assert emit_c(counted).source == emit_c(plan).source
        walks[n] = count[0]
    assert walks[2000] == walks[4] <= 4, walks


def test_c_keyword_inputs_are_renamed():
    plan = synthesize("input int : sif(1/0/7);\noutput y = int;\n")
    src = emit_c(plan, "kw").source
    assert "int32_t int_" in src


# inputs whose C names collide: a keyword renamed onto a declared name, and
# the names the emitter declares; an output named shr would be fps_shr
C_CLASH_SRCS = [
    "input int : sif(1/0/7);\ninput int_ : sif(1/0/7);\noutput shr = 0.3*int + 0.71*int_;\n",
    "input int32_t : sif(1/0/7);\ninput fps_shr : sif(1/0/7);\n"
    "output shr = 0.3*int32_t - 0.71*fps_shr;\n",
]


def _compile_and_run_c(tmp_path: Path, c_source: str, func: str, pairs,
                       flags=("-O1",)):
    """Compile the emitted function plus a looping harness, return outputs."""
    cc = shutil.which("cc") or shutil.which("gcc")
    assert cc is not None
    (tmp_path / "dut.c").write_text(c_source)
    harness = f"""
#include <stdint.h>
#include <stdio.h>
extern int32_t {func}(int32_t x0, int32_t x1);
int main(void) {{
    int a, b;
    for (a = -128; a <= 127; a++)
        for (b = -128; b <= 127; b++)
            printf("%d\\n", (int){func}((int32_t)a, (int32_t)b));
    return 0;
}}
"""
    (tmp_path / "main.c").write_text(harness)
    exe = tmp_path / "dut"
    subprocess.run([cc, *flags, "-o", str(exe), str(tmp_path / "dut.c"),
                    str(tmp_path / "main.c")], check=True)
    out = subprocess.run([str(exe)], capture_output=True, text=True, check=True)
    return [int(line) for line in out.stdout.split()]


UBSAN_FLAGS = ("-O2", "-fsanitize=undefined", "-fno-sanitize-recover=all")


def _ubsan_links(tmp_path: Path) -> bool:
    """Whether the C compiler builds and runs a trivial program under UBSan."""
    cc = shutil.which("cc") or shutil.which("gcc")
    (tmp_path / "probe.c").write_text("int main(void) { return 0; }\n")
    exe = tmp_path / "probe"
    try:
        subprocess.run([cc, *UBSAN_FLAGS, "-o", str(exe), str(tmp_path / "probe.c")],
                       capture_output=True, check=True)
        subprocess.run([str(exe)], capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return False
    return True


def test_c_differential_exhaustive_two_tap(tmp_path):
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    art = emit_c(plan, "twotap")
    pairs = list(itertools.product(range(-128, 128), repeat=2))
    got = _compile_and_run_c(tmp_path, art.source, "fps_y", pairs)
    expected = run_fixed_columns(plan, np.array(pairs))["y"].tolist()
    for k, pair in enumerate(pairs):
        assert got[k] == expected[k], pair


def test_c_differential_exhaustive_two_tap_under_ubsan(tmp_path):
    """The two-tap C built at -O2 with every UBSan check fatal gives the
    simulator's 65,536 words and no diagnostic: the emitted arithmetic has
    no undefined behaviour for the optimizer to exploit."""
    if not _ubsan_links(tmp_path):
        pytest.skip("the C compiler cannot build a program with -fsanitize=undefined")
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    art = emit_c(plan, "twotap")
    got = _compile_and_run_c(tmp_path, art.source, "fps_y", None, UBSAN_FLAGS)
    pairs = np.array(list(itertools.product(range(-128, 128), repeat=2)))
    assert got == run_fixed_columns(plan, pairs)["y"].tolist()


@pytest.mark.parametrize("portable", [False, True])
def test_c_interpreter_matches_simulator(portable):
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    art = emit_c(plan, "twotap", portable_shift=portable)
    expr = extract_c_expression(art.source, "fps_y")
    for a in range(-128, 128, 11):
        for b in range(-128, 128, 7):
            sim = run_fixed(plan, Vec((a, b)))["y"][0]
            assert interpret_c_expression(expr, {"x0": a, "x1": b}) == sim


def test_portable_shift_compiles_and_matches(tmp_path):
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    art = emit_c(plan, "twotap", portable_shift=True)
    assert "fps_shr" in art.source
    got = _compile_and_run_c(tmp_path, art.source, "fps_y", None)
    pairs = np.array(list(itertools.product(range(-128, 128), repeat=2)))
    assert got == run_fixed_columns(plan, pairs)["y"].tolist()


@pytest.mark.parametrize("portable", [False, True])
@pytest.mark.parametrize("src", C_CLASH_SRCS, ids=["int_int_", "declared"])
def test_c_names_are_distinct_and_free(tmp_path, src, portable):
    """Clashing names compile in both shift styles and give the simulator's
    words on every input pair."""
    plan = synthesize(src, Config(width=8))
    art = emit_c(plan, "clash", portable_shift=portable)
    signature = re.search(r"int32_t fps_(\w+)\(int32_t (\w+), int32_t (\w+)\)", art.source)
    assert signature is not None
    assert len(set(signature.groups())) == 3
    assert set(signature.groups()).isdisjoint({"int", "int32_t", "fps_shr", "shr"})
    got = _compile_and_run_c(tmp_path, art.source, f"fps_{signature[1]}", None)
    pairs = np.array(list(itertools.product(range(-128, 128), repeat=2)))
    assert got == run_fixed_columns(plan, pairs)["shr"].tolist()


def test_c_of_an_input_less_spec_is_a_prototype(tmp_path):
    """With no inputs the function takes ``(void)``, which strict C99
    accepts, and it returns the constant's raw word."""
    plan = synthesize("output y = 0.5;\n")
    art = emit_c(plan, "k")
    assert "int32_t fps_y(void) {" in art.source
    (tmp_path / "dut.c").write_text(art.source)
    (tmp_path / "main.c").write_text(
        '#include <stdint.h>\n#include <stdio.h>\nint32_t fps_y(void);\n'
        'int main(void) { printf("%d\\n", (int)fps_y()); return 0; }\n')
    cc = shutil.which("cc") or shutil.which("gcc")
    assert cc is not None
    exe = tmp_path / "dut"
    subprocess.run([cc, "-std=c99", "-Wstrict-prototypes", "-Werror", "-o", str(exe),
                    str(tmp_path / "dut.c"), str(tmp_path / "main.c")], check=True)
    out = subprocess.run([str(exe)], capture_output=True, text=True, check=True)
    assert int(out.stdout) == run_fixed_columns(plan, np.zeros((1, 0), dtype=object))["y"][0]


def test_c_uses_wider_type_for_wide_plans():
    plan = synthesize(FIR4_SRC, Config(width=32))
    src = emit_c(plan, "wide").source
    assert "int64_t" in src and "LL" in src


def test_c_differential_randomized_fir4_w16(tmp_path):
    import random
    plan = synthesize(FIR4_SRC)
    art = emit_c(plan, "fir4")
    rng = random.Random(99)
    vectors = [tuple(rng.randint(-(1 << 15), (1 << 15) - 1) for _ in range(4))
               for _ in range(500)]
    cc = shutil.which("cc") or shutil.which("gcc")
    assert cc is not None
    rows = ",\n".join("{%d, %d, %d, %d}" % v for v in vectors)
    harness = f"""
#include <stdint.h>
#include <stdio.h>
extern int32_t fps_y(int32_t, int32_t, int32_t, int32_t);
static const int32_t vecs[][4] = {{{rows}}};
int main(void) {{
    unsigned k;
    for (k = 0; k < {len(vectors)}; k++)
        printf("%d\\n", (int)fps_y(vecs[k][0], vecs[k][1], vecs[k][2], vecs[k][3]));
    return 0;
}}
"""
    (tmp_path / "dut.c").write_text(art.source)
    (tmp_path / "main.c").write_text(harness)
    exe = tmp_path / "dut"
    subprocess.run([cc, "-O1", "-o", str(exe), str(tmp_path / "dut.c"),
                    str(tmp_path / "main.c")], check=True)
    out = subprocess.run([str(exe)], capture_output=True, text=True, check=True)
    got = [int(x) for x in out.stdout.split()]
    want = [run_fixed(plan, Vec(v))["y"][0] for v in vectors]
    assert got == want


# ---------------------------------------------------------------------------
# VHDL


def test_vhdl_fir4_structure():
    plan = synthesize(FIR4_SRC)
    src = emit_vhdl(plan, "fir4").source
    assert "toSIF" not in src
    consts = re.findall(r"^\s*(\w+) <= to_signed", src, re.MULTILINE)
    assert consts == ["w0", "w1", "w2", "w3"]
    assert src.index("--Constants") < src.index("--Multipliers") < src.index("--Adders")
    mults = re.findall(r"^\s*(\w+) <= \w+ \* \w+;", src, re.MULTILINE)
    assert len(mults) == 4
    adds = re.findall(r"<= resize\(\w+, \d+\) \+ resize\(\w+, \d+\);", src)
    assert len(adds) == 3


def test_vhdl_signal_widths_match_plan():
    plan = synthesize(FIR4_SRC)
    src = emit_vhdl(plan, "fir4").source
    decls = dict(re.findall(r"signal (\w+) : signed\((\d+) downto 0\);", src))
    for node in plan.graph.nodes:
        if node.id in decls:
            assert int(decls[node.id]) == plan.info[node.id].width - 1
    # ports carry the declared input widths and the output width
    for name in plan.bindings.inputs:
        assert f"{name} : in  signed({plan.info[name].width - 1} downto 0)" in src
    assert f"y : out signed({plan.info['y'].width - 1} downto 0)" in src


def test_vhdl_passthrough_single_assignment():
    plan = synthesize("input x : sif(1/0/15);\noutput y = x;\n")
    src = emit_vhdl(plan, "p").source
    body = src[src.index("begin"):]
    assert body.count("<=") == 1
    assert "y <= x;" in body


def test_vhdl_determinism():
    a = emit_vhdl(synthesize(FIR4_SRC), "fir4")
    b = emit_vhdl(synthesize(FIR4_SRC), "fir4")
    assert a.source == b.source


def test_vhdl_subtraction():
    plan = synthesize("input a : sif(1/0/7);\ninput b : sif(1/0/7);\n"
                      "output y = a - b;\n", Config(width=8))
    src = emit_vhdl(plan, "s").source
    assert re.search(r"<= resize\(\w+, \d+\) - resize\(\w+, \d+\);", src)


@pytest.mark.skipif(shutil.which("ghdl") is None, reason="no VHDL analyzer available")
def test_vhdl_analyzes_clean(tmp_path):
    plan = synthesize(FIR4_SRC)
    art = emit_vhdl(plan, "fir4")
    path = tmp_path / art.suggested_name
    path.write_text(art.source)
    subprocess.run(["ghdl", "-a", "--std=08", str(path)], check=True)


# the benchmark's matvec2x2 at W=32: 62-bit products
MATVEC2X2_W32 = ("input x0 : sif(1/0/31);\ninput x1 : sif(1/0/31);\n"
                 "const a00 = -0.845;\nconst a01 = -0.573;\n"
                 "const a10 = -0.394;\nconst a11 = 0.800;\n"
                 "output y0 = a00*x0 + a01*x1;\noutput y1 = a10*x0 + a11*x1;\n")


def _vhdl_agrees(plan, raws, source=None) -> bool:
    """True when the VHDL interpreter gives ``run_fixed_columns``'s raw
    output columns on the input raw matrix ``raws``. Ports are declared
    inputs first, then outputs, each in the plan's order."""
    source = source or emit_vhdl(plan, "dut").source
    ins, outs = vhdl_ports(source)
    got = interpret_vhdl(source, {n: raws[:, k] for k, n in enumerate(ins)})
    want = run_fixed_columns(plan, raws)
    return got == {v: want[o].tolist() for v, o in zip(outs, plan.output_ids, strict=True)}


def test_vhdl_interpreter_exhaustive_two_tap():
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    assert _vhdl_agrees(plan, np.array(list(itertools.product(range(-128, 128), repeat=2))))


@pytest.mark.parametrize("src,cfg", [
    (FIR4_SRC, Config(width=16)),
    (make_horner_src(8), Config(width=16)),
    (MATVEC2X2_W32, Config(width=32)),
    (SKEWED_SUM, Config(width=8, enable_chain_alloc=False)),
], ids=["fir4", "horner8", "matvec2x2_w32", "skewed_sum"])
def test_vhdl_interpreter_matches_simulator(src, cfg):
    plan = synthesize(src, cfg)
    assert _vhdl_agrees(plan, generate_vectors(plan.bindings, 200, seed=1).raws)


def test_vhdl_interpreter_sees_a_changed_shift():
    plan = synthesize(SKEWED_SUM, Config(width=8, enable_chain_alloc=False))
    raws = generate_vectors(plan.bindings, 200, seed=1).raws
    source = emit_vhdl(plan, "dut").source
    assert "shift_right(x0, 1)" in source
    mutant = source.replace("shift_right(x0, 1)", "shift_right(x0, 2)")
    assert not _vhdl_agrees(plan, raws, mutant)


# names that are VHDL keywords, names of ieee, names no basic identifier
# has, and names equal up to case
VHDL_CLASH_SRC = ("input in : sif(1/0/7);\ninput X : sif(1/0/7);\ninput x : sif(1/0/7);\n"
                  "input _a__b_ : sif(1/0/7);\nconst signed = 0.375;\nconst Signal = -0.25;\n"
                  "output out = 0.3*in + signed*X;\noutput x_ = x*_a__b_ + Signal*in;\n")
_VHDL_LEGAL = re.compile(r"[A-Za-z](_?[A-Za-z0-9])*|\\[^\\]+\\")


@pytest.mark.parametrize("name,entity", [
    ("out", "\\out\\"), ("2tap", "e_2tap"), ("a__b", "\\a__b\\"), ("fir-4", "fir_4"),
])
def test_vhdl_names_are_legal_and_distinct(name, entity):
    """Every identifier of the entity, its ports and its signals is a basic
    identifier that is not reserved, or an extended one; no two are equal
    as VHDL compares them; and the VHDL gives the simulator's words."""
    plan = synthesize(VHDL_CLASH_SRC, Config(width=8))
    source = emit_vhdl(plan, name).source
    assert re.search(r"^entity (\S+) is$", source, re.MULTILINE)[1] == entity
    assert f"end {entity};" in source and f"architecture dataflow of {entity} is" in source
    declared = re.findall(r"^    (\S+) : (?:in |out)", source, re.MULTILINE)  # ports
    declared += re.findall(r"^  signal (\S+) :", source, re.MULTILINE)
    assert len(declared) == len(plan.graph.nodes)
    keys = [n if n.startswith("\\") else n.lower() for n in [entity] + declared]
    assert len(set(keys[1:])) == len(keys) - 1
    for n in [entity] + declared:
        assert _VHDL_LEGAL.fullmatch(n) and n.lower() not in _VHDL_RESERVED, n
    assert _vhdl_agrees(plan, generate_vectors(plan.bindings, 200, seed=1).raws, source)


def test_vhdl_names_exhaustive_two_inputs():
    """Inputs ``in`` and ``IN`` become two extended identifiers; the VHDL
    gives the simulator's words on every input pair at W=8."""
    plan = synthesize("input in : sif(1/0/7);\ninput IN : sif(1/0/7);\n"
                      "output signed = 0.3*in - 0.71*IN;\n", Config(width=8))
    source = emit_vhdl(plan, "dut").source
    assert vhdl_ports(source) == (["\\in\\", "\\IN\\"], ["\\signed\\"])
    assert _vhdl_agrees(plan, np.array(list(itertools.product(range(-128, 128), repeat=2))),
                        source)


_BY_HAND = """\
entity e is
  port (
    a : in  signed(7 downto 0);
    y : out signed(7 downto 0)
  );
end e;

architecture dataflow of e is
  signal t : signed(15 downto 0);
begin
  t <= a * a;
  y <= {};
end dataflow;
"""


@pytest.mark.parametrize("rhs,small,exact,fails", [
    ("resize(a, 8) + resize(a, 8)", 60, [120, -120], "8-bit \\+ wraps"),
    ("resize(a, 8) - to_signed(-100, 8)", 20, [120, 80], "8-bit - wraps"),
    ("resize(t, 8)", 11, [121, 121], "resize of 16 to 8 bits changes a value"),
    ("t", 11, None, "'y' is 8 bits, assigned 16"),
])
def test_vhdl_interpreter_rejects_what_an_analyzer_or_simulator_would(rhs, small, exact, fails):
    """Each statement but the last is exact on a small input; on a = 127 it
    wraps or loses bits. A width mismatch fails on any input."""
    source = _BY_HAND.format(rhs)
    if exact is not None:
        assert interpret_vhdl(source, {"a": [small, -small]})["y"] == exact
    with pytest.raises(VhdlError, match=fails):
        interpret_vhdl(source, {"a": [small, 127]})
