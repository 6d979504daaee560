"""Whole-pipeline behaviors that cross module boundaries."""

from fractions import Fraction

import pytest

from fpsynt.analysis import check_plan
from fpsynt.codegen import emit_c
from fpsynt.config import Config
from fpsynt.core import NodeKind, Quantize, SifFormat, decode
from fpsynt.parser import parse_spec, pretty_print
from fpsynt.pipeline import synthesize
from fpsynt.simulator import TestVector as Vec
from fpsynt.simulator import generate_vectors, run_fixed, run_reference_columns

from conftest import exact_eval, extract_c_expression, interpret_c_expression


def test_reference_keeps_source_association_after_reassociation():
    # force a topology win so the planned graph differs from the source
    src = ("input x0 : sif(1/3/4);\n"
           + "".join(f"input x{k} : sif(1/0/7);\n" for k in (1, 2, 3))
           + "output y = x0 + x1 + x2 + x3;\n")
    plan = synthesize(src, Config(width=8, enable_chain_alloc=False))
    source_dfg, _ = parse_spec(src)
    assert plan.topology != "source"
    assert [n.id for n in plan.source.nodes] == [n.id for n in source_dfg.nodes]
    # double-mode reference evaluates the source tree left to right
    vecset = generate_vectors(plan.bindings, 5, seed=0)
    fmts = [plan.bindings.input_format(n) for n in plan.bindings.inputs]
    vals = [float(decode(r, f)) for r, f in zip(vecset.vectors[4].raws, fmts)]
    assert run_reference_columns(plan, vecset.raws[4:5], "double")["y"][0] == \
        ((vals[0] + vals[1]) + vals[2]) + vals[3]


def test_forced_prescale_gives_nonzero_output_scale():
    src = "input a : sif(1/0/15);\ninput b : sif(1/0/15);\noutput y = a + b;\n"
    plan = synthesize(src, Config(width=16, enable_chain_alloc=False))
    info = plan.info["y"]
    assert info.signal.scale == 1
    top = SifFormat(1, 0, 15).max_raw
    raw, value = run_fixed(plan, Vec((top, top)))["y"]
    exact = 2 * Fraction(top, 1 << 15)
    assert abs(value - exact) <= plan.cost
    assert value == raw * Fraction(2, 1 << 15)  # raw * 2^(E-F)


def test_subtraction_end_to_end():
    src = ("input a : sif(1/0/7);\ninput b : sif(1/0/7);\nconst k = 0.75;\n"
           "output y = (a - b) * k;\n")
    plan = synthesize(src, Config(width=8))
    dfg, bindings = parse_spec(src)
    fmt = SifFormat(1, 0, 7)
    expr = extract_c_expression(emit_c(plan, "sub").source, "fps_y")
    for a in range(fmt.min_raw, fmt.max_raw + 1, 17):
        for b in range(fmt.min_raw, fmt.max_raw + 1, 13):
            raw, value = run_fixed(plan, Vec((a, b)))["y"]
            exact = exact_eval(dfg, bindings,
                               {"a": decode(a, fmt), "b": decode(b, fmt)})["y"]
            assert abs(value - exact) <= plan.cost
            assert interpret_c_expression(expr, {"a": a, "b": b}) == raw


def test_negative_constant_end_to_end():
    src = "input x : sif(1/0/15);\nconst k = -0.5;\noutput y = x * k;\n"
    plan = synthesize(src)
    assert plan.const_raws["k"] == -(1 << 14)
    # the exact product needs 16 fraction bits; one floors away
    assert plan.cost == Fraction(1, 1 << 16)
    top = SifFormat(1, 0, 15).max_raw
    _, value = run_fixed(plan, Vec((top,)))["y"]
    exact = Fraction(-top, 1 << 16)
    assert 0 <= exact - value <= plan.cost


def test_multiple_outputs_share_inputs():
    src = ("input a : sif(1/0/7);\ninput b : sif(1/0/7);\n"
           "output s = a + b;\noutput p = a * b;\n")
    plan = synthesize(src, Config(width=8))
    assert plan.output_ids == ("s", "p")
    got = run_fixed(plan, Vec((64, -32)))
    assert set(got) == {"s", "p"}
    src_c = emit_c(plan, "two").source
    assert "fps_s" in src_c and "fps_p" in src_c


def test_unused_const_dropped_unused_input_kept():
    src = ("input x : sif(1/0/7);\ninput unused : sif(1/0/7);\n"
           "const dead = 0.125;\noutput y = x;\n")
    plan = synthesize(src, Config(width=8))
    ids = {n.id for n in plan.graph.nodes}
    assert "dead" not in ids
    assert "unused" in ids          # declared interface survives
    assert "unused" in emit_c(plan, "iface").source
    # a constant that nothing reads is not quantized, so it need not fit
    plan = synthesize("input x : sif(1/0/7);\nconst big = 300;\noutput y = x;\n", Config(width=8))
    assert plan.const_raws == {} and plan.cost == 0


def test_trunc_quantization_mode_is_one_sided():
    src = "input x : sif(1/0/7);\nconst k = 0.3;\noutput y = x * k;\n"
    plan = synthesize(src, Config(width=8, quantize=Quantize.TRUNC))
    q = decode(plan.const_raws["k"], plan.info["k"].signal.fmt)
    assert q <= Fraction(3, 10) < q + Fraction(1, 1 << 7)


def test_literal_coefficient_matches_named_const():
    named = synthesize("input x : sif(1/0/15);\nconst k = 0.15;\noutput y = x*k;\n")
    anon = synthesize("input x : sif(1/0/15);\noutput y = x*0.15;\n")
    assert named.cost == anon.cost
    vec = Vec((12345,))
    assert run_fixed(named, vec)["y"][0] == run_fixed(anon, vec)["y"][0]


def test_zero_constant_is_harmless():
    plan = synthesize("input x : sif(1/0/7);\nconst z = 0.0;\noutput y = x*z;\n",
                      Config(width=8))
    assert run_fixed(plan, Vec((100,)))["y"][1] == 0
    assert plan.cost == 0


def test_const_only_output():
    plan = synthesize("const k = 0.25;\noutput y = k;\n", Config(width=8))
    assert run_fixed(plan, Vec(()))["y"][1] == Fraction(1, 4)
    assert plan.cost == 0


def test_signed_chain_accumulates_correctly():
    src = ("".join(f"input x{k} : sif(1/0/7);\n" for k in range(4))
           + "output y = x0 - x1 + x2 - x3;\n")
    plan = synthesize(src, Config(width=8))
    assert plan.accumulators  # the signed chain still allocates
    dfg, bindings = parse_spec(src)
    fmt = SifFormat(1, 0, 7)
    for raws in [(127, 127, 127, 127), (-128, 127, -128, 127), (-128, -128, -128, -128),
                 (13, -77, 101, -6), (0, 0, 0, 1)]:
        _, value = run_fixed(plan, Vec(raws))["y"]
        values = {f"x{k}": decode(r, fmt) for k, r in enumerate(raws)}
        exact = exact_eval(dfg, bindings, values)["y"]
        assert abs(value - exact) <= plan.cost


def test_mixed_grid_chain_terms():
    # an unscaled input summed with two products: term grids differ, the
    # accumulator settles on the coarsest term's grid
    src = ("input x0 : sif(1/0/15);\ninput x1 : sif(1/0/15);\ninput x2 : sif(1/0/15);\n"
           "const w1 = 0.25;\nconst w2 = 0.125;\n"
           "output y = x0 + w1*x1 + w2*x2;\n")
    plan = synthesize(src, Config(width=16))
    (acc,) = plan.accumulators
    assert acc.fraction_bits <= 15
    dfg, bindings = parse_spec(src)
    fmt = SifFormat(1, 0, 15)
    for raws in [(fmt.max_raw,) * 3, (fmt.min_raw,) * 3, (11, -222, 3333)]:
        _, value = run_fixed(plan, Vec(raws))["y"]
        values = {f"x{k}": decode(r, fmt) for k, r in enumerate(raws)}
        exact = exact_eval(dfg, bindings, values)["y"]
        assert abs(value - exact) <= plan.cost


@pytest.mark.parametrize("chain", [True, False])
def test_long_sum_synthesizes_without_recursion(chain):
    # one chain of 1199 additions: the chain walk, the search driver and
    # the infix renderers must not recurse once per addition, and the
    # printed source must parse back
    n = 1200
    src = ("".join(f"input x{k} : sif(1/0/15);\n" for k in range(n))
           + "output y = " + " + ".join(f"x{k}" for k in range(n)) + ";\n")
    cfg = Config(width=32, k_max=0, enable_topology_opt=False,
                 enable_chain_alloc=chain)
    plan = synthesize(src, cfg)
    check_plan(plan)
    assert plan.cost == 0  # 15-bit inputs sum without loss in 32 bits
    body = emit_c(plan).source.split("return ")[1]
    assert body.startswith("(" * (n - 1) + "x0 + x1) + x2)")
    assert body.endswith(" + x1199);\n}\n")
    text = pretty_print(plan.source, plan.bindings)
    assert text.endswith("output y = (" + " + ".join(f"x{k}" for k in range(n)) + ");\n")
    assert parse_spec(text) == (plan.source, plan.bindings)  # parses back, same graph
