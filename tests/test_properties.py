"""Randomized whole-pipeline properties.

For arbitrary small specs and arbitrary in-range stimuli: synthesis must
succeed or raise CannotFitError (nothing else), every simulated output must
stay within the predicted bound of the exact value, the internal overflow
check must never fire, and the emitted C expression must reproduce the
simulator's raw outputs exactly. The same holds for random graphs built
through the API, at word widths from 4 to 64 bits.
"""

import logging
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fpsynt.analysis import check_plan
from fpsynt.codegen import emit_c, emit_vhdl
from fpsynt.config import Config
from fpsynt.core import NodeKind, decode
from fpsynt.errors import CannotFitError, EmitError
from fpsynt.optimizer import topological_optimize
from fpsynt.parser import parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.report import report_json
from fpsynt.simulator import TestVector as Vec
from fpsynt.simulator import generate_vectors, run_fixed_columns, run_reference_columns

from conftest import exact_eval, extract_c_expression, interpret_c_expression, make_graph


@st.composite
def small_specs(draw):
    n_inputs = draw(st.integers(2, 4))
    sifs = [(1, draw(st.integers(0, 2)), draw(st.integers(2, 7)))
            for _ in range(n_inputs)]
    decls = [f"input x{k} : sif({s}/{i}/{f});" for k, (s, i, f) in enumerate(sifs)]
    n_consts = draw(st.integers(0, 2))
    for k in range(n_consts):
        c = draw(st.decimals(min_value="-2.0", max_value="2.0", places=3))
        decls.append(f"const c{k} = {c};")
    atoms = [f"x{k}" for k in range(n_inputs)] + [f"c{k}" for k in range(n_consts)]

    def expr(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(atoms))
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({expr(depth - 1)} {op} {expr(depth - 1)})"

    decls.append(f"output y = {expr(2)};")
    return "\n".join(decls) + "\n", sifs


@given(small_specs(), st.integers(8, 16), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_random_specs_are_sound_and_c_equivalent(spec_and_sifs, width, rng):
    src, sifs = spec_and_sifs
    try:
        plan = synthesize(src, Config(width=width, k_max=1))
    except Exception as e:
        from fpsynt.errors import CannotFitError
        assert isinstance(e, CannotFitError)
        return
    dfg, bindings = parse_spec(src)
    fmts = [bindings.input_format(n) for n in bindings.inputs]
    expr = extract_c_expression(emit_c(plan, "dut").source, "fps_y")

    from fpsynt.simulator import run_fixed
    for _ in range(12):
        raws = tuple(rng.randint(f.min_raw, f.max_raw) for f in fmts)
        vec = Vec(raws)
        raw, value = run_fixed(plan, vec)["y"]  # range checks run inside
        values = {n: decode(r, f) for n, f, r in zip(bindings.inputs, fmts, raws)}
        exact = exact_eval(dfg, bindings, values)["y"]
        assert abs(value - exact) <= plan.cost
        env = dict(zip(bindings.inputs, raws))
        assert interpret_c_expression(expr, env) == raw


_API_FORMATS = [(1, 0, 0), (1, 0, 2), (1, 1, 2), (2, 0, 4), (1, 2, 5), (1, 0, 7), (1, 3, 12),
                (1, 0, 15), (1, 1, 30)]
_API_CONSTS = [Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(2), Fraction(-1),
               Fraction(1, 3), Fraction(-5, 7), Fraction(3, 10), Fraction(-7, 10),
               Fraction(5, 4), Fraction(-9, 8), Fraction(15, 100)]


def random_api_graph(rng: random.Random):
    """A word width W in 4..64 and k_max in 0..2, and a graph of 1-5 inputs
    whose formats fit W (``sif(1/0/0)`` among them), 0-3 constants (zero,
    non-dyadic ones among them), 2-9 products and sums over any earlier
    node, with either sum operand negated, and one or two outputs."""
    width = rng.randint(4, 64)
    fmts = [f for f in _API_FORMATS if sum(f) <= width]
    inputs = {f"v{k}": rng.choice(fmts) for k in range(rng.randint(1, 5))}
    consts = {f"c{k}": rng.choice(_API_CONSTS) for k in range(rng.randint(0, 3))}
    pool = [*inputs, *consts]
    ops = []
    for k in range(rng.randint(2, 9)):
        a, b = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.4:
            ops.append((f"t{k}", NodeKind.MUL, (a, b), (False, False)))
        else:
            ops.append((f"t{k}", NodeKind.ADD, (a, b),
                        rng.choice([(False, False), (True, False), (False, True)])))
        pool.append(f"t{k}")
    outputs = {"y0": pool[-1]}
    if rng.random() < 0.5:
        outputs["y1"] = rng.choice([*inputs, *pool[len(inputs) + len(consts):-1]])
    return make_graph(inputs, consts, ops, outputs), Config(width=width, k_max=rng.randint(0, 2))


def test_random_api_graphs_are_sound_and_c_equivalent(caplog):
    """Each graph either raises CannotFitError or gives a plan that passes
    check_plan, emits VHDL and a report, stays within its bound on 43
    vectors against the exact reference, and whose C, unless an intermediate
    needs more than 64 bits, equals the simulator under the C oracle."""
    caplog.set_level(logging.ERROR, logger="fpsynt.analysis")  # chain fallbacks
    rng = random.Random(1)
    plans = wide = c_outputs = 0
    for g in range(300):
        (dfg, bindings), cfg = random_api_graph(rng)
        try:
            plan = topological_optimize(dfg, bindings, cfg)
        except CannotFitError:
            continue
        plans += 1
        check_plan(plan)
        emit_vhdl(plan)
        report_json(plan)
        try:
            c_source = emit_c(plan).source
        except EmitError:
            assert max(plan.info[n.id].width for n in plan.graph.nodes) > 64
            c_source = None
            wide += 1
        raws = generate_vectors(bindings, 40, seed=g).raws
        fixed = run_fixed_columns(plan, raws)
        exact = run_reference_columns(plan, raws, "exact")
        for o in plan.output_ids:
            grid, bound = plan.info[o].signal.grid, plan.info[o].err
            got = fixed[o].tolist()
            assert max(abs(r * grid - e) for r, e in zip(got, exact[o], strict=True)) <= bound
            if c_source is not None:
                expr = extract_c_expression(c_source, f"fps_{o}")
                assert [interpret_c_expression(expr, dict(zip(bindings.inputs, row)))
                        for row in raws.tolist()] == got
                c_outputs += 1
    assert plans >= 280 and wide >= 20 and c_outputs >= 300
