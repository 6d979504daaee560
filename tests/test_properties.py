"""Randomized whole-pipeline properties.

For arbitrary small specs and arbitrary in-range stimuli: synthesis must
succeed or raise CannotFitError (nothing else), every simulated output must
stay within the predicted bound of the exact value, the internal overflow
check must never fire, and the emitted C expression must reproduce the
simulator's raw outputs exactly.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fpsynt.codegen import emit_c
from fpsynt.config import Config
from fpsynt.core import decode
from fpsynt.parser import parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.simulator import TestVector as Vec

from conftest import exact_eval, extract_c_expression, interpret_c_expression


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
