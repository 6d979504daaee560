"""Interval propagation, format inference, formatting ops, error bounds."""

import dataclasses
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsynt.analysis import (ErrorBound, GraphTable, Interval, NodeInfo, PlanBuilder,
                             _min_integer_bits, check_plan, choose_const_format, find_chains,
                             fit_format_to_interval, infer_product_format,
                             mul_error_bound, plan_add, plan_truncate)
from fpsynt.config import Config
from fpsynt.core import Node, NodeKind, ScaledSignal, SifFormat, decode
from fpsynt.errors import CannotFitError, PlanCheckError
from fpsynt.parser import parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.simulator import run_fixed_columns

from conftest import FIR4_SRC, exact_eval, interval_eval


def info(fmt, scale=0, interval=None, err=ErrorBound(0)):
    sig = ScaledSignal(fmt, scale)
    if interval is None:
        interval = Interval(sig.min_value, sig.max_value)
    return NodeInfo(sig, interval, err)


# ---------------------------------------------------------------------------
# intervals


def test_mul_interval_against_const():
    x = Interval(Fraction(-1), Fraction(1) - Fraction(1, 1 << 15))
    c = Fraction(4915, 1 << 15)  # 0.15 quantized to (1/0/15)
    prod = x * Interval(c, c)
    assert Fraction(-15, 100) <= prod.lo and prod.hi <= Fraction(15, 100)


def test_add_interval():
    half = Interval(Fraction(-1, 2), Fraction(1, 2))
    s = half + half
    assert s.lo == -1 and s.hi == 1


def test_fir4_output_interval_vs_independent_oracle(fir4):
    dfg, bindings = fir4
    plan = synthesize(FIR4_SRC)
    # oracle: plain corner-product propagation over the source tree, using
    # the quantized coefficient values the datapath actually multiplies by
    fmt = SifFormat(1, 0, 15)
    rng = (fmt.min_value, fmt.max_value)
    consts = {name: decode(plan.const_raws[name], plan.info[name].signal.fmt)
              for name in bindings.consts}
    oracle = interval_eval(dfg, bindings, {f"x{k}": rng for k in range(4)}, consts)
    lo, hi = oracle["y"]
    # coefficients sum to one, so the sum spans [-1, 1) like a single input
    assert Fraction(-1) <= lo and hi < Fraction(1)
    got = plan.info["y"].interval
    # the plan's interval may only be wider (truncations floor it down)
    assert got.lo <= lo and got.hi <= hi
    assert Fraction(-1) <= got.lo and got.hi < Fraction(1)


INTERVAL_RULES_SRC = """\
input x : sif(1/0/3);
input b : sif(1/1/2);
const c = -0.5;
const k = -0.875;
output m = x * c;
output d = c - x;
output s = k + b;
output r = x + b;
"""


def test_builder_interval_rules():
    # the three interval rules, read off a plan the builder makes
    dfg, bindings = parse_spec(INTERVAL_RULES_SRC)
    plan = PlanBuilder(GraphTable(dfg, bindings, Config(width=16)), ("source", dfg)).build()

    def interval(nid):
        got = plan.info[nid].interval
        return got.lo, got.hi

    def source_op(out):
        return dfg.node(out).operands[0]

    # MUL: the extreme corner products; the negative constant swaps the ends
    mul = source_op("m")
    assert plan.graph.node(mul).kind is NodeKind.MUL
    assert interval(mul) == (Fraction(-7, 16), Fraction(1, 2))
    # ADD with a negated operand: c - [-1, 7/8]
    sub = source_op("d")
    assert plan.graph.node(sub).negate == (False, True)
    assert interval(sub) == (Fraction(-1, 2) - Fraction(7, 8), Fraction(-1, 2) + 1)
    # SHR: operands on 2^-15 and 2^-3 are floored onto b's grid 2^-2,
    # toward -inf (-7/8 becomes -1, not -3/4)
    for out, (shifted, lo, hi) in {"s": ("k", Fraction(-1), Fraction(-1)),
                                   "r": ("x", Fraction(-1), Fraction(3, 4))}.items():
        (shr,) = [op for op in plan.graph.node(source_op(out)).operands
                  if plan.graph.node(op).kind is NodeKind.SHR]
        assert plan.graph.node(shr).operands == (shifted,)
        assert plan.info[shr].signal.grid == Fraction(1, 4)
        assert interval(shr) == (lo, hi)


# ---------------------------------------------------------------------------
# product formats


def test_product_format_rule():
    p = infer_product_format(ScaledSignal(SifFormat(1, 0, 15)),
                             ScaledSignal(SifFormat(1, 0, 15)))
    assert p.fmt == SifFormat(2, 0, 30) and p.fmt.width == 32 and p.scale == 0

    q = infer_product_format(ScaledSignal(SifFormat(1, 1, 2), 1),
                             ScaledSignal(SifFormat(2, 3, 8), 2))
    assert q.fmt == SifFormat(3, 4, 10) and q.fmt.width == 17 and q.scale == 3


def test_product_decode_exhaustive_4bit():
    # every raw pair of (1/1/2) factors: the integer product, read in the
    # product format's grid, equals the product of the decoded factors
    a = SifFormat(1, 1, 2)
    pf = infer_product_format(ScaledSignal(a), ScaledSignal(a))
    assert pf.fmt == SifFormat(2, 2, 4)
    grid = Fraction(1, 1 << pf.fmt.f)
    for ra in range(a.min_raw, a.max_raw + 1):
        for rb in range(a.min_raw, a.max_raw + 1):
            assert (ra * rb) * grid == decode(ra, a) * decode(rb, a)


def test_product_corner_needs_a_sign_bit_converted():
    a = info(SifFormat(1, 1, 2))
    prod_sig = infer_product_format(a.signal, a.signal)
    interval = a.interval * a.interval
    # corner (-2)*(-2) = +4 does not decode in (2/2/4); the fit converts
    # one redundant sign copy into an integer bit at the same width
    assert interval.hi == 4 and prod_sig.max_value < 4
    fitted = fit_format_to_interval(prod_sig, interval)
    assert fitted.fmt == SifFormat(1, 3, 4)
    assert fitted.fmt.width == prod_sig.fmt.width
    assert fitted.max_value >= interval.hi


# ---------------------------------------------------------------------------
# truncation


def test_truncate_one_bit_error_matches_summary_ulp():
    base = info(SifFormat(1, 0, 15))
    spec = plan_truncate(base, 15)
    assert spec.drop_f == 1
    assert spec.added_error.as_fraction() == Fraction(1, 1 << 15)
    assert abs(float(spec.added_error) - 0.000031) < 2e-6


def test_truncate_noop_when_already_fitting():
    base = info(SifFormat(1, 0, 15))
    assert plan_truncate(base, 16) is None


def test_truncate_product_to_word_width():
    # (2/0/30) product of two (1/0/15) words -> (1/0/15): one redundant sign
    # and 15 fraction LSBs dropped
    x = Interval(Fraction(-1), Fraction(1) - Fraction(1, 1 << 15))
    c = Fraction(4915, 1 << 15)
    w = Interval(c, c)
    base = NodeInfo(ScaledSignal(SifFormat(2, 0, 30)), x * w, ErrorBound(0))
    spec = plan_truncate(base, 16)
    assert spec.signal.fmt == SifFormat(1, 0, 15)
    assert spec.drop_f == 15
    assert base.width - spec.drop_f - spec.signal.fmt.width == 1  # one MSB dropped
    assert spec.added_error.as_fraction() == Fraction((1 << 15) - 1, 1 << 30)


def test_truncate_exhaustive_loss_oracle():
    # scale model at 8 bits: every (1/0/7)x(1/0/7) product truncated to the
    # word width deviates by at most (2^7 - 1) ulps of the product grid
    a = SifFormat(1, 0, 7)
    bound = Fraction((1 << 7) - 1, 1 << 14)
    worst = Fraction(0)
    for ra in range(a.min_raw, a.max_raw + 1):
        for rb in range(a.min_raw, a.max_raw + 1):
            exact = Fraction(ra * rb, 1 << 14)
            truncated = Fraction((ra * rb) >> 7, 1 << 7)
            loss = exact - truncated
            assert Fraction(0) <= loss <= bound
            worst = max(worst, loss)
    assert worst == bound  # the bound is tight


def test_truncate_cannot_fit():
    base = info(SifFormat(1, 6, 2))  # values up to 64 need 7 bits + sign
    with pytest.raises(CannotFitError):
        plan_truncate(base, 4)


# ---------------------------------------------------------------------------
# pre-scaling


def test_prescale_two_full_scale_operands():
    a = info(SifFormat(1, 0, 15))
    spec = plan_add(a, a, (False, False), width=16)
    assert spec.shift_a == 1 and spec.shift_b == 1
    assert spec.result.signal.scale == 1
    assert spec.result.width <= 16
    assert spec.a_view.signal.grid == spec.b_view.signal.grid
    assert spec.a_view.signal.fmt.f == spec.b_view.signal.fmt.f == spec.result.signal.fmt.f
    assert spec.a_view.signal.scale == spec.b_view.signal.scale == spec.result.signal.scale


def test_prescale_skipped_when_sum_fits():
    small = info(SifFormat(1, 0, 15), interval=Interval(Fraction(-1, 4), Fraction(1, 4)))
    spec = plan_add(small, small, (False, False), width=16)
    assert spec.shift_a == spec.shift_b == 0
    assert spec.result.signal.scale == 0


def test_prescale_only_finer_operand_shifts():
    coarse = info(SifFormat(1, 0, 7))
    fine = info(SifFormat(1, 0, 15),
                interval=Interval(Fraction(-1, 4), Fraction(1, 4)))
    spec = plan_add(fine, coarse, (False, False), width=16)
    assert spec.shift_b == 0 and spec.shift_a > 0


def test_prescale_exhaustive_one_sided_loss():
    # 6-bit model: all raw pairs of (1/0/5) + (1/0/5) through the planned
    # alignment; semantic result differs from the exact sum by at most two
    # old ulps, never upward
    fmt = SifFormat(1, 0, 5)
    base = info(fmt)
    spec = plan_add(base, base, (False, False), width=6)
    k = spec.shift_a
    assert k == spec.shift_b == 1
    ulp = Fraction(1, 1 << 5)
    res_grid = spec.result.signal.grid
    for ra in range(fmt.min_raw, fmt.max_raw + 1):
        for rb in range(fmt.min_raw, fmt.max_raw + 1):
            raw_sum = (ra >> k) + (rb >> k)
            got = raw_sum * res_grid
            exact = decode(ra, fmt) + decode(rb, fmt)
            assert -2 * ulp <= got - exact <= 0
            assert spec.result.interval.lo <= got <= spec.result.interval.hi


def test_prescale_error_accounts_shift_loss():
    base = info(SifFormat(1, 0, 15))
    spec = plan_add(base, base, (False, False), width=16)
    per_shift = Fraction(1, 1 << 15)
    assert spec.result.err.as_fraction() == 2 * per_shift


# ---------------------------------------------------------------------------
# accumulated bounds on whole plans


def test_fir4_bound_is_sound_and_tight_enough():
    plan = synthesize(FIR4_SRC)
    assert float(plan.cost) <= 1.25e-4
    assert float(plan.cost) >= 2e-5  # same order as the per-node summary's 0.000061


def test_exact_constants_and_no_truncation_give_zero_bound():
    src = ("input a : sif(1/0/15);\ninput b : sif(1/0/15);\n"
           "const p = 0.5;\nconst q = 0.25;\n"
           "output y = a*p + b*q;\n")
    plan = synthesize(src, Config(width=32))
    assert plan.cost == 0


def test_two_tap_bound_dominates_exhaustive_simulation():
    src = ("input x0 : sif(1/0/7);\ninput x1 : sif(1/0/7);\n"
           "const w0 = 0.3;\nconst w1 = 0.6;\n"
           "output y = w0*x0 + w1*x1;\n")
    plan = synthesize(src, Config(width=8))
    dfg, bindings = parse_spec(src)
    fmt = SifFormat(1, 0, 7)
    every = range(fmt.min_raw, fmt.max_raw + 1)
    grid = plan.info["y"].signal.grid
    raws = run_fixed_columns(plan, np.array(list(itertools.product(every, every))))["y"]
    worst = Fraction(0)
    for (ra, rb), raw in zip(itertools.product(every, every), raws.tolist(), strict=True):
        fixed = raw * grid
        exact = exact_eval(dfg, bindings,
                           {"x0": decode(ra, fmt), "x1": decode(rb, fmt)})["y"]
        worst = max(worst, abs(fixed - exact))
    assert worst <= plan.cost


def test_mul_error_formula():
    a = NodeInfo(ScaledSignal(SifFormat(1, 0, 15)), Interval(Fraction(-1), Fraction(1)),
                 ErrorBound.of(Fraction(1, 1000)))
    b = NodeInfo(ScaledSignal(SifFormat(1, 1, 14)), Interval(Fraction(-2), Fraction(2)),
                 ErrorBound.of(Fraction(1, 500)))
    got = mul_error_bound(a, b)
    expected = 1 * Fraction(1, 500) + 2 * Fraction(1, 1000) + Fraction(1, 1000) * Fraction(1, 500)
    assert got.as_fraction() == expected


def test_mul_error_clamped_for_monotonicity():
    c = Fraction(328, 1 << 15)  # 0.01 quantized to (1/0/15)
    tiny = NodeInfo(ScaledSignal(SifFormat(1, 0, 15)), Interval(c, c), ErrorBound(0))
    noisy = NodeInfo(ScaledSignal(SifFormat(1, 0, 15)),
                     Interval(Fraction(-1), Fraction(1)), ErrorBound.of(Fraction(1, 64)))
    # the raw formula would shrink the bound below the operand's; the
    # accumulated bound must not decrease along the path
    assert mul_error_bound(tiny, noisy) >= noisy.err


def test_const_format_selection():
    assert choose_const_format(Fraction(15, 100), 16) == SifFormat(1, 0, 15)
    assert choose_const_format(Fraction(3, 2), 16) == SifFormat(1, 1, 14)
    assert choose_const_format(Fraction(-2), 16) == SifFormat(1, 1, 14)
    assert choose_const_format(Fraction(0), 16) == SifFormat(1, 0, 15)
    with pytest.raises(CannotFitError):
        choose_const_format(Fraction(1 << 20), 16)


def test_overflow_freedom_invariant_on_plans():
    for src, width in [
        (FIR4_SRC, 16),
        ("input a : sif(1/0/7);\ninput b : sif(1/0/7);\noutput y = a*b + a;\n", 8),
        ("input a : sif(1/3/4);\ninput b : sif(2/1/5);\nconst k = 2.5;\n"
         "output y = (a - b) * k;\n", 12),
    ]:
        plan = synthesize(src, Config(width=width))
        check_plan(plan)  # raises on any violated invariant
        for nid, ni in plan.info.items():
            fmt = ni.signal.fmt
            rng = Interval.from_raws(fmt.min_raw, fmt.max_raw, ni.signal.grid_exp)
            assert rng.lo <= ni.interval.lo and ni.interval.hi <= rng.hi


def test_check_plan_rejects_an_interval_one_lsb_outside_its_format():
    plan = synthesize(FIR4_SRC, Config(width=16))
    y = plan.output_ids[0]
    info = plan.info[y]
    fmt, g = info.signal.fmt, info.signal.grid_exp
    # the format's own range passes on its grid and on a finer one
    for m_lo, m_hi, exp in [(fmt.min_raw, fmt.max_raw, g), (2 * fmt.min_raw, 2 * fmt.max_raw, g - 1)]:
        plan.info[y] = NodeInfo(info.signal, Interval.from_raws(m_lo, m_hi, exp), info.err)
        check_plan(plan)
    # one step past either end, on the grid, a finer one or a coarser one
    for m_lo, m_hi, exp in [(fmt.min_raw - 1, 0, g), (0, fmt.max_raw + 1, g),
                            (2 * fmt.min_raw - 1, 0, g - 1), (0, 2 * fmt.max_raw + 1, g - 1),
                            (-(-fmt.min_raw // 2) - 1, 0, g + 1)]:
        plan.info[y] = NodeInfo(info.signal, Interval.from_raws(m_lo, m_hi, exp), info.err)
        with pytest.raises(PlanCheckError, match="escapes its format"):
            check_plan(plan)


def test_check_plan_limits_each_accumulator_node_by_its_own_width():
    """An accumulator's nodes may be as wide as that accumulator, not as the
    widest one in the plan; every other non-product node stays within W."""
    src = "".join(f"input x{k} : sif(1/0/15);\n" for k in range(8))
    src += "output y0 = x0 + x1 + x2;\noutput y1 = x3 + x4 + x5 + x6 + x7;\n"
    plan = synthesize(src, Config(width=16, enable_topology_opt=False))
    assert [(a.root, a.width) for a in plan.accumulators] == [("t1", 18), ("t5", 19)]
    assert plan.accumulators[0].nodes == ("t1_acc1", "t1")
    check_plan(plan)
    for nid in ("t1", "t1_q"):  # the 18-bit root, then a node outside every accumulator
        i = plan.info[nid]
        fmt = i.signal.fmt
        wider = NodeInfo(ScaledSignal(SifFormat(fmt.s + 1, fmt.i, fmt.f), i.signal.scale),
                         i.interval, i.err, i.eff_exp)
        with pytest.raises(PlanCheckError, match=f"node '{nid}' is {fmt.width + 1} bits"):
            check_plan(dataclasses.replace(plan, info={**plan.info, nid: wider}))


def test_chain_detection(fir4):
    dfg, _ = fir4
    chains = find_chains(dfg)
    assert len(chains) == 1
    chain = chains[0]
    assert chain.n_terms == 4
    assert len(chain.members) == 2
    assert [s for _, s in chain.terms] == [1, 1, 1, 1]


def test_chain_detection_respects_sharing():
    # hand-built graph where one sum feeds two consumers: it cannot be
    # absorbed into its consumer's chain
    from fpsynt.core import Dfg
    nodes = (
        Node("a", NodeKind.INPUT), Node("b", NodeKind.INPUT), Node("c", NodeKind.INPUT),
        Node("s", NodeKind.ADD, ("a", "b")),
        Node("t", NodeKind.ADD, ("s", "c")),
        Node("m", NodeKind.MUL, ("s", "c")),
        Node("y", NodeKind.OUTPUT, ("t",)),
        Node("z", NodeKind.OUTPUT, ("m",)),
    )
    assert find_chains(Dfg(nodes)) == []


def test_signed_chain_terms():
    dfg, _ = parse_spec("input a : sif(1/0/7);\ninput b : sif(1/0/7);\n"
                        "input c : sif(1/0/7);\noutput y = a - b + c;\n")
    (chain,) = find_chains(dfg)
    assert [s for _, s in chain.terms] == [1, -1, 1]


# ---------------------------------------------------------------------------
# exact error bounds against Fraction

ODD = (1, 3, 5, 7, 15, 21, 105)


@st.composite
def error_bounds(draw, q=None):
    """An ErrorBound n * 2^e / q, zero about one time in three, on any
    representation of its value (n may share factors with 2^-e and q)."""
    n = draw(st.one_of(st.just(0), st.integers(1, 1 << 20), st.integers(1, 1 << 40)))
    q = draw(st.sampled_from(ODD)) if q is None else q
    return ErrorBound(n, draw(st.integers(-60, 12)), q)


@st.composite
def bound_pairs(draw):
    """Two bounds, on one odd denominator or on two drawn independently."""
    a = draw(error_bounds())
    return a, draw(error_bounds(a.q if draw(st.booleans()) else None))


@given(bound_pairs(), st.integers(0, 1 << 20), st.integers(-40, 10))
@settings(max_examples=500, deadline=None)
def test_error_bound_arithmetic_matches_fraction(pair, m, x):
    a, b = pair
    fa, fb = a.as_fraction(), b.as_fraction()
    assert fa == Fraction(a.n * Fraction(2) ** a.e, a.q)
    for got, want in [(a + b, fa + fb), (b + a, fa + fb), (a - b, fa - fb),
                      (a.scaled(m, x), fa * m * Fraction(2) ** x),
                      (a * b, fa * fb), (m * a, m * fa), (a * m, m * fa),
                      (-a, -fa), (-a - b, -fa - fb)]:
        assert type(got) is ErrorBound
        assert got.as_fraction() == want and got.q % 2 == 1
    assert max(a, b).as_fraction() == max(fa, fb)
    # every odd denominator drawn divides 105, so the value goes on 105
    on_105 = ErrorBound.of(fa, 105)
    assert on_105.q == 105 and on_105.as_fraction() == fa
    assert ErrorBound.of(fa).as_fraction() == fa


@given(bound_pairs())
@settings(max_examples=500, deadline=None)
def test_error_bound_comparisons_match_fraction(pair):
    a, b = pair
    fa, fb = a.as_fraction(), b.as_fraction()
    zero = ErrorBound(0, 0, a.q)
    for y, fy in [(b, fb), (a, fa), (zero, 0)]:
        assert (a < y, a <= y, a == y, a != y, a > y, a >= y) == \
            (fa < fy, fa <= fy, fa == fy, fa != fy, fa > fy, fa >= fy)
        assert (y < a, y <= a, y == a, y > a, y >= a) == \
            (fy < fa, fy <= fa, fy == fa, fy > fa, fy >= fa)


@given(error_bounds())
@settings(max_examples=100, deadline=None)
def test_error_bound_takes_no_other_number(a):
    """Only an ErrorBound is an operand, and an int factor of ``*``: mixing
    in a Fraction, int or float is a TypeError, or unequal for ``==``."""
    fa = a.as_fraction()
    for y in (fa, Fraction(0), 0, 0.0):
        for op in ((lambda: a + y), (lambda: y + a), (lambda: a - y), (lambda: a < y),
                   (lambda: y < a), (lambda: a <= y), (lambda: a > y), (lambda: a >= y)):
            with pytest.raises(TypeError):
                op()
        assert not a == y and a != y and not y == a
    for y in (fa, 0.5):
        with pytest.raises(TypeError):
            a * y
    assert a != "0"
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@given(error_bounds())
@settings(max_examples=500, deadline=None)
def test_error_bound_float_is_bit_equal_to_fraction(a):
    assert float(a).hex() == float(a.as_fraction()).hex()


def test_rules_take_fraction_errors_and_return_error_bounds():
    # a Fraction error enters through ErrorBound.of; the rules return ErrorBound
    a = info(SifFormat(1, 0, 15), err=ErrorBound.of(Fraction(1, 3000)))
    assert type(mul_error_bound(a, a)) is ErrorBound
    spec = plan_add(a, a, (False, False), width=16)
    assert type(spec.result.err) is ErrorBound
    assert spec.result.err.as_fraction() == 2 * Fraction(1, 3000) + 2 * Fraction(1, 1 << 15)
    small = info(SifFormat(1, 0, 15), interval=Interval(Fraction(-1, 4), Fraction(1, 4)),
                 err=ErrorBound.of(Fraction(1, 3000)))
    unshifted = plan_add(small, small, (False, False), width=16)
    assert unshifted.shift_a == unshifted.shift_b == 0
    assert type(unshifted.result.err) is ErrorBound
    assert unshifted.result.err.as_fraction() == 2 * Fraction(1, 3000)
    assert type(plan_truncate(a, 15).added_error) is ErrorBound


# ---------------------------------------------------------------------------
# the integer interval and grid rules against a Fraction reference


def ref_floor(x: Fraction, grid: Fraction) -> Fraction:
    """Largest multiple of ``grid`` that is <= x."""
    return (x / grid).__floor__() * grid


def ref_fits(sig: ScaledSignal, lo: Fraction, hi: Fraction) -> bool:
    return sig.min_value <= lo and hi <= sig.max_value


def ref_min_integer_bits(lo, hi, f: int, scale: int) -> int:
    i = 0
    while not ref_fits(ScaledSignal(SifFormat(1, i, f), scale), lo, hi):
        i += 1
    return i


def ref_floor_loss(eff, grid, lo, hi) -> Fraction:
    if lo == hi:
        return lo - ref_floor(lo, grid)
    return max(Fraction(0), grid - eff)


def ref_truncate(info: NodeInfo, target: int):
    """plan_truncate in Fraction arithmetic: None, "cannot fit", or (drop_f,
    dropped MSBs, signal, lo, hi, added error, eff)."""
    sig, lo, hi = info.signal, info.interval.lo, info.interval.hi
    fmt = sig.fmt
    if fmt.width <= target:
        return None
    for f_r in range(min(fmt.f, target - 1), -1, -1):
        grid = Fraction(2) ** (sig.scale - f_r)
        flo, fhi = (ref_floor(lo, grid), ref_floor(hi, grid)) if f_r < fmt.f else (lo, hi)
        i_r = ref_min_integer_bits(flo, fhi, f_r, sig.scale)
        if 1 + i_r + f_r <= target:
            drop_f = fmt.f - f_r
            return (drop_f, fmt.width - drop_f - target,
                    ScaledSignal(SifFormat(target - i_r - f_r, i_r, f_r), sig.scale),
                    flo, fhi, ref_floor_loss(info.eff, grid, lo, hi), max(info.eff, grid))
    return "cannot fit"


def ref_add(a: NodeInfo, b: NodeInfo, negate, width: int, extra: int):
    """plan_add in Fraction arithmetic: (shifts, then per operand view and
    for the sum: signal, lo, hi, error, eff)."""
    f_star = min(a.signal.fmt.f, b.signal.fmt.f)

    def view(info: NodeInfo, g: Fraction):
        shift = (g / info.signal.grid).numerator.bit_length() - 1
        fmt = info.signal.fmt
        e_star = info.signal.scale + shift - (fmt.f - f_star)
        sig = ScaledSignal(SifFormat(fmt.s, fmt.i + fmt.f - f_star, f_star), e_star)
        lo, hi, err = info.interval.lo, info.interval.hi, info.err.as_fraction()
        if not shift:
            return shift, (sig, lo, hi, err, info.eff)
        loss = ref_floor_loss(info.eff, g, lo, hi)
        return shift, (sig, ref_floor(lo, g), ref_floor(hi, g), err + loss,
                       max(info.eff, g))

    def attempt(g: Fraction):
        (sa, va), (sb, vb) = view(a, g), view(b, g)
        ends = []
        for (_sig, lo, hi, _err, _eff), neg in zip((va, vb), negate):
            ends.append((-hi, -lo) if neg else (lo, hi))
        lo, hi = ends[0][0] + ends[1][0], ends[0][1] + ends[1][1]
        e_star = va[0].scale
        i_r = ref_min_integer_bits(lo, hi, f_star, e_star)
        if 1 + i_r + f_star > width:
            return None
        res = (ScaledSignal(SifFormat(1, i_r, f_star), e_star), lo, hi,
               va[3] + vb[3], min(va[4], vb[4]))
        return (sa, sb, va, vb, res)

    g = max(a.signal.grid, b.signal.grid)
    while attempt(g) is None:
        g *= 2
    return attempt(g * 2 ** extra)


@st.composite
def on_grid_infos(draw, max_f: int = 12):
    """A NodeInfo whose interval ends lie on its value grid ``eff``, which
    is the format grid or coarser, with a non-dyadic error."""
    fmt = SifFormat(draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                    draw(st.integers(0, max_f)))
    sig = ScaledSignal(fmt, draw(st.integers(0, 3)))
    coarse = draw(st.integers(0, min(3, fmt.i + fmt.f)))
    raws = st.integers(fmt.min_raw >> coarse, fmt.max_raw >> coarse)
    lo = draw(raws)
    hi = lo if draw(st.booleans()) else draw(raws)
    lo, hi = sorted((lo << coarse, hi << coarse))
    err = ErrorBound.of(Fraction(draw(st.integers(0, 50)), 3 << draw(st.integers(0, 16))))
    return NodeInfo(sig, Interval(lo * sig.grid, hi * sig.grid), err,
                    sig.grid_exp + coarse)


def test_interval_rejects_non_dyadic_ends():
    for lo, hi in [(Fraction(1, 3), 1), (0, Fraction(15, 100)), (Fraction(-1, 6), 0)]:
        with pytest.raises(ValueError, match="not dyadic"):
            Interval(lo, hi)
    with pytest.raises(ValueError, match="not dyadic"):
        Interval(Fraction(1, 100), Fraction(1, 100))
    with pytest.raises(ValueError, match="bad interval"):
        Interval(1, 0)


def test_interval_is_normalized():
    # equal values, whatever the exponent they were made on, are one key
    a = Interval(Fraction(1, 2), Fraction(3, 2))
    b = Interval.from_raws(4, 12, -3)
    assert a == b and hash(a) == hash(b)
    assert (a.m_lo, a.m_hi, a.exp) == (1, 3, -1)
    assert Interval.from_raws(0, 0, -7) == Interval(0, 0) and Interval(0, 0).exp == 0
    assert Interval.from_raws(-6, 4, 5) == Interval(-192, 128)
    assert Interval(0, 1) != Interval(0, 2) and Interval(0, 1) != (0, 1, 0)
    assert {Interval(-1, 1): 1}[Interval.from_raws(-2, 2, -1)] == 1


@given(on_grid_infos(), on_grid_infos(), st.integers(-20, 8))
@settings(max_examples=300, deadline=None)
def test_interval_arithmetic_matches_fraction_reference(a, b, grid_exp):
    x, y = a.interval, b.interval
    corners = [p * q for p in (x.lo, x.hi) for q in (y.lo, y.hi)]
    grid = Fraction(2) ** grid_exp
    for got, lo, hi in [(x + y, x.lo + y.lo, x.hi + y.hi),
                        (-x, -x.hi, -x.lo),
                        (x * y, min(corners), max(corners)),
                        (x.floor_to(grid_exp), ref_floor(x.lo, grid), ref_floor(x.hi, grid))]:
        assert (got.lo, got.hi) == (lo, hi)
        assert got == Interval(lo, hi)
    assert x.m_abs * Fraction(2) ** x.exp == max(-x.lo, x.hi, 0)


@given(on_grid_infos(), st.integers(0, 14), st.integers(-2, 5))
@settings(max_examples=300, deadline=None)
def test_min_integer_bits_and_fit_match_fraction_reference(info, f, scale):
    lo, hi = info.interval.lo, info.interval.hi
    assert _min_integer_bits(info.interval, f, scale) == ref_min_integer_bits(lo, hi, f, scale)
    # the product rule's fit: convert sign copies to integer bits until it fits
    sig = ScaledSignal(SifFormat(info.signal.fmt.s, max(0, info.signal.fmt.i - 2),
                                 info.signal.fmt.f), info.signal.scale)
    want = sig
    while not ref_fits(want, lo, hi) and want.fmt.s > 1:
        want = ScaledSignal(SifFormat(want.fmt.s - 1, want.fmt.i + 1, want.fmt.f), sig.scale)
    if ref_fits(want, lo, hi):
        assert fit_format_to_interval(sig, info.interval) == want
    else:
        with pytest.raises(CannotFitError, match=re.escape(str(want.fmt))):
            fit_format_to_interval(sig, info.interval)


@given(on_grid_infos(), st.integers(1, 20))
@settings(max_examples=400, deadline=None)
def test_plan_truncate_matches_fraction_reference(info, target):
    want = ref_truncate(info, target)
    if want == "cannot fit":
        with pytest.raises(CannotFitError):
            plan_truncate(info, target)
        return
    spec = plan_truncate(info, target)
    if want is None:
        assert spec is None
        return
    assert (spec.drop_f, info.width - spec.drop_f - target, spec.signal,
            spec.interval.lo, spec.interval.hi,
            spec.added_error.as_fraction(), Fraction(2) ** spec.eff_exp) == want


@given(on_grid_infos(), on_grid_infos(),
       st.sampled_from([(False, False), (False, True), (True, False)]),
       st.integers(2, 12), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_plan_add_matches_fraction_reference(a, b, negate, headroom, extra):
    width = min(a.signal.fmt.f, b.signal.fmt.f) + headroom
    spec = plan_add(a, b, negate, width, extra)

    def read(v: NodeInfo):
        return (v.signal, v.interval.lo, v.interval.hi, v.err.as_fraction(), v.eff)

    assert (spec.shift_a, spec.shift_b, read(spec.a_view), read(spec.b_view),
            read(spec.result)) == ref_add(a, b, negate, width, extra)
