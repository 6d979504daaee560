"""Interval propagation, format inference, formatting ops, error bounds."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from fpsynt.analysis import (Interval, NodeInfo, PlanBuilder, check_plan,
                             choose_const_format, find_chains,
                             fit_format_to_interval, infer_product_format,
                             mul_error_bound, plan_add, plan_truncate, point)
from fpsynt.config import Config
from fpsynt.core import Node, NodeKind, ScaledSignal, SifFormat, decode
from fpsynt.errors import CannotFitError
from fpsynt.parser import parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.simulator import run_fixed_columns

from conftest import FIR4_SRC, exact_eval, interval_eval


def info(fmt, scale=0, interval=None, err=Fraction(0)):
    sig = ScaledSignal(fmt, scale)
    if interval is None:
        interval = Interval(sig.min_value, sig.max_value)
    return NodeInfo(sig, interval, err)


# ---------------------------------------------------------------------------
# intervals


def test_mul_interval_against_const():
    x = Interval(Fraction(-1), Fraction(1) - Fraction(1, 1 << 15))
    w = point(Fraction(15, 100))
    prod = x * w
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
    plan = PlanBuilder(dfg, bindings, Config(width=16)).build()

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
    assert spec.added_error == Fraction(1, 1 << 15)
    assert abs(float(spec.added_error) - 0.000031) < 2e-6


def test_truncate_noop_when_already_fitting():
    base = info(SifFormat(1, 0, 15))
    assert plan_truncate(base, 16) is None


def test_truncate_product_to_word_width():
    # (2/0/30) product of two (1/0/15) words -> (1/0/15): one redundant sign
    # and 15 fraction LSBs dropped
    x = Interval(Fraction(-1), Fraction(1) - Fraction(1, 1 << 15))
    w = point(Fraction(4915, 1 << 15))
    base = NodeInfo(ScaledSignal(SifFormat(2, 0, 30)), x * w, Fraction(0))
    spec = plan_truncate(base, 16)
    assert spec.signal.fmt == SifFormat(1, 0, 15)
    assert spec.drop_f == 15 and spec.drop_msbs == 1
    assert spec.added_error == Fraction((1 << 15) - 1, 1 << 30)


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
    assert spec.a_view.signal.fmt.f == spec.b_view.signal.fmt.f == spec.f_star
    assert spec.a_view.signal.scale == spec.b_view.signal.scale == spec.e_star


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
            assert spec.result.interval.contains(got)


def test_prescale_error_accounts_shift_loss():
    base = info(SifFormat(1, 0, 15))
    spec = plan_add(base, base, (False, False), width=16)
    per_shift = Fraction(1, 1 << 15)
    assert spec.result.err == 2 * per_shift


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
                 Fraction(1, 1000))
    b = NodeInfo(ScaledSignal(SifFormat(1, 1, 14)), Interval(Fraction(-2), Fraction(2)),
                 Fraction(1, 500))
    got = mul_error_bound(a, b)
    expected = 1 * Fraction(1, 500) + 2 * Fraction(1, 1000) + Fraction(1, 1000) * Fraction(1, 500)
    assert got == expected


def test_mul_error_clamped_for_monotonicity():
    tiny = NodeInfo(ScaledSignal(SifFormat(1, 0, 15)),
                    point(Fraction(1, 100)), Fraction(0))
    noisy = NodeInfo(ScaledSignal(SifFormat(1, 0, 15)),
                     Interval(Fraction(-1), Fraction(1)), Fraction(1, 64))
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
            rng = ni.semantic_range()
            assert rng.lo <= ni.interval.lo and ni.interval.hi <= rng.hi


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
