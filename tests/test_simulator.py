"""Bit-accurate execution, references, vectors, stats."""

import dataclasses
import hashlib
import io
import itertools
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpsynt.config import Config
from fpsynt.core import Dfg, NodeKind, Quantize, ScaledSignal, SifFormat, decode, encode
from fpsynt.errors import InternalOverflowError, ParseError, VectorError
from fpsynt.parser import MAX_DIGITS, parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.simulator import (BLOCK, VectorSet, _out_of_range, _quantize_column, compare,
                              fits_int64, generate_vectors, load_vectors_csv,
                              run_fixed, run_fixed_columns, run_reference_columns,
                              save_vectors_csv,
                              stats_from_deviations)
from fpsynt.simulator import TestVector as Vec

from conftest import FIR4_SRC, child_env, exact_eval

TWO_TAP_SRC = ("input x0 : sif(1/0/7);\ninput x1 : sif(1/0/7);\n"
               "const w0 = 0.3;\nconst w1 = 0.6;\n"
               "output y = w0*x0 + w1*x1;\n")


def test_all_zero_vector():
    plan = synthesize(FIR4_SRC)
    raw, value = run_fixed(plan, Vec((0, 0, 0, 0)))["y"]
    assert raw == 0 and value == 0


def test_single_hot_input_close_to_coefficient():
    plan = synthesize(FIR4_SRC)
    top = SifFormat(1, 0, 15).max_raw
    raw, value = run_fixed(plan, Vec((top, 0, 0, 0)))["y"]
    exact = Fraction(15, 100) * Fraction(top, 1 << 15)
    assert abs(value - exact) <= plan.cost


def test_two_tap_exhaustive_within_bound_and_max_is_tight():
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    dfg, bindings = parse_spec(TWO_TAP_SRC)
    fmt = SifFormat(1, 0, 7)
    every = range(fmt.min_raw, fmt.max_raw + 1)
    vecset = VectorSet(("x0", "x1"), np.array(list(itertools.product(every, every))))
    raws = run_fixed_columns(plan, vecset.raws)["y"].tolist()
    grid = plan.info["y"].signal.grid
    devs = []
    for (a, b), raw in zip(itertools.product(every, every), raws, strict=True):
        exact = exact_eval(dfg, bindings,
                           {"x0": decode(a, fmt), "x1": decode(b, fmt)})["y"]
        devs.append(abs(raw * grid - exact))
    assert max(devs) <= plan.cost

    stats = compare(plan, vecset, mode="exact")
    assert stats.max == float(max(devs))


def _row(vec: Vec) -> np.ndarray:
    """The one-row raw matrix of ``vec``."""
    return np.array([vec.raws], dtype=object)


def test_reference_exact_mode_sums_coefficients():
    plan = synthesize(FIR4_SRC)
    top = SifFormat(1, 0, 15).max_raw
    # reference with every input at +1 requires unquantized inputs; feed the
    # closest representable sample and compare exactly
    ref = run_reference_columns(plan, _row(Vec((top,) * 4)), "exact")["y"][0]
    assert ref == Fraction(top, 1 << 15) * Fraction(1)
    zero = run_reference_columns(plan, _row(Vec((0, 0, 0, 0))), "exact")["y"][0]
    assert zero == 0
    with pytest.raises(ValueError, match="unknown reference mode 'bogus'"):
        run_reference_columns(plan, _row(Vec((0, 0, 0, 0))), "bogus")


def test_reference_double_close_to_exact():
    plan = synthesize(FIR4_SRC)
    vecset = generate_vectors(plan.bindings, 50, seed=3)
    for vec in vecset.vectors:
        d = run_reference_columns(plan, _row(vec), "double")["y"][0]
        e = run_reference_columns(plan, _row(vec), "exact")["y"][0]
        assert abs(d - float(e)) <= 1e-12


def test_identity_plan_has_zero_stats():
    plan = synthesize("input x : sif(1/0/15);\noutput y = x;\n")
    vecset = generate_vectors(plan.bindings, 20, seed=9)
    stats = compare(plan, vecset)
    assert stats.min == stats.max == stats.mean == stats.median == 0.0
    # a spec with no inputs: n + 3 vectors of no columns, each exact
    plan = synthesize("const c = 0.5;\noutput y = c*0.25 + c;\n")
    vecset = generate_vectors(plan.bindings, 20, seed=9)
    assert vecset.raws.shape == (23, 0)
    stats = compare(plan, vecset)
    assert stats.count == 23 and stats.max == 0.0


def test_generate_vectors_contract():
    _, bindings = parse_spec(FIR4_SRC)
    a = generate_vectors(bindings, 90, seed=42)
    b = generate_vectors(bindings, 90, seed=42)
    assert len(a) == 93
    assert a == b                       # deterministic for a given seed
    c = generate_vectors(bindings, 90, seed=43)
    assert a != c
    assert len(generate_vectors(bindings, 1, seed=0)) == 4

    fmt = SifFormat(1, 0, 15)
    assert a.vectors[0].raws == (0, 0, 0, 0)
    assert a.vectors[1].raws == (fmt.min_raw,) * 4
    assert a.vectors[2].raws == (fmt.max_raw,) * 4


def test_corner_vector_reference_value():
    plan = synthesize(FIR4_SRC)
    vecset = generate_vectors(plan.bindings, 1, seed=0)
    all_max = vecset.vectors[2]
    ref = run_reference_columns(plan, _row(all_max), "exact")["y"][0]
    assert ref == Fraction((1 << 15) - 1, 1 << 15)  # coefficients sum to one


def test_csv_round_trip(tmp_path):
    _, bindings = parse_spec(FIR4_SRC)
    vecset = generate_vectors(bindings, 10, seed=5)
    path = tmp_path / "vectors.csv"
    save_vectors_csv(path, bindings, vecset)
    loaded = load_vectors_csv(path, bindings)
    assert loaded.inputs == vecset.inputs
    assert loaded.vectors == vecset.vectors


def test_csv_errors():
    _, bindings = parse_spec(TWO_TAP_SRC)
    with pytest.raises(VectorError, match="row 3"):
        load_vectors_csv(io.StringIO("x0,x1\n0.5,0.5\n0.25\n"), bindings)
    with pytest.raises(VectorError, match="header"):
        load_vectors_csv(io.StringIO("x1,x0\n0.5,0.5\n"), bindings)
    with pytest.raises(VectorError, match="malformed"):
        load_vectors_csv(io.StringIO("x0,x1\n0.5,abc\n"), bindings)
    with pytest.raises(VectorError, match="row 2.*x1"):
        load_vectors_csv(io.StringIO("x0,x1\n0.5,1.5\n"), bindings)
    with pytest.raises(VectorError, match="empty"):
        load_vectors_csv(io.StringIO(""), bindings)
    with pytest.raises(VectorError, match="no data rows"):
        load_vectors_csv(io.StringIO("x0,x1\n"), bindings)
    # a blank line is skipped, and the next row's error names its file line
    with pytest.raises(VectorError, match="row 3.*x1"):
        load_vectors_csv(io.StringIO("x0,x1\n\n0.5,1.5\n"), bindings)
    with pytest.raises(VectorError, match="not UTF-8"):
        load_vectors_csv(io.TextIOWrapper(io.BytesIO(b"x0,x1\n0.5,\xe9\n"), "utf-8"), bindings)
    with pytest.raises(VectorError, match="row 2: field larger than field limit"):
        load_vectors_csv(io.StringIO("x0,x1\n0.5," + "1" * 140_000 + "\n"), bindings)
    # a decimal exponent is bounded as a spec literal's is, so this is quick
    start = time.perf_counter()
    with pytest.raises(VectorError, match="row 2: exponent exceeds 999"):
        load_vectors_csv(io.StringIO("x0,x1\n0.5,1e-9999999\n"), bindings)
    assert time.perf_counter() - start < 1
    # an exponent of that size itself still loads
    assert load_vectors_csv(io.StringIO("x0,x1\n1e-999,-5E-1\n"), bindings).vectors[0].raws \
        == (0, -64)
    # one decimal per cell: Fraction's other forms are refused
    for cell in ("1/3", "1_0"):
        with pytest.raises(VectorError, match="row 2: malformed number"):
            load_vectors_csv(io.StringIO(f"x0,x1\n0.5,{cell}\n"), bindings)
    # rows are named by file line, also after a record that spans two lines
    with pytest.raises(VectorError, match="row 5: malformed number"):
        load_vectors_csv(io.StringIO('x0,x1\n0.5,0.5\n"0.5\n",0.5\n0.5,abc\n'), bindings)
    # a cell has at most MAX_DIGITS digits, as a spec literal does
    with pytest.raises(VectorError, match=f"row 2: '1+'... has over {MAX_DIGITS} digits"):
        load_vectors_csv(io.StringIO("x0,x1\n0.5," + "1" * 5000 + "\n"), bindings)
    assert load_vectors_csv(io.StringIO("x0,x1\n.5,-.25\n+0.5,0\n"), bindings).raws.tolist() \
        == [[64, -32], [64, 0]]


def test_csv_digit_bound_is_the_spec_bound():
    """A vector cell and a spec literal share ``parser.MAX_DIGITS``: a cell
    of 2,000 digits loads, one more is refused with its file line, and a
    cell past the float range is a range error, not a traceback."""
    _, bindings = parse_spec(TWO_TAP_SRC)
    cell = "0." + "1" * (MAX_DIGITS - 1)
    assert load_vectors_csv(io.StringIO(f"x0,x1\n0.5,{cell}\n"), bindings).raws.tolist() \
        == [[64, 14]]
    over = "0." + "1" * 3000
    with pytest.raises(ParseError, match=f"has over {MAX_DIGITS} digits"):
        parse_spec(f"const c = {over};\noutput y = c;\n")
    for bad in (cell + "1", over):
        with pytest.raises(VectorError, match=f"^row 3: '0.1+'... has over {MAX_DIGITS} digits$"):
            load_vectors_csv(io.StringIO(f"x0,x1\n0.5,0.5\n{bad},0.5\n"), bindings)
    # an exponent's leading zeros count as digits: int() reads them all
    padded = "1e-" + "0" * 5000 + "1"
    with pytest.raises(VectorError, match=f"row 2: '1e-0+'... has over {MAX_DIGITS} digits"):
        load_vectors_csv(io.StringIO(f"x0,x1\n0.5,{padded}\n"), bindings)
    with pytest.raises(ParseError, match=f"2:12: '1e-0+'... has over {MAX_DIGITS} digits"):
        parse_spec(f"input x : sif(1/0/7);\noutput y = {padded}*x;\n")
    for big, shown in (("1e999", "1.000e+999"), ("-" + "9" * MAX_DIGITS, "-1.000e+2000")):
        with pytest.raises(VectorError, match=re.escape(f"row 2: input 'x1': value {shown} is outside")):
            load_vectors_csv(io.StringIO(f"x0,x1\n0.5,{big}\n"), bindings)


def test_csv_byte_order_mark_in_a_stream():
    """A stream that opens with U+FEFF reads as the same text without it,
    also where the first header cell is quoted."""
    _, bindings = parse_spec(TWO_TAP_SRC)
    for text in ("x0,x1\n0.5,-0.25\n", '"x0",x1\r\n0.5,-0.25\r\n'):
        assert load_vectors_csv(io.StringIO("\ufeff" + text), bindings).vectors \
            == load_vectors_csv(io.StringIO(text), bindings).vectors


def test_csv_of_only_a_byte_order_mark_is_empty(tmp_path):
    """A source that holds only U+FEFF is an empty vector file, as a stream
    and by path."""
    _, bindings = parse_spec(TWO_TAP_SRC)
    path = tmp_path / "bom.csv"
    path.write_text("\ufeff", encoding="utf-8")
    for source in (io.StringIO("\ufeff"), path):
        with pytest.raises(VectorError, match="^vector file is empty$"):
            load_vectors_csv(source, bindings)


def test_vector_quantization_mode_recorded():
    _, bindings = parse_spec(TWO_TAP_SRC)
    vecset = load_vectors_csv(io.StringIO("x0,x1\n0.111,0.222\n"), bindings,
                              Quantize.TRUNC)
    assert vecset.quantize is Quantize.TRUNC
    fmt = SifFormat(1, 0, 7)
    assert vecset.vectors[0].raws == (int(0.111 * 128), int(0.222 * 128))


def test_overflow_check_never_fires_on_random_vectors():
    plan = synthesize(FIR4_SRC)
    vecset = generate_vectors(plan.bindings, 500, seed=11)
    run_fixed_columns(plan, vecset.raws)  # raises InternalOverflowError on a planner bug


def test_stats_invariants_on_known_data():
    stats = stats_from_deviations([0.5, 0.1, 0.4, 0.2])
    assert stats.min == 0.1 and stats.max == 0.5
    assert stats.median == 0.2            # lower middle of an even count
    assert stats.count == 4
    assert abs(stats.mean - 0.3) < 1e-15


@given(st.lists(st.floats(min_value=0, max_value=1e3, allow_nan=False), min_size=1))
@settings(max_examples=200)
@example(devs=[10.842168179762918] * 3)   # a plain float mean rounds below min
def test_stats_invariants_property(devs):
    stats = stats_from_deviations(devs)
    assert stats.min <= stats.median <= stats.max
    assert stats.min <= stats.mean <= stats.max
    assert stats.count == len(devs)


@given(st.lists(st.floats(min_value=0, allow_nan=False, allow_infinity=False,
                          allow_subnormal=True), min_size=1))
@settings(max_examples=500)
@example(devs=[10.842168179762918] * 3)
@example(devs=[5e-324, 1e-320, 2.2250738585072014e-308, 1e-310])  # subnormals
@example(devs=[1e300, 3e299, 1.0, 5e-324])
@example(devs=[1.7976931348623157e308] * 2)   # the sum passes the largest float
def test_mean_is_bit_equal_to_statistics_mean(devs):
    assert stats_from_deviations(devs).mean.hex() == statistics.mean(devs).hex()


_NAN_DEVIATIONS = """\
from fpsynt.simulator import stats_from_deviations
for devs in ([1.0, float("nan")], [float("nan")]):
    try:
        stats_from_deviations(devs)
    except ValueError as e:
        print("ValueError:", e)
"""


def test_a_nan_deviation_is_a_value_error():
    """A NaN makes every fsum NaN, which is never 0. The child process
    bounds the wait, as a hang in this one could not be stopped."""
    proc = subprocess.run([sys.executable, "-c", _NAN_DEVIATIONS], capture_output=True,
                          text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 and all(ln.startswith("ValueError:") and "NaN" in ln for ln in lines)


# ---------------------------------------------------------------------------
# the column-wise simulator against exact per-value references


def scalar_fixed(plan, raws) -> tuple[int, ...]:
    """Per-value execution with Python integers: output raws of one vector,
    or InternalOverflowError at the first node in order that leaves its
    format's range."""
    vals = dict(zip(plan.bindings.inputs, raws))
    for nid in plan.graph.level_first:
        node = plan.graph.node(nid)
        ops = [vals[op] for op in node.operands]
        if node.kind is NodeKind.INPUT:
            v = vals[nid]
        elif node.kind is NodeKind.CONST:
            v = plan.const_raws[nid]
        elif node.kind is NodeKind.MUL:
            v = ops[0] * ops[1]
        elif node.kind is NodeKind.ADD:
            v = sum(-x if neg else x for x, neg in zip(ops, node.negate))
        elif node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            v = ops[0] >> node.amount
        else:
            v = ops[0]
        fmt = plan.info[nid].signal.fmt
        if not fmt.min_raw <= v <= fmt.max_raw:
            raise InternalOverflowError(nid, v)
        vals[nid] = v
    return tuple(vals[o] for o in plan.output_ids)


def scalar_double(plan, raws) -> dict:
    """Per-value double evaluation of the source graph with Python floats."""
    vals = {name: float(decode(raw, plan.bindings.input_format(name)))
            for name, raw in zip(plan.bindings.inputs, raws)}
    for nid in plan.source.level_first:
        node = plan.source.node(nid)
        ops = [vals[op] for op in node.operands]
        if node.kind is NodeKind.CONST:
            vals[nid] = float(node.value)
        elif node.kind is NodeKind.MUL:
            vals[nid] = ops[0] * ops[1]
        elif node.kind is NodeKind.ADD:
            a, b = [-x if neg else x for x, neg in zip(ops, node.negate)]
            vals[nid] = a + b
        elif node.kind is NodeKind.OUTPUT:
            vals[nid] = ops[0]
    return {o: vals[o] for o in plan.source.output_ids}


def _assert_columns_match_scalar(plan, vecset):
    cols = run_fixed_columns(plan, vecset.raws)
    got = list(zip(*(cols[o].tolist() for o in plan.output_ids)))
    assert got == [scalar_fixed(plan, v.raws) for v in vecset.vectors]


WIDE_SRC = ("input a : sif(1/0/40);\ninput b : sif(1/0/40);\nconst k = 0.3;\n"
            "output y = a * b + k*a;\n")


def _replace_node(plan, nid, **changes):
    """A copy of ``plan`` whose node ``nid`` has ``changes`` applied."""
    nodes = tuple(dataclasses.replace(n, **changes) if n.id == nid else n
                  for n in plan.graph.nodes)
    return dataclasses.replace(plan, graph=Dfg(nodes))


def _narrow(plan, nid, fmt):
    """A copy of ``plan`` whose node ``nid`` has the format ``fmt``."""
    info = plan.info[nid]
    signal = ScaledSignal(fmt, info.signal.scale)
    return dataclasses.replace(plan, info={**plan.info,
                                           nid: dataclasses.replace(info, signal=signal)})


@pytest.mark.parametrize("mode", [Quantize.ROUND, Quantize.TRUNC])
def test_generate_vectors_matches_per_value_encode(mode):
    # one rng.uniform call per value, then Fraction -> encode: the old path
    rng = random.Random(6 if mode is Quantize.ROUND else 7)
    rows = 0
    for trial in range(150):
        sifs = [(1, rng.randint(0, 40), rng.randint(0, 70)) for _ in range(rng.randint(1, 4))]
        src = ("".join(f"input x{k} : sif({s}/{i}/{f});\n" for k, (s, i, f) in enumerate(sifs))
               + "output y = x0;\n")
        _, bindings = parse_spec(src)
        fmts = [SifFormat(*sif) for sif in sifs]
        vecset = generate_vectors(bindings, 300, seed=trial, mode=mode)
        draws = np.random.default_rng(trial)
        want = [(0,) * len(fmts), tuple(f.min_raw for f in fmts),
                tuple(f.max_raw for f in fmts)]
        for _ in range(300):
            want.append(tuple(
                encode(Fraction(float(draws.uniform(float(f.min_value), float(f.max_value)))),
                       f, mode) for f in fmts))
        assert [v.raws for v in vecset.vectors] == want, sifs
        wide = any(f.i + f.f > 63 for f in fmts)
        assert vecset.raws.dtype == (object if wide else np.int64)
        rows += len(want)
    assert rows == 150 * 303


def test_quantize_column_ties_and_large_values():
    values = [0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994, -0.49999999999999994,
              2.0 ** 52 - 0.5, -(2.0 ** 52) + 0.5, 2.0 ** 52 + 2, 2.0 ** 60, -(2.0 ** 62),
              1e-300, -1e-300, 0.0, -0.0, 12345.75, -12345.25]
    fmt = SifFormat(1, 62, 0)
    for mode in Quantize:
        got = _quantize_column(np.array(values), fmt, mode).tolist()
        assert got == [encode(Fraction(v), fmt, mode) for v in values]
    wide = SifFormat(1, 80, 0)
    got = _quantize_column(np.array([2.0 ** 79, -(2.0 ** 80), 3.5]), wide, Quantize.ROUND)
    assert got.dtype == object and got.tolist() == [2 ** 79, -(2 ** 80), 4]


def test_out_of_range_is_exact():
    # value * 2^F against [min_raw, max_raw], also where max_raw is no float
    for fmt in (SifFormat(1, 3, 7), SifFormat(1, 20, 50), SifFormat(1, 30, 40)):
        top = fmt.i + fmt.f
        below = np.nextafter(2.0 ** top, 0)
        values = [-(2.0 ** top), np.nextafter(-(2.0 ** top), -np.inf), below,
                  2.0 ** top, float(fmt.max_raw), 0.0, -0.5]
        want = [not fmt.min_raw <= Fraction(v) <= fmt.max_raw for v in values]
        assert _out_of_range(np.array(values), fmt).tolist() == want, fmt


def test_object_columns_when_a_product_bound_exceeds_int64():
    plan = synthesize(WIDE_SRC, Config(width=64))
    assert any(plan.info[n.id].width > 64 for n in plan.graph.nodes)  # 82-bit products
    assert not fits_int64(plan)
    vecset = generate_vectors(plan.bindings, 2000, seed=4)
    _assert_columns_match_scalar(plan, vecset)
    assert run_fixed_columns(plan, vecset.raws)["y"].dtype == object

    dfg, bindings = parse_spec(WIDE_SRC)
    fmt = SifFormat(1, 0, 40)
    grid = plan.info["y"].signal.grid
    devs = [abs(scalar_fixed(plan, v.raws)[0] * grid
                - exact_eval(dfg, bindings, {"a": decode(v.raws[0], fmt),
                                             "b": decode(v.raws[1], fmt)})["y"])
            for v in vecset.vectors]
    assert max(devs) <= plan.cost
    assert compare(plan, vecset, mode="exact") == stats_from_deviations(devs)


def test_64_bit_products_stay_on_int64():
    # 32-bit operands: the 64-bit product nodes are bounded by 2^62
    src = ("input x0 : sif(1/0/31);\ninput x1 : sif(1/0/31);\n"
           "const a = 0.731;\nconst b = -0.402;\noutput y = a*x0 + b*x1;\n")
    plan = synthesize(src, Config(width=32))
    assert max(info.width for info in plan.info.values()) == 64
    assert fits_int64(plan)
    vecset = generate_vectors(plan.bindings, 3000, seed=8)
    _assert_columns_match_scalar(plan, vecset)
    assert run_fixed_columns(plan, vecset.raws)["y"].dtype == np.int64


MATVEC_SRC = ("input x0 : sif(1/0/15);\ninput x1 : sif(1/2/13);\n"
              "const a = 0.731;\nconst b = -0.402;\nconst c = 1.25;\n"
              "output y0 = a*x0 - b*x1;\noutput y1 = c*x1 + x0*x1;\n")


@pytest.mark.parametrize("src,cfg", [(FIR4_SRC, Config()), (MATVEC_SRC, Config(width=16)),
                                     (WIDE_SRC, Config(width=64))],
                         ids=["fir4", "two-outputs", "object"])
def test_compare_matches_per_value_loop(src, cfg):
    plan = synthesize(src, cfg)
    vecset = generate_vectors(plan.bindings, 5000, seed=21)  # two blocks
    dfg, bindings = parse_spec(src)
    double, exact = [], []
    for vec in vecset.vectors:
        raws = dict(zip(plan.output_ids, scalar_fixed(plan, vec.raws)))
        fixed = {o: plan.info[o].signal.value_of(raws[o]) for o in plan.output_ids}
        ref = scalar_double(plan, vec.raws)
        double.append(max(abs(float(fixed[o]) - ref[o]) for o in plan.output_ids))
        values = {n: decode(r, bindings.input_format(n))
                  for n, r in zip(bindings.inputs, vec.raws)}
        true = exact_eval(dfg, bindings, values)
        exact.append(max(abs(fixed[o] - true[o]) for o in plan.output_ids))
    assert compare(plan, vecset) == stats_from_deviations(double)
    assert compare(plan, vecset, mode="exact") == stats_from_deviations(exact)
    assert max(exact) <= plan.cost


def test_blocks_and_a_batch_of_one_agree():
    plan = synthesize(FIR4_SRC)
    vecset = generate_vectors(plan.bindings, 10_000, seed=12)  # three blocks
    cols = run_fixed_columns(plan, vecset.raws)["y"]
    ref = run_reference_columns(plan, vecset.raws)["y"]
    for k in range(0, len(vecset), 331):
        vec = vecset.vectors[k]
        assert run_fixed(plan, vec)["y"][0] == cols[k] == scalar_fixed(plan, vec.raws)[0]
        assert run_reference_columns(plan, _row(vec))["y"][0] == ref[k]


def test_narrowed_node_overflows_on_int64():
    plan = synthesize(FIR4_SRC)
    assert fits_int64(plan)
    bad = _narrow(plan, "t3", SifFormat(1, 0, 28))  # two bits short of w2 * x2
    assert fits_int64(bad)
    vecset = generate_vectors(plan.bindings, 100, seed=1)
    with pytest.raises(InternalOverflowError) as exc:
        run_fixed_columns(bad, vecset.raws)
    assert exc.value.node_id == "t3"
    with pytest.raises(InternalOverflowError) as ref:
        scalar_fixed(bad, vecset.vectors[1].raws)  # all-minimum
    assert ref.value.node_id == "t3"
    with pytest.raises(InternalOverflowError):
        compare(bad, vecset)


def test_narrowed_node_overflows_on_object_where_int64_would_wrap():
    src = "input a : sif(1/0/40);\ninput b : sif(1/0/40);\noutput y = a * b;\n"
    plan = synthesize(src, Config(width=64))
    bad = plan
    for n in plan.graph.nodes:  # the 82-bit product and the 64-bit words after it
        if plan.info[n.id].width > 63:
            bad = _narrow(bad, n.id, SifFormat(1, 0, 62))
    assert max(info.width for info in bad.info.values()) == 63
    assert not fits_int64(bad)  # |a| * |b| <= 2^80, whatever the node widths
    raws = np.array([[1 << 32, 1 << 32]])
    # in int64, 2^32 * 2^32 wraps to 0, inside the narrowed range
    assert (raws[:, 0] * raws[:, 1]).tolist() == [0]
    with pytest.raises(InternalOverflowError) as exc:
        run_fixed_columns(bad, raws)
    assert (exc.value.node_id, exc.value.raw) == ("t0", 1 << 64)
    with pytest.raises(InternalOverflowError) as ref:
        scalar_fixed(bad, (1 << 32, 1 << 32))
    assert (ref.value.node_id, ref.value.raw) == ("t0", 1 << 64)


@pytest.mark.parametrize("src,cfg", [(FIR4_SRC, Config()), (WIDE_SRC, Config(width=64))],
                         ids=["int64", "object"])
def test_shift_amounts_of_64_and_more(src, cfg):
    plan = synthesize(src, cfg)
    vecset = generate_vectors(plan.bindings, 500, seed=2)
    shifts = [n.id for n in plan.graph.nodes if n.kind in (NodeKind.SHR, NodeKind.TRUNC)]
    assert shifts
    for amount in (63, 64, 65, 100, 1000, 1 << 70):
        for nid in shifts:
            shifted = _replace_node(plan, nid, amount=amount)
            assert fits_int64(shifted) == fits_int64(plan)
            _assert_columns_match_scalar(shifted, vecset)


def test_save_vectors_csv_bytes_and_round_trip(tmp_path):
    # the digests of the files the per-value writer made
    want = {Quantize.ROUND: "eac2e05b3a7c16a68707f5857aee606b4231ff4964a248c5b1c2bc546be20bfa",
            Quantize.TRUNC: "299f821557798a5f86ac5248a56eaf51a0de0cbff6d7e049f38c1c3970f2ed4d"}
    with open("demos/specs/fir4.fps") as fh:
        _, bindings = parse_spec(fh.read())
    for mode, digest in want.items():
        vecset = generate_vectors(bindings, 90, seed=1, mode=mode)
        path = tmp_path / f"{mode.value}.csv"
        save_vectors_csv(path, bindings, vecset)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        assert load_vectors_csv(path, bindings, mode) == vecset


@pytest.mark.parametrize("mode", [Quantize.TRUNC, Quantize.ROUND])
@pytest.mark.parametrize("f", [19, 31, 52, 63])
def test_saved_vectors_load_back_exactly(f, mode, tmp_path):
    """Past 16 fraction bits a value's float text is often not its exact
    value, so the file holds that value's exact decimal instead."""
    _, bindings = parse_spec(f"input x0 : sif(1/0/{f});\ninput x1 : sif(1/0/{f});\n"
                             "output y = x0 + x1;\n")
    fmt = bindings.input_format("x0")
    rng = random.Random(f)
    rows = [[fmt.min_raw] * 2, [fmt.max_raw] * 2] + \
        [[rng.randint(fmt.min_raw, fmt.max_raw) for _ in range(2)] for _ in range(500)]
    vecset = VectorSet(("x0", "x1"), np.array(rows, dtype=object), mode)
    path = tmp_path / "vectors.csv"
    save_vectors_csv(path, bindings, vecset)
    assert load_vectors_csv(path, bindings, mode) == vecset


def test_vector_set_equality_is_by_value():
    rows = [[1, -2], [3, 4]]
    a = VectorSet(("x", "y"), np.array(rows))
    assert a == VectorSet(("x", "y"), np.array(rows, dtype=object))
    assert a != VectorSet(("x", "y"), np.array([[1, -2], [3, 5]]))
    assert a != VectorSet(("x", "y"), np.array(rows), Quantize.TRUNC)
    assert a.vectors == (Vec((1, -2)), Vec((3, 4)))
    assert VectorSet(("x",), np.array([[1 << 63]])).vectors == (Vec((1 << 63,)),)
    with pytest.raises(ValueError):
        VectorSet(("x",), np.array(rows))


# ---------------------------------------------------------------------------
# a stacked matrix per block; statistics on arrays


@pytest.mark.parametrize("columns", ["int64", "object"])
def test_a_violation_in_a_later_block_names_the_scalar_node_and_raw(columns):
    """One row, in the third block, leaves a narrowed node's range: the
    stacked matrix names the node and the raw that per-value execution
    stops at. The rows around it are in range."""
    if columns == "int64":
        plan = synthesize(FIR4_SRC)
        bad = _narrow(plan, "t3", SifFormat(1, 0, 28))  # two bits short of w2 * x2
        row = [bad.bindings.input_format(x).min_raw for x in bad.bindings.inputs]
        raws = np.zeros((3 * BLOCK + 10, len(row)), dtype=np.int64)
    else:
        plan = synthesize("input a : sif(1/0/40);\ninput b : sif(1/0/40);\noutput y = a * b;\n",
                          Config(width=64))
        bad = plan
        for n in plan.graph.nodes:
            if plan.info[n.id].width > 63:
                bad = _narrow(bad, n.id, SifFormat(1, 0, 62))
        row = [1 << 32, 1 << 32]  # in int64, 2^32 * 2^32 wraps to 0
        raws = np.ones((3 * BLOCK + 10, 2), dtype=np.int64)
    assert fits_int64(bad) == (columns == "int64")
    at = 2 * BLOCK + 7
    raws[at] = row
    with pytest.raises(InternalOverflowError) as ref:
        scalar_fixed(bad, row)
    with pytest.raises(InternalOverflowError) as got:
        run_fixed_columns(bad, raws)
    assert (got.value.node_id, got.value.raw) == (ref.value.node_id, ref.value.raw)
    run_fixed_columns(bad, np.delete(raws, at, axis=0))  # every other row is in range


def test_compare_works_out_fits_int64_once(monkeypatch):
    plan = synthesize(FIR4_SRC)
    vecset = generate_vectors(plan.bindings, 100, seed=3)
    calls = []
    real = fits_int64
    monkeypatch.setattr("fpsynt.simulator.fits_int64", lambda p: calls.append(p) or real(p))
    compare(plan, vecset)
    assert len(calls) == 1


_SPECIAL_DEVIATIONS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300,
                       1.7976931348623157e308, 1.9999999999999998]


def test_stats_on_floats_and_arrays_equal_sorted_and_statistics_mean():
    """On seeded lists of zeros, subnormals, 1e300, the largest float, inf
    and negatives, given as a list or an array: min, max and the lower
    median are those of ``sorted``, zeros with their signs, and the mean is
    ``statistics.mean``'s, bit for bit."""
    rng = random.Random(41)
    lists = [[-0.0, 0.0, -0.0], [0.0, -0.0], [float("inf"), 1.0], [0.0, float("inf")] * 2,
             [1.7976931348623157e308] * 20003, [1.9999999999999998] * 20003,
             [rng.choice(_SPECIAL_DEVIATIONS) for _ in range(20003)]]
    # zeros of both signs among few values, where an unstable sort moves them
    lists += [[rng.choice([0.0, -0.0, 0.0, 1.0, 2.0]) for _ in range(n)]
              for n in (20, 50, 100, 1000)]
    for _ in range(300):
        lists.append([rng.choice(_SPECIAL_DEVIATIONS) if rng.random() < 0.4
                      else rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 300)
                      for _ in range(rng.randint(1, 80))])

    def bits(x):
        return x.hex() if isinstance(x, float) else x

    for vals in lists:
        ordered = sorted(vals)
        want = [ordered[0], ordered[-1], statistics.mean(vals), ordered[(len(vals) - 1) // 2],
                len(vals)]
        for given in (vals, np.array(vals)):
            s = stats_from_deviations(given)
            assert list(map(bits, (s.min, s.max, s.mean, s.median, s.count))) == \
                list(map(bits, want)), vals[:5]
            assert all(type(x) is float for x in (s.min, s.max, s.mean, s.median))
