"""SIF format semantics, encode/decode, graph ordering, and the value records."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsynt.analysis import AlignSpec, Interval, NodeInfo, TruncSpec
from fpsynt.core import (Dfg, Node, NodeKind, Quantize, ScaledSignal, SifFormat, decode,
                         depth_first_order, encode, post_order, sif_width, topo_order)
from fpsynt.errors import CycleError, MalformedRawError, RangeError
from fpsynt.parser import Token, parse_spec

from conftest import FIR4_SRC


@pytest.mark.parametrize("s,i,f,width", [(1, 0, 15, 16), (2, 3, 8, 13), (6, 3, 0, 9)])
def test_sif_width_16bit_table(s, i, f, width):
    assert sif_width(SifFormat(s, i, f)) == width


def test_format_invariants():
    with pytest.raises(ValueError):
        SifFormat(0, 4, 4)
    with pytest.raises(ValueError):
        SifFormat(1, -1, 4)
    fmt = SifFormat(2, 2, 4)
    assert fmt.min_raw == -64 and fmt.max_raw == 63
    assert fmt.min_value == -4 and fmt.max_value == Fraction(63, 16)


def test_decode_worked_example():
    # 0011.1101 in (2/2/4): integer 3, fraction 0.8125
    assert decode(0b00111101, SifFormat(2, 2, 4)) == Fraction(61, 16)
    assert float(decode(0b00111101, SifFormat(2, 2, 4))) == 3.8125


def test_decode_zero_and_all_ones():
    assert decode(0, SifFormat(2, 2, 4)) == 0
    # 16-bit all-ones word is raw -1 in two's complement
    raw = -1
    assert decode(raw, SifFormat(1, 0, 15)) == -Fraction(1, 1 << 15)


def test_decode_rejects_inconsistent_sign_bits():
    # (2/2/4): stored values must stay within +-2^6
    with pytest.raises(MalformedRawError):
        decode(64, SifFormat(2, 2, 4))
    with pytest.raises(MalformedRawError):
        decode(-65, SifFormat(2, 2, 4))


def test_encode_round_trip_of_worked_example():
    fmt = SifFormat(2, 2, 4)
    assert encode(Fraction(61, 16), fmt, Quantize.ROUND) == 0b00111101
    assert encode(0, fmt) == 0


def test_encode_rounds_to_nearest_with_exhaustive_oracle():
    fmt = SifFormat(1, 0, 15)
    v = Fraction(15, 100)
    got = encode(v, fmt, Quantize.ROUND)
    # oracle: nearest neighbor over every representable raw
    best = min(range(fmt.min_raw, fmt.max_raw + 1), key=lambda r: abs(decode(r, fmt) - v))
    assert got == best == 4915


def test_encode_tie_breaks_away_from_zero():
    fmt = SifFormat(1, 2, 1)
    assert encode(Fraction(5, 4), fmt, Quantize.ROUND) == 3   # 2.5 ulps -> 3
    assert encode(Fraction(-5, 4), fmt, Quantize.ROUND) == -3


def test_encode_trunc_floors_toward_negative_infinity():
    fmt = SifFormat(1, 2, 1)
    assert encode(Fraction(5, 4), fmt, Quantize.TRUNC) == 2
    assert encode(Fraction(-5, 4), fmt, Quantize.TRUNC) == -3


def test_encode_out_of_range():
    with pytest.raises(RangeError):
        encode(Fraction(2), SifFormat(1, 0, 15))
    with pytest.raises(RangeError):
        encode(Fraction(-3), SifFormat(1, 1, 6))


@pytest.mark.parametrize("fmt", [SifFormat(1, 0, 7), SifFormat(2, 2, 4),
                                 SifFormat(1, 3, 2), SifFormat(3, 1, 4)])
def test_roundtrip_exhaustive(fmt):
    for raw in range(fmt.min_raw, fmt.max_raw + 1):
        assert encode(decode(raw, fmt), fmt, Quantize.ROUND) == raw
        assert encode(decode(raw, fmt), fmt, Quantize.TRUNC) == raw


def test_decode_is_strictly_monotone():
    fmt = SifFormat(2, 1, 5)
    values = [decode(raw, fmt) for raw in range(fmt.min_raw, fmt.max_raw + 1)]
    assert all(a < b for a, b in zip(values, values[1:]))


@st.composite
def formats(draw):
    s = draw(st.integers(1, 3))
    i = draw(st.integers(0, 4))
    f = draw(st.integers(0, 10))
    return SifFormat(s, i, f)


@given(formats(), st.fractions())
@settings(max_examples=300)
def test_encode_error_bounds(fmt, v):
    lo, hi = fmt.min_value, fmt.max_value
    v = lo + abs(v) % (hi - lo) if hi > lo else lo
    for mode, bound in ((Quantize.ROUND, Fraction(1, 2 ** (fmt.f + 1))),
                        (Quantize.TRUNC, Fraction(1, 2 ** fmt.f))):
        err = abs(decode(encode(v, fmt, mode), fmt) - v)
        assert err <= bound
    # truncation is one-sided
    assert decode(encode(v, fmt, Quantize.TRUNC), fmt) <= v


def test_scaled_signal_semantics():
    sig = ScaledSignal(SifFormat(1, 0, 15), scale=1)
    assert sig.grid == Fraction(1, 1 << 14)
    assert sig.value_of(1 << 14) == 1


def test_scaled_signal_shift_invariance():
    # value is preserved by {raw >> 1, scale += 1} up to one truncated LSB
    fmt = SifFormat(1, 2, 4)
    for scale in (0, 1, 3):
        sig = ScaledSignal(fmt, scale)
        shifted = ScaledSignal(fmt, scale + 1)
        for raw in range(fmt.min_raw, fmt.max_raw + 1):
            before = sig.value_of(raw)
            after = shifted.value_of(raw >> 1)
            assert 0 <= before - after <= sig.grid  # at most the truncated LSB


def test_negative_scale_decodes_uniformly():
    sig = ScaledSignal(SifFormat(1, 2, 0), scale=-2)
    assert sig.value_of(3) == Fraction(3, 4)


def _info():
    # the error as a finished plan holds it: an ErrorBound is unhashable
    return NodeInfo(ScaledSignal(SifFormat(1, 0, 15)), Interval(-1, Fraction(1, 2)),
                    Fraction(1, 8))


_INFO_REPR = ("NodeInfo(signal=ScaledSignal(fmt=SifFormat(s=1, i=0, f=15), scale=0), "
              "interval=Interval(Fraction(-1, 1), Fraction(1, 2)), err=Fraction(1, 8), "
              "eff_exp=-15)")

# each record's factory, and the repr that frozen dataclasses gave it
RECORDS = {
    "SifFormat": (lambda: SifFormat(1, 0, 15), "SifFormat(s=1, i=0, f=15)"),
    "ScaledSignal": (lambda: ScaledSignal(SifFormat(2, 1, 4), -3),
                     "ScaledSignal(fmt=SifFormat(s=2, i=1, f=4), scale=-3)"),
    "Node": (lambda: Node("t0", NodeKind.ADD, ("a", "b"), negate=(False, True)),
             "Node(id='t0', kind=<NodeKind.ADD: 'add'>, operands=('a', 'b'), value=None, "
             "amount=0, negate=(False, True))"),
    "NodeInfo": (_info, _INFO_REPR),
    "TruncSpec": (lambda: TruncSpec(2, ScaledSignal(SifFormat(1, 0, 13)), Interval(-1, 0),
                                    Fraction(3, 1 << 15), -13),
                  "TruncSpec(drop_f=2, signal=ScaledSignal(fmt=SifFormat(s=1, i=0, f=13), "
                  "scale=0), interval=Interval(Fraction(-1, 1), Fraction(0, 1)), "
                  "added_error=Fraction(3, 32768), eff_exp=-13)"),
    "AlignSpec": (lambda: AlignSpec(0, 1, _info(), _info(), _info()),
                  f"AlignSpec(shift_a=0, shift_b=1, a_view={_INFO_REPR}, b_view={_INFO_REPR}, "
                  f"result={_INFO_REPR})"),
    "Token": (lambda: Token("ident", "x0", 3, 7), "Token(kind='ident', text='x0', line=3, col=7)"),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_value_records_are_slotted_and_compare_by_fields(name):
    """The records built in the thousands per synthesis hold no instance
    ``__dict__``, and compare, hash, copy and print as frozen dataclasses do:
    by their fields in order."""
    make, text = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    assert not hasattr(record, "__dict__")
    assert record == twin and record is not twin
    fields = tuple(getattr(record, f.name) for f in dataclasses.fields(record))
    assert hash(record) == hash(twin) == hash(fields)
    assert {record: name}[twin] == name and len({record, twin}) == 1
    assert dataclasses.replace(record) == record
    assert repr(record) == text


def test_topo_order_fir4_muls_before_adds():
    dfg, _ = parse_spec(FIR4_SRC)
    order = topo_order(dfg)
    kinds = [dfg.node(n).kind for n in order]
    first_add = kinds.index(NodeKind.ADD)
    assert [k for k in kinds[first_add:] if k is NodeKind.MUL] == []
    assert sum(1 for k in kinds[:first_add] if k is NodeKind.MUL) == 4


def test_topo_order_passthrough_and_diamond():
    dfg, _ = parse_spec("input x : sif(1/0/7);\noutput y = x;\n")
    assert topo_order(dfg) == ["x", "y"]

    a = Node("a", NodeKind.INPUT)
    b = Node("b", NodeKind.MUL, ("a", "a"))
    c = Node("c", NodeKind.MUL, ("a", "a"))
    d = Node("d", NodeKind.ADD, ("b", "c"))
    order = topo_order(Dfg((d, c, b, a)))  # declaration order is scrambled
    assert order.index("a") < order.index("b") < order.index("d")
    assert order.index("a") < order.index("c") < order.index("d")
    assert order[-1] == "d"


def test_topo_order_reports_cycles():
    a = Node("a", NodeKind.SHR, ("b",), amount=1)
    b = Node("b", NodeKind.SHR, ("a",), amount=1)
    with pytest.raises(CycleError) as exc:
        topo_order(Dfg((a, b)))
    assert "a" in exc.value.cycle and "b" in exc.value.cycle


def test_one_walk_gives_both_orders_and_each_graph_keeps_its_own():
    """post_order lists each node after its operands, left first, from the
    roots in order; the graph keeps topo_order and depth_first_order as
    tuples worked out once; an output that reads a cycle names it."""
    x, c = Node("x", NodeKind.INPUT), Node("c", NodeKind.CONST, value=Fraction(1, 2))
    unread = Node("u", NodeKind.INPUT)
    m = Node("m", NodeKind.MUL, ("c", "x"))
    s = Node("s", NodeKind.ADD, ("x", "m"))
    y, z = Node("y", NodeKind.OUTPUT, ("s",)), Node("z", NodeKind.OUTPUT, ("m",))
    dfg = Dfg((y, s, m, z, unread, x, c))
    assert post_order(dfg, ["z", "y"]) == ["c", "x", "m", "z", "s", "y"]
    assert dfg.level_first == tuple(topo_order(dfg)) == ("u", "x", "c", "m", "s", "z", "y")
    assert dfg.depth_first == tuple(depth_first_order(dfg)) == ("u", "x", "c", "m", "s", "y", "z")
    assert dfg.level_first is dfg.level_first and dfg.depth_first is dfg.depth_first
    a = Node("a", NodeKind.ADD, ("b", "x"))
    b = Node("b", NodeKind.ADD, ("a", "x"))
    with pytest.raises(CycleError, match="^cycle in dataflow graph: a -> b -> a$"):
        Dfg((x, a, b, Node("o", NodeKind.OUTPUT, ("a",)))).depth_first


def test_dfg_rejects_duplicate_and_unknown_ids():
    with pytest.raises(ValueError):
        Dfg((Node("a", NodeKind.INPUT), Node("a", NodeKind.INPUT)))
    with pytest.raises(ValueError):
        Dfg((Node("a", NodeKind.SHR, ("ghost",), amount=1),))
