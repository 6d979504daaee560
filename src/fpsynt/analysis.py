"""Format assignment, overflow analysis and worst-case error bounds.

The analyzer walks a dataflow graph in topological order and, for every
node, fixes a ScaledSignal (format + scale), an exact value interval and an
accumulated worst-case absolute error. Wherever a raw operation would not
fit the datapath it inserts formatting operations:

  * before an addition, operands are pre-scaled (arithmetic right shifts)
    until the exact sum interval fits the word width, leaving headroom for
    the carry;
  * after a multiplication, the full-width product is truncated back to the
    word width, dropping fraction LSBs and any MSBs the value interval
    proves redundant.

Shifts and truncations floor toward -inf, so their loss is one-sided and
bounded by (2^k - 1) * grid. All arithmetic is exact and on integers:
intervals are integer mantissas on a power-of-two exponent, grids are
exponents, and error bounds are ``ErrorBound`` values n * 2^e / q with an
odd q. A graph's ``GraphTable`` puts every constant's quantization error
|c - q(c)| on one odd denominator, so adding or comparing two bounds is a
shift and one integer operation. The rules take only ``ErrorBound``; a
``Fraction`` enters through ``ErrorBound.of``, and a finished ``Plan``
holds its bounds as ``Fraction``. The bounds are sound by construction and
validated by simulation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .config import MAX_WIDTH, Config
from .core import (Chain, Dfg, Node, NodeKind, ScaledSignal, SifFormat, _pow2_frac,
                   depth_first_order, encode, find_chains, show_value)
from .errors import CannotFitError, PlanCheckError
from .parser import Bindings

log = logging.getLogger("fpsynt.analysis")

# the candidate, and label, of the table's graph with every chain on a widened accumulator
CHAIN_PLAN = "source+chain"
_ARITHMETIC = (NodeKind.MUL, NodeKind.ADD)


class ErrorBound:
    """Exact error bound n * 2^e / q: integers n and e, odd q >= 1. Immutable.

    Not normalized: one value has many representations, and every operator
    reads the value, so results never depend on the representation. Two
    bounds on one q add and compare by a shift and one integer operation
    (``+``, ``-``, ``==``, ``<=`` and ``>``, the search's hot operators, do
    it inline); unequal q, as a cross term e_a*e_b makes, go through their
    lcm.
    Operands are ``ErrorBound`` only, and an ``int`` factor for ``*``.
    Unhashable, as it is not normalized."""

    __slots__ = ("n", "e", "q")

    def __init__(self, n: int, e: int = 0, q: int = 1):
        self.n, self.e, self.q = n, e, q

    @staticmethod
    def of(x: Fraction, q: int = 1) -> "ErrorBound":
        """The exact number ``x`` as an ErrorBound, on ``q`` when its odd
        denominator divides ``q``."""
        x = Fraction(x)
        d = x.denominator
        k = (d & -d).bit_length() - 1
        odd = d >> k
        return ErrorBound(x.numerator * (q // odd), -k, q) if q % odd == 0 else \
            ErrorBound(x.numerator, -k, odd)

    def as_fraction(self) -> Fraction:
        e = self.e
        return Fraction(self.n << e, self.q) if e >= 0 else Fraction(self.n, self.q << -e)

    def scaled(self, m: int, x: int) -> "ErrorBound":
        """The bound times m * 2^x, for an integer m."""
        return ErrorBound(self.n * m, self.e + x, self.q)

    def _pair(self, other) -> tuple[int, int, int, int] | None:
        """(n, m, e, q) with self = n * 2^e / q and other = m * 2^e / q, or
        None when ``other`` is no ErrorBound."""
        if type(other) is not ErrorBound:
            return None
        n, e, q = self.n, self.e, self.q
        m, f, r = other.n, other.e, other.q
        if q != r:
            g = math.gcd(q, r)
            n, m, q = n * (r // g), m * (q // g), q // g * r
        if e > f:
            return n << (e - f), m, f, q
        return n, m << (f - e), e, q

    def __add__(self, other):
        if type(other) is ErrorBound and other.q == self.q:
            if not other.n:
                return self
            if not self.n:
                return other
            d = self.e - other.e
            if d >= 0:
                return ErrorBound((self.n << d) + other.n, other.e, self.q)
            return ErrorBound(self.n + (other.n << -d), self.e, self.q)
        p = self._pair(other)
        return NotImplemented if p is None else ErrorBound(p[0] + p[1], p[2], p[3])

    def __sub__(self, other):
        if type(other) is ErrorBound and other.q == self.q:
            d = self.e - other.e
            if d >= 0:
                return ErrorBound((self.n << d) - other.n, other.e, self.q)
            return ErrorBound(self.n - (other.n << -d), self.e, self.q)
        p = self._pair(other)
        return NotImplemented if p is None else ErrorBound(p[0] - p[1], p[2], p[3])

    def __neg__(self):
        return ErrorBound(-self.n, self.e, self.q)

    def __mul__(self, other):
        if type(other) is int:
            return ErrorBound(self.n * other, self.e, self.q)
        if type(other) is not ErrorBound:
            return NotImplemented
        return ErrorBound(self.n * other.n, self.e + other.e, self.q * other.q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is ErrorBound and other.q == self.q:
            d = self.e - other.e
            return (self.n << d) == other.n if d >= 0 else self.n == (other.n << -d)
        p = self._pair(other)
        return NotImplemented if p is None else p[0] == p[1]

    def __lt__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else p[0] < p[1]

    def __le__(self, other):
        if type(other) is ErrorBound and other.q == self.q:
            d = self.e - other.e
            return (self.n << d) <= other.n if d >= 0 else self.n <= (other.n << -d)
        p = self._pair(other)
        return NotImplemented if p is None else p[0] <= p[1]

    def __gt__(self, other):
        if type(other) is ErrorBound and other.q == self.q:
            d = self.e - other.e
            return (self.n << d) > other.n if d >= 0 else self.n > (other.n << -d)
        p = self._pair(other)
        return NotImplemented if p is None else p[0] > p[1]

    def __ge__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else p[0] >= p[1]

    def __float__(self) -> float:
        e = self.e  # int / int is correctly rounded, as float(Fraction) is
        return (self.n << e) / self.q if e >= 0 else self.n / (self.q << -e)

    def __repr__(self) -> str:
        return f"ErrorBound({self.n}, {self.e}, {self.q})"


class Interval:
    """Closed interval [m_lo * 2^exp, m_hi * 2^exp] of exact dyadic values,
    normalized (mantissas not both even, zero at exponent 0) so that equal
    intervals compare and hash equal. ``Interval(lo, hi)`` takes values (a
    non-dyadic one is a ValueError), ``from_raws`` mantissas. Immutable."""

    __slots__ = ("m_lo", "m_hi", "exp")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if any(v.denominator & (v.denominator - 1) for v in (lo, hi)):
            raise ValueError(f"interval [{lo}, {hi}] has an end that is not dyadic")
        den = max(lo.denominator, hi.denominator)
        iv = Interval.from_raws(int(lo * den), int(hi * den), 1 - den.bit_length())
        self.m_lo, self.m_hi, self.exp = iv.m_lo, iv.m_hi, iv.exp

    @classmethod
    def from_raws(cls, m_lo: int, m_hi: int, exp: int) -> "Interval":
        if m_lo > m_hi:
            raise ValueError(f"bad interval [{m_lo}, {m_hi}] * 2^{exp}")
        bits = m_lo | m_hi
        tz = (bits & -bits).bit_length() - 1 if bits else 0
        self = object.__new__(cls)
        self.m_lo, self.m_hi, self.exp = m_lo >> tz, m_hi >> tz, exp + tz if bits else 0
        return self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Interval) and self.m_lo == other.m_lo
                and self.m_hi == other.m_hi and self.exp == other.exp)

    def __hash__(self) -> int:
        return hash((self.m_lo, self.m_hi, self.exp))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __add__(self, other: "Interval") -> "Interval":
        e = min(self.exp, other.exp)
        a, b = self.exp - e, other.exp - e
        return Interval.from_raws((self.m_lo << a) + (other.m_lo << b),
                                  (self.m_hi << a) + (other.m_hi << b), e)

    def __neg__(self) -> "Interval":
        return Interval.from_raws(-self.m_hi, -self.m_lo, self.exp)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = (self.m_lo * other.m_lo, self.m_lo * other.m_hi,
                   self.m_hi * other.m_lo, self.m_hi * other.m_hi)
        return Interval.from_raws(min(corners), max(corners), self.exp + other.exp)

    def floor_to(self, exp: int) -> "Interval":
        """Both ends floored (toward -inf) onto the grid 2^exp."""
        d = exp - self.exp
        return Interval.from_raws(self.m_lo >> d, self.m_hi >> d, exp) if d > 0 else self

    @property
    def lo(self) -> Fraction:
        return self.m_lo * _pow2_frac(self.exp)

    @property
    def hi(self) -> Fraction:
        return self.m_hi * _pow2_frac(self.exp)

    @property
    def m_abs(self) -> int:
        """The largest |value| is m_abs * 2^exp."""
        return max(-self.m_lo, self.m_hi, 0)


@dataclass(slots=True, unsafe_hash=True)
class NodeInfo:
    """Analysis result attached to one plan node; slotted, never assigned after construction.

    ``err`` is an ``ErrorBound`` while a builder works, and the rules take
    only that; a finished ``Plan`` holds it as a ``Fraction``.

    ``eff`` = 2^``eff_exp`` is the effective value grid: the coarsest power
    of two every reachable value of the node is a multiple of. It can be
    coarser than the format grid (a constant like 0.5 carries trailing zero
    bits through a product), in which case flooring those bits away costs
    nothing and the truncation bound tightens accordingly.
    """

    signal: ScaledSignal
    interval: Interval
    err: ErrorBound | Fraction
    eff_exp: int = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.eff_exp is None:
            self.eff_exp = self.signal.grid_exp

    @property
    def eff(self) -> Fraction:
        return _pow2_frac(self.eff_exp)

    @property
    def width(self) -> int:
        return self.signal.fmt.width


def floor_loss(eff_exp: int, new_exp: int, interval: Interval | None = None,
               q: int = 1) -> ErrorBound:
    """Worst loss of flooring values on the grid 2^eff_exp to 2^new_exp,
    on the odd denominator ``q``.

    Zero when no information sits below the target grid; the classic
    (2^k - 1) * ulp bound falls out when eff equals the format grid. A
    point interval (a constant's downstream value) floors by a knowable,
    exact amount."""
    if interval is not None and interval.m_lo == interval.m_hi:
        d = new_exp - interval.exp
        if d > 0:
            return ErrorBound((interval.m_lo & ((1 << d) - 1)) * q, interval.exp, q)
    elif new_exp > eff_exp:
        return ErrorBound(((1 << (new_exp - eff_exp)) - 1) * q, eff_exp, q)
    return ErrorBound(0, 0, q)


def _odd_part(d: int) -> int:
    return d >> ((d & -d).bit_length() - 1)


def infer_product_format(a: ScaledSignal, b: ScaledSignal) -> ScaledSignal:
    """Full product format: fields add, scales add, width doubles."""
    fa, fb = a.fmt, b.fmt
    return ScaledSignal(SifFormat(fa.s + fb.s, fa.i + fb.i, fa.f + fb.f), a.scale + b.scale)


def fit_format_to_interval(sig: ScaledSignal, interval: Interval) -> ScaledSignal:
    """Convert redundant sign bits to integer bits until the interval fits.

    Only the extreme corner product (-min * -min = +2^(I+F) ulps) ever needs
    this; it trades one sign copy for an integer bit at constant width.
    """
    fmt = sig.fmt
    convert = _min_integer_bits(interval, fmt.f, sig.scale) - fmt.i
    if convert >= fmt.s:
        raise CannotFitError(f"interval [{float(interval.lo)}, {float(interval.hi)}] "
                             f"exceeds {SifFormat(1, fmt.i + fmt.s - 1, fmt.f)}")
    return sig if convert <= 0 else ScaledSignal(
        SifFormat(fmt.s - convert, fmt.i + convert, fmt.f), sig.scale)


def _min_integer_bits(interval: Interval, f: int, scale: int) -> int:
    """Smallest i >= 0 such that interval fits (1/i/f) at the given scale:
    floor(lo) and ceil(hi) on the grid 2^(scale-f) within [-2^(i+f), 2^(i+f))."""
    d = interval.exp - scale + f
    lo, hi = interval.m_lo, interval.m_hi
    lo, hi = (lo << d, hi << d) if d >= 0 else (lo >> -d, -(-hi >> -d))
    return max(0, (max(-lo, hi + 1, 1) - 1).bit_length() - f)


@dataclass(slots=True, unsafe_hash=True)
class TruncSpec:
    """Planned effect of one TRUNC node; slotted, never assigned after construction."""

    drop_f: int
    signal: ScaledSignal
    interval: Interval
    added_error: ErrorBound
    eff_exp: int


def plan_truncate(info: NodeInfo, target_width: int) -> TruncSpec | None:
    """Plan the truncation of a signal down to ``target_width`` bits.

    Drops fraction LSBs plus whatever MSBs (redundant sign copies and
    integer bits the interval never reaches) can go for free, keeping as
    many information-bearing fraction bits as possible. Returns None when
    the signal already fits. Raises CannotFitError when even f = 0 cannot
    reach the target, which signals a true overflow risk.
    """
    sig, interval = info.signal, info.interval
    fmt = sig.fmt
    if fmt.width <= target_width:
        return None
    for f_r in range(min(fmt.f, target_width - 1), -1, -1):
        grid_exp = sig.scale - f_r
        floored = interval.floor_to(grid_exp) if f_r < fmt.f else interval
        i_r = _min_integer_bits(floored, f_r, sig.scale)
        if 1 + i_r + f_r <= target_width:
            pad = target_width - (1 + i_r + f_r)
            out = ScaledSignal(SifFormat(1 + pad, i_r, f_r), sig.scale)
            return TruncSpec(drop_f=fmt.f - f_r,
                             signal=out,
                             interval=floored,
                             added_error=floor_loss(info.eff_exp, grid_exp, interval,
                                                    info.err.q),
                             eff_exp=max(info.eff_exp, grid_exp))
    raise CannotFitError(
        f"cannot truncate {fmt} to {target_width} bits: integer part alone needs "
        f"{1 + _min_integer_bits(interval, 0, sig.scale)} bits")


@dataclass(slots=True, unsafe_hash=True)
class AlignSpec:
    """Planned operand pre-scaling of an addition; slotted, never assigned after construction."""

    shift_a: int
    shift_b: int
    a_view: NodeInfo       # operand as the adder sees it (post shift/relabel)
    b_view: NodeInfo
    result: NodeInfo


_ALIGN_GUARD = 200


def _shift_view(info: NodeInfo, shift: int, f_star: int, e_star: int) -> NodeInfo:
    """Operand view after an arithmetic right shift and a label-only move of
    fraction bits into integer bits. The shift floors away up to
    (2^k - 1) information-bearing ulps; the relabel is free (the raw word
    and its stored range are untouched)."""
    fmt = info.signal.fmt
    delta = fmt.f - f_star
    if delta < 0:
        raise PlanCheckError(f"view of f={fmt.f} cannot have f={f_star}")
    if shift == 0:
        if not delta and e_star == info.signal.scale:  # the view is the value itself
            return info
        return NodeInfo(ScaledSignal(SifFormat(fmt.s, fmt.i + delta, f_star), e_star),
                        info.interval, info.err, info.eff_exp)
    new_sig = ScaledSignal(SifFormat(fmt.s, fmt.i + delta, f_star), e_star)
    grid_exp = e_star - f_star
    return NodeInfo(new_sig, info.interval.floor_to(grid_exp),
                    info.err + floor_loss(info.eff_exp, grid_exp, info.interval, info.err.q),
                    max(info.eff_exp, grid_exp))


def plan_add(a: NodeInfo, b: NodeInfo, negate: tuple[bool, bool],
             width: int, extra: int = 0) -> AlignSpec:
    """Align two addition operands and fix the sum's format.

    Operands are brought to a common grid; the grid is then coarsened (each
    step shifting both views one more bit right) until the exact sum interval
    fits ``width`` bits, plus ``extra`` optional steps. Operands whose grid is
    already coarse enough are not shifted.
    """
    ga, gb = a.signal.grid_exp, b.signal.grid_exp
    f_star = min(a.signal.fmt.f, b.signal.fmt.f)

    def total(g: int) -> tuple[Interval, int] | None:
        """The exact sum interval on the common grid 2^g and its integer
        bits, where they fit ``width`` bits; each view keeps f_star
        fraction bits on grid g, so its scale is g + f_star."""
        ia = a.interval if g == ga else a.interval.floor_to(g)
        ib = b.interval if g == gb else b.interval.floor_to(g)
        t = (-ia if negate[0] else ia) + (-ib if negate[1] else ib)
        i_r = _min_integer_bits(t, f_star, g + f_star)
        return (t, i_r) if 1 + i_r + f_star <= width else None

    for g in range(max(ga, gb), max(ga, gb) + _ALIGN_GUARD):
        fit = total(g)
        if fit is not None:
            break
    else:
        raise CannotFitError(f"cannot align addition operands within {width} bits")
    if extra:
        g += extra
        fit = total(g)
        if fit is None:
            raise PlanCheckError(f"coarsening un-fit a sum at grid {g}")
    interval, i_r = fit
    e_star = g + f_star
    av = _shift_view(a, g - ga, f_star, e_star)
    bv = _shift_view(b, g - gb, f_star, e_star)
    res = NodeInfo(ScaledSignal(SifFormat(1, i_r, f_star), e_star),
                   interval, av.err + bv.err, min(av.eff_exp, bv.eff_exp))
    return AlignSpec(g - ga, g - gb, av, bv, res)


def mul_error_bound(a: NodeInfo, b: NodeInfo) -> ErrorBound:
    """Worst-case |computed - exact| of a product from its operand bounds.

    M_a*e_b + M_b*e_a + e_a*e_b with M taken from the computed operand
    intervals; the cross term keeps the bound strict. The result is clamped
    to max(e_a, e_b): a |factor| < 1 can genuinely shrink an absolute error,
    but keeping bounds non-decreasing along every path is what makes
    branch-and-bound pruning admissible, and a larger bound stays sound."""
    ea, eb = a.err, b.err
    ia, ib = a.interval, b.interval
    if not ea.n:  # an exact operand: no cross term, and its own share is 0
        return max(eb.scaled(ia.m_abs, ia.exp), eb) if eb.n else ea
    if not eb.n:
        return max(ea.scaled(ib.m_abs, ib.exp), ea)
    return max(eb.scaled(ia.m_abs, ia.exp) + ea.scaled(ib.m_abs, ib.exp) + ea * eb, ea, eb)


def choose_const_format(value: Fraction, width: int) -> SifFormat:
    """Most precise format for a constant: minimal integer bits, every
    remaining bit a fraction bit."""
    p, q = value.numerator, value.denominator
    for i in range(0, width):
        f = width - 1 - i
        # -2^i <= p/q <= (2^(i+f) - 1) / 2^f, on integers
        if -(q << i) <= p and p << f <= ((1 << (i + f)) - 1) * q:
            return SifFormat(1, i, f)
    raise CannotFitError(f"constant {show_value(value)} does not fit in {width} bits")


@dataclass(frozen=True)
class AccumulatorInfo:
    """Widened accumulator allocated for one addition chain; ``nodes`` are
    the ids of its term truncations and additions, each at most ``width`` bits."""

    root: str
    width: int
    fraction_bits: int
    n_terms: int
    nodes: tuple[str, ...]


# ---------------------------------------------------------------------------
# plan construction


def cost_key(errs):
    """The ranking key of a plan with these output errors: (largest, sum)."""
    return max(errs), sum(errs[1:], errs[0])


@dataclass(frozen=True)
class Plan:
    """A fully fixed synthesis result: graph with formatting ops, per-node
    signals/intervals/error bounds, quantized constants."""

    graph: Dfg
    info: dict[str, NodeInfo]
    const_raws: dict[str, int]
    bindings: Bindings
    source: Dfg
    config: Config
    choices: tuple[tuple[str, int], ...]
    accumulators: tuple[AccumulatorInfo, ...]
    topology: str = "source"
    searches: tuple = field(default=(), compare=False, repr=False)

    @property
    def output_ids(self) -> tuple[str, ...]:
        return self.graph.output_ids

    @property
    def cost(self) -> Fraction:
        """Predicted worst-case output error (max across outputs)."""
        return self.cost_key[0]

    @property
    def cost_key(self):
        return cost_key([self.info[o].err for o in self.output_ids])

    @property
    def n_format_nodes(self) -> int:
        return sum(1 for n in self.graph.nodes if n.kind in (NodeKind.SHR, NodeKind.TRUNC))


class _Ctx:
    """What one walk has emitted, each node with its step's ``rank``; cloned at branch points."""

    __slots__ = ("nodes", "info", "alias", "accumulators", "rank")

    def __init__(self):
        self.nodes: list[tuple[int, Node]] = []
        self.info: dict[str, NodeInfo] = {}
        self.alias: dict[str, str] = {}
        self.accumulators: list[AccumulatorInfo] = []
        self.rank = 0

    def clone(self) -> "_Ctx":
        c = object.__new__(_Ctx)
        c.nodes, c.info, c.alias = self.nodes.copy(), self.info.copy(), self.alias.copy()
        c.accumulators, c.rank = self.accumulators.copy(), 0
        return c

    def emit(self, node: Node, info: NodeInfo):
        self.nodes.append((self.rank, node))
        self.info[node.id] = info


class GraphTable:
    """One synthesis: its source graph ``dfg``, ``bindings`` and ``config``,
    and what re-association cannot change, worked out once: ``den`` (see
    ``PlanBuilder``), ``quantized``, the NodeInfo and raw word of each
    constant that a node reads, ``floors``, the memo of ``floors.node_floors``
    that the graph's topologies share, and ``searches``, an
    ``optimizer.SearchStats`` per search run on it. Before any search, raises
    ValueError on a graph with no output, then, at the first input or such
    constant in declaration order at fault, ValueError for an input with no
    format in ``bindings`` or CannotFitError for a value that does not fit
    the word width."""

    def __init__(self, dfg: Dfg, bindings: Bindings, config: Config):
        self.dfg, self.bindings, self.config = dfg, bindings, config
        if not dfg.output_ids:
            raise ValueError("the graph has no output node")
        W = config.width
        self.den = math.lcm(*(_odd_part(Fraction(n.value).denominator)
                              for n in dfg.nodes if n.kind is NodeKind.CONST))
        self.zero = ErrorBound(0, 0, self.den)
        self.quantized: dict[str, tuple[NodeInfo, int]] = {}
        read = {r for n in dfg.nodes for r in n.operands}
        for node in dfg.nodes:
            if node.kind is NodeKind.INPUT and node.id not in bindings.inputs:
                raise ValueError(f"input '{node.id}' has no format in the bindings")
            if node.kind is NodeKind.INPUT and (w := bindings.input_format(node.id).width) > W:
                raise CannotFitError(f"input '{node.id}' is {w} bits wide, word width is {W}")
            if node.kind is NodeKind.CONST and node.id in read:
                value = Fraction(node.value)
                try:
                    fmt = choose_const_format(value, W)
                except CannotFitError as e:
                    raise CannotFitError(f"const '{node.id}': {e}") from None
                raw = encode(value, fmt, config.quantize)
                # |value - raw / 2^F|, on integers
                p, q = value.numerator, value.denominator
                err = ErrorBound.of(Fraction(abs((p << fmt.f) - raw * q), q << fmt.f), self.den)
                value = Interval.from_raws(raw, raw, -fmt.f)
                self.quantized[node.id] = (
                    NodeInfo(ScaledSignal(fmt, 0), value, err, value.exp if raw else -fmt.f), raw)
        # per b0 (n, e, q): a ``floors._FloorMemo``; under None, the leaves' records
        self.floors: dict[tuple | None, object] = {}
        self.searches: list = []


class PlanBuilder:
    """Builds annotated plans for one candidate, one position at a time.

    The optimizer drives it as a search tree: positions with a free choice
    (MUL extra truncation, ADD extra pre-scaling) branch; everything else is
    forced. ``build`` runs the whole walk with a fixed choice mapping.

    ``search_order``, the walk of ``build`` and of the search, holds the
    ``depth_first_order`` nodes but a chain's other additions (its root
    reads its terms), so a value is consumed soon after it is made.
    ``choice_points`` lists the choice points level-first, as a choice
    vector reads them. ``finish`` lays the walk out level-first, each node
    at the rank of the step that emitted it. Only a chain's step depends on
    walk order: the chain stepped first names its truncation of a shared
    term, emits and re-aliases that of a shared full-width product, and
    opens ``ctx.accumulators``. So the post-order starts at the chain roots
    in level-first order; each is then stepped after every lower root, as
    in a level-first walk, and the plan is the level-first walk's.

    ``candidate`` is a ``(label, graph)`` pair of ``enumerate_topologies``
    or ``CHAIN_PLAN``. Bindings, config and quantized constants are those of
    the ``table`` that the candidates of one synthesis share, and a plan's
    ``source`` is its graph. Error bounds are ``ErrorBound`` values on its
    ``den``, the lcm of the odd parts of the constants' denominators.
    """

    def __init__(self, table: GraphTable, candidate: tuple[str, Dfg] | str):
        self.table, self.den, self.zero = table, table.den, table.zero
        self.width = table.config.width
        chained = candidate == CHAIN_PLAN
        self.topology, self.dfg = (CHAIN_PLAN, table.dfg) if chained else candidate
        self.chains = {c.root: c for c in table.dfg.chains} if chained else {}
        dfg = self.dfg
        self._fallbacks: set[str] = set()  # chain roots already warned about
        self._source_ids = frozenset(n.id for n in dfg.nodes)
        # terms whose full-width value may feed the accumulator directly
        chain_adds = {m for c in self.chains.values() for m in c.members} | set(self.chains)
        self._full_width_terms = set()
        for c in self.chains.values():
            for tid, _sign in c.terms:
                if (dfg.node(tid).kind is NodeKind.MUL
                        and all(u in chain_adds for u in dfg.consumers[tid])):
                    self._full_width_terms.add(tid)

        walked = set(dfg.depth_first) - (chain_adds - set(self.chains))
        level_first = [nid for nid in dfg.level_first if nid in walked]
        self._rank = {nid: k for k, nid in enumerate(level_first)}
        self.choice_points = [nid for nid in level_first if dfg.node(nid).kind in _ARITHMETIC
                              and nid not in self.chains and nid not in self._full_width_terms]
        roots = [nid for nid in level_first if nid in self.chains]
        walk = depth_first_order(dfg, roots) if roots else dfg.depth_first
        self.search_order = [nid for nid in walk if nid in walked]

    def reads(self, nid: str) -> tuple[str, ...]:
        """Source ids whose current value the step at ``nid`` reads."""
        if nid in self.chains:
            return tuple(tid for tid, _sign in self.chains[nid].terms)
        return self.dfg.node(nid).operands

    def _fresh(self, ctx: _Ctx, base: str) -> str:
        """A name that no source node and no node emitted into ``ctx`` has;
        the caller emits it at once."""
        name = base
        while name in self._source_ids or name in ctx.info:
            name += "_"
        return name

    # per-node assignment

    def step(self, ctx: _Ctx, nid: str, choice: int = 0):
        node = self.dfg.node(nid)
        ctx.rank = self._rank[nid]
        if node.kind is NodeKind.INPUT:
            fmt = self.table.bindings.input_format(nid)
            ctx.emit(node, NodeInfo(ScaledSignal(fmt, 0), Interval.from_raws(
                fmt.min_raw, fmt.max_raw, -fmt.f), self.zero))
            ctx.alias[nid] = nid
        elif node.kind is NodeKind.CONST:
            ctx.emit(node, self.table.quantized[nid][0])
            ctx.alias[nid] = nid
        elif node.kind is NodeKind.MUL:
            self._step_mul(ctx, node, choice)
        elif node.kind is NodeKind.ADD:
            if nid in self.chains:
                self._step_chain(ctx, self.chains[nid])
            else:
                self._step_add(ctx, node, choice)
        elif node.kind is NodeKind.OUTPUT:
            src = ctx.alias[node.operands[0]]
            ctx.emit(Node(nid, NodeKind.OUTPUT, (src,)), ctx.info[src])
            ctx.alias[nid] = nid
        else:
            raise ValueError(f"source graphs cannot contain {node.kind} nodes")

    def _step_mul(self, ctx: _Ctx, node: Node, choice: int):
        a = ctx.info[ctx.alias[node.operands[0]]]
        b = ctx.info[ctx.alias[node.operands[1]]]
        sig = infer_product_format(a.signal, b.signal)
        interval = a.interval * b.interval
        sig = fit_format_to_interval(sig, interval)
        info = NodeInfo(sig, interval, mul_error_bound(a, b), a.eff_exp + b.eff_exp)
        mul_node = Node(node.id, NodeKind.MUL,
                        (ctx.alias[node.operands[0]], ctx.alias[node.operands[1]]))
        ctx.emit(mul_node, info)
        ctx.alias[node.id] = node.id
        if node.id in self._full_width_terms:
            if choice:
                raise CannotFitError("chain terms take no extra truncation")
            return
        target = min(sig.fmt.width, self.width) - choice
        ctx.alias[node.id] = self._truncate(ctx, node.id, target)

    def _truncate(self, ctx: _Ctx, ref: str, width: int) -> str:
        """Truncate the value held by ``ref`` to ``width`` bits; return the
        id that now holds it (``ref`` itself when it already fits)."""
        info = ctx.info[ref]
        spec = plan_truncate(info, width)
        if spec is None:
            return ref
        qid = self._fresh(ctx, f"{ref}_q")
        ctx.emit(Node(qid, NodeKind.TRUNC, (ref,), amount=spec.drop_f),
                 NodeInfo(spec.signal, spec.interval, info.err + spec.added_error,
                          spec.eff_exp))
        return qid

    def _step_add(self, ctx: _Ctx, node: Node, choice: int):
        a_id = ctx.alias[node.operands[0]]
        b_id = ctx.alias[node.operands[1]]
        spec = plan_add(ctx.info[a_id], ctx.info[b_id], node.negate,
                        self.width, extra=choice)
        refs = []
        for op_id, shift, view in ((a_id, spec.shift_a, spec.a_view),
                                   (b_id, spec.shift_b, spec.b_view)):
            if shift:
                sid = self._fresh(ctx, f"{node.id}_p{len(refs) + 1}")
                ctx.emit(Node(sid, NodeKind.SHR, (op_id,), amount=shift), view)
                refs.append(sid)
            else:
                refs.append(op_id)
        ctx.emit(Node(node.id, NodeKind.ADD, tuple(refs), negate=node.negate), spec.result)
        ctx.alias[node.id] = node.id

    # chain accumulator

    def _step_chain(self, ctx: _Ctx, chain: Chain):
        if self._try_chain(ctx, chain):
            return
        if chain.root not in self._fallbacks:
            self._fallbacks.add(chain.root)
            log.warning("chain at '%s' falls back to pairwise pre-scaling", chain.root)
        for tid, _sign in chain.terms:
            # terms left at full width for the accumulator now need the
            # ordinary post-multiply truncation
            ctx.alias[tid] = self._truncate(ctx, ctx.alias[tid], self.width)
        # members were collected root-down; rebuild leaves-up
        for mid in reversed(chain.members):
            self._step_add(ctx, self.dfg.node(mid), 0)
        self._step_add(ctx, self.dfg.node(chain.root), 0)

    def _try_chain(self, ctx: _Ctx, chain: Chain) -> bool:
        """Emit ``chain`` as terms truncated onto the finest grid where they and
        every partial sum fit W + ceil(log2 n) bits, added by ``plan_add`` at that
        width, which shifts nothing. False, with nothing emitted, if no grid fits."""
        W = self.width
        w_acc = W + math.ceil(math.log2(chain.n_terms))
        # the accumulator opens with the first term, taken positive
        if w_acc > MAX_WIDTH or chain.terms[0][1] < 0:
            return False
        term_infos = [ctx.info[ctx.alias[tid]] for tid, _ in chain.terms]
        if any(t.signal.scale != 0 for t in term_infos):
            return False

        # a grid of f_acc >= w_acc fraction bits leaves no room for the sign bit
        f_cap = min(min(t.signal.fmt.f for t in term_infos), w_acc - 1)
        for f_acc in range(f_cap, -1, -1):
            views = [t.interval.floor_to(-f_acc) for t in term_infos]
            widths = [1 + _min_integer_bits(v, f_acc, 0) + f_acc for v in views]
            run, fits = views[0], max(widths) <= w_acc
            for (_tid, sign), v in zip(chain.terms[1:], views[1:]):
                if not fits:
                    break
                run = run + (v if sign > 0 else -v)
                fits = 1 + _min_integer_bits(run, f_acc, 0) + f_acc <= w_acc
            if fits:
                break
        else:
            return False

        # one truncation per finer-grid term, no loss inside the accumulator
        first = len(ctx.nodes)
        refs = []
        for (tid, _sign), t, width in zip(chain.terms, term_infos, widths):
            ref = ctx.alias[tid]
            if t.signal.fmt.f > f_acc:
                ref = self._truncate(ctx, ref, width)
                if ctx.info[ref].signal.fmt.f != f_acc:
                    raise PlanCheckError(f"chain term '{tid}' is not on the accumulator grid")
            refs.append(ref)

        running = refs[0]
        for j, ((_tid, sign), ref) in enumerate(zip(chain.terms[1:], refs[1:]), 1):
            aid = chain.root if j == chain.n_terms - 1 else \
                self._fresh(ctx, f"{chain.root}_acc{j}")
            spec = plan_add(ctx.info[running], ctx.info[ref], (False, sign < 0), w_acc)
            if spec.shift_a or spec.shift_b:
                raise PlanCheckError(f"chain addition '{aid}' is not on the accumulator grid")
            ctx.emit(Node(aid, NodeKind.ADD, (running, ref), negate=(False, sign < 0)),
                     spec.result)
            running = aid

        ctx.accumulators.append(AccumulatorInfo(chain.root, w_acc, f_acc, chain.n_terms,
                                                tuple(n.id for _, n in ctx.nodes[first:])))
        ctx.alias[chain.root] = self._truncate(ctx, running, W)
        return True

    # whole-graph entry points

    def finish(self, ctx: _Ctx, choices: dict[str, int]) -> Plan:
        """The plan of a walk that took ``choices`` (0 where it has none),
        its nodes sorted stably by the rank of the step that emitted them."""
        nodes = [n for _, n in sorted(ctx.nodes, key=itemgetter(0))]
        acc = {nid for a in ctx.accumulators for nid in a.nodes}
        done: dict[int, NodeInfo] = {}  # id of a walk's NodeInfo -> the plan's; outputs share
        for i in ctx.info.values():
            if id(i) not in done:
                done[id(i)] = NodeInfo(i.signal, i.interval, i.err.as_fraction(), i.eff_exp)
        return Plan(graph=Dfg(tuple(nodes)),
                    info={n.id: done[id(ctx.info[n.id])] for n in nodes},
                    const_raws={n.id: self.table.quantized[n.id][1] for n in nodes
                                if n.kind is NodeKind.CONST},
                    bindings=self.table.bindings,
                    source=self.table.dfg,
                    config=self.table.config,
                    choices=tuple((n.id, choices.get(n.id, 0)) for n in nodes
                                  if n.kind in _ARITHMETIC and n.id not in acc),
                    accumulators=tuple(ctx.accumulators),
                    topology=self.topology)

    def build(self, choices: dict[str, int] | None = None) -> Plan:
        choices = choices or {}
        ctx = _Ctx()
        for nid in self.search_order:
            self.step(ctx, nid, choices.get(nid, 0))
        return self.finish(ctx, choices)


def check_plan(plan: Plan):
    """Check the analysis invariants of a finished plan.

    Raises PlanCheckError on: a value interval escaping its format range
    (overflow risk), a node wider than its limit (2W bits for a product, its
    accumulator's width for an accumulator's node, W for any other), addition
    operands on unequal grids, a negative scale exponent or error bound, or
    an error bound decreasing along an edge.
    """
    W = plan.config.width
    limit = {nid: a.width for a in plan.accumulators for nid in a.nodes}
    info_of = plan.info
    for node in plan.graph.nodes:
        nid, info = node.id, info_of[node.id]
        fmt, iv = info.signal.fmt, info.interval
        # the format range [min_raw, max_raw] * 2^grid and the interval, on
        # the finer of their two exponents
        d = info.signal.grid_exp - iv.exp
        top = 1 << (fmt.i + fmt.f)  # -min_raw = max_raw + 1
        lo, hi, m_lo, m_hi = (-top << d, (top - 1) << d, iv.m_lo, iv.m_hi) if d >= 0 \
            else (-top, top - 1, iv.m_lo << -d, iv.m_hi << -d)
        if not (lo <= m_lo and m_hi <= hi):
            raise PlanCheckError(f"interval of '{nid}' escapes its format")
        if info.signal.scale < 0:
            raise PlanCheckError(f"negative scale at '{nid}'")
        # bounds are Fractions: compared on integers, as n/d <= m/e iff n*e <= m*d
        n, den = info.err.numerator, info.err.denominator
        if n < 0:
            raise PlanCheckError(f"negative error bound at '{nid}'")
        w = 2 * W if node.kind is NodeKind.MUL else limit.get(nid, W)
        if fmt.width > w:
            raise PlanCheckError(f"node '{nid}' is {fmt.width} bits, limit {w}")
        if node.kind is NodeKind.ADD:
            a, b = (info_of[op] for op in node.operands)
            if a.signal.grid_exp != b.signal.grid_exp:
                raise PlanCheckError(f"unaligned add '{nid}'")
        for op in node.operands:
            e = info_of[op].err
            if e.numerator * den > n * e.denominator:
                raise PlanCheckError(f"error bound shrank from '{op}' to '{nid}'")
