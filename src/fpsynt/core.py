"""Core fixed-point IR: SIF formats, scaled signals, and the dataflow graph.

A SIF format partitions a two's-complement word into S sign bits, I integer
bits and F fraction bits. The S-1 extra sign bits are stored as literal
sign-extension copies, so a raw value is only well formed when it lies in
[-2^(I+F), 2^(I+F) - 1]. A ScaledSignal pairs a format with a binary scale
exponent E; the semantic value of a raw word is raw * 2^(E - F).

A Dfg keeps its two orders, ``level_first`` and ``depth_first``; both come
from one walk, ``post_order``, which raises CycleError on a cycle. It also
keeps its ``consumers`` and its addition ``chains`` (``find_chains``).

Raw values are plain Python integers (arbitrary precision), so full-width
products never overflow the host representation. Real values are exact
``fractions.Fraction`` throughout. SifFormat, ScaledSignal and Node, built
thousands of times per synthesis, are slotted dataclasses that compare and hash
by their fields and, like ``analysis.Interval``, are never assigned after construction.
"""

from __future__ import annotations

import enum
import functools
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .errors import CycleError, MalformedRawError, RangeError


class Quantize(enum.Enum):
    """Rounding mode used when a real value is encoded onto a format grid."""

    ROUND = "round"  # nearest, ties away from zero
    TRUNC = "trunc"  # toward -inf (matches an arithmetic right shift)


@dataclass(slots=True, unsafe_hash=True)
class SifFormat:
    """(sign bits / integer bits / fraction bits) partition of a word;
    slotted, never assigned after construction."""

    s: int
    i: int
    f: int

    def __post_init__(self):
        if self.s < 1:
            raise ValueError(f"sign bits must be >= 1, got {self.s}")
        if self.i < 0 or self.f < 0:
            raise ValueError(f"integer/fraction bit counts must be >= 0, got ({self.i}/{self.f})")

    @property
    def width(self) -> int:
        return self.s + self.i + self.f

    @property
    def min_raw(self) -> int:
        return -(1 << (self.i + self.f))

    @property
    def max_raw(self) -> int:
        return (1 << (self.i + self.f)) - 1

    @property
    def min_value(self) -> Fraction:
        """Smallest decodable value, -2^I."""
        return Fraction(self.min_raw, 1 << self.f)

    @property
    def max_value(self) -> Fraction:
        """Largest decodable value, 2^I - 2^-F."""
        return Fraction(self.max_raw, 1 << self.f)

    def __str__(self):
        return f"({self.s}/{self.i}/{self.f})"


def sif_width(fmt: SifFormat) -> int:
    """Total bit count S + I + F."""
    return fmt.width


def decode(raw: int, fmt: SifFormat) -> Fraction:
    """Exact value of a raw two's-complement word: raw * 2^-F.

    Raises MalformedRawError when the redundant sign bits are inconsistent,
    i.e. the raw integer lies outside [-2^(I+F), 2^(I+F)-1].
    """
    if not fmt.min_raw <= raw <= fmt.max_raw:
        raise MalformedRawError(
            f"raw {raw} is not a valid {fmt} word: "
            f"expected range [{fmt.min_raw}, {fmt.max_raw}]"
        )
    return Fraction(raw, 1 << fmt.f)


def round_half_away(n: int, d: int) -> int:
    """Round n / d (d > 0) to the nearest integer, ties away from zero."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def show_value(x: Fraction) -> str:
    """``x`` for a message: as a float, or to 4 significant digits when it
    is past the largest float (a literal or vector cell may reach 10^2000)."""
    if abs(x) <= sys.float_info.max:
        return str(float(x))
    return f"{Decimal(x.numerator) / x.denominator:.3e}"


def encode(value, fmt: SifFormat, mode: Quantize = Quantize.ROUND) -> int:
    """Encode a real value as a raw word of ``fmt``.

    ROUND picks the nearest representable value (ties away from zero),
    TRUNC floors toward -inf. Raises RangeError when the value lies outside
    the decodable range [-2^I, 2^I - 2^-F].
    """
    v = Fraction(value)
    # value * 2^F = n / d against [min_raw, max_raw], on integers
    n, d = v.numerator << fmt.f, v.denominator
    if not fmt.min_raw * d <= n <= fmt.max_raw * d:
        raise RangeError(f"value {show_value(v)} is outside the decodable range of {fmt} "
                         f"[{float(fmt.min_value)}, {float(fmt.max_value)}]")
    raw = round_half_away(n, d) if mode is Quantize.ROUND else n // d
    # rounding at the top edge cannot escape: value <= max_value implies raw <= max_raw
    assert fmt.min_raw <= raw <= fmt.max_raw
    return raw


@functools.lru_cache(maxsize=4096)
def _pow2_frac(e: int) -> Fraction:
    return Fraction(1 << e) if e >= 0 else Fraction(1, 1 << -e)


@dataclass(slots=True, unsafe_hash=True)
class ScaledSignal:
    """A SIF format plus an accumulated binary scale exponent.

    semantic value = raw * 2^(-F) * 2^(scale). Every pre-scale right shift by
    k adds k to ``scale`` so the mathematical intent of the computation is
    recoverable from the raw output. Slotted, never assigned after construction.
    """

    fmt: SifFormat
    scale: int = 0

    @property
    def grid_exp(self) -> int:
        """Exponent of the semantic weight of one raw LSB: scale - F."""
        return self.scale - self.fmt.f

    @property
    def grid(self) -> Fraction:
        """Semantic weight of one raw LSB: 2^(scale - F)."""
        return _pow2_frac(self.grid_exp)

    @property
    def min_value(self) -> Fraction:
        return self.fmt.min_raw * self.grid

    @property
    def max_value(self) -> Fraction:
        return self.fmt.max_raw * self.grid

    def value_of(self, raw: int) -> Fraction:
        return raw * self.grid

    def __str__(self):
        return f"{self.fmt} E={self.scale}"


class NodeKind(enum.Enum):
    # members are singletons and compare by identity, so they hash by it
    # too, in C, in place of Enum's hash of the member name
    __hash__ = object.__hash__

    INPUT = "input"
    CONST = "const"
    MUL = "mul"
    ADD = "add"
    SHR = "shr"        # pre-scale arithmetic right shift, scale += amount
    TRUNC = "trunc"    # drop fraction LSBs (+ redundant MSBs), width shrinks
    OUTPUT = "output"


_ARITY = {
    NodeKind.INPUT: 0,
    NodeKind.CONST: 0,
    NodeKind.MUL: 2,
    NodeKind.ADD: 2,
    NodeKind.SHR: 1,
    NodeKind.TRUNC: 1,
    NodeKind.OUTPUT: 1,
}


@dataclass(slots=True, unsafe_hash=True)
class Node:
    """One dataflow operation.

    ``value`` is set for CONST nodes (exact rational, pre-quantization).
    ``amount`` is the shift distance for SHR, or the count of dropped
    fraction LSBs for TRUNC. ``negate`` flags per-operand negation on ADD,
    which is how subtraction is carried without leaving the multiply-add
    vocabulary. Slotted, never assigned after construction.
    """

    id: str
    kind: NodeKind
    operands: tuple[str, ...] = ()
    value: Fraction | None = None
    amount: int = 0
    negate: tuple[bool, bool] = (False, False)

    def __post_init__(self):
        if len(self.operands) != _ARITY[self.kind]:
            raise ValueError(
                f"node '{self.id}': {self.kind.value} takes {_ARITY[self.kind]} "
                f"operand(s), got {len(self.operands)}"
            )
        if self.kind is NodeKind.CONST and self.value is None:
            raise ValueError(f"const node '{self.id}' has no value")
        if all(self.negate):
            raise ValueError(f"node '{self.id}': both-operand negation is not representable")


@dataclass(frozen=True)
class Dfg:
    """Directed acyclic dataflow graph. Nodes are stored in declaration order.

    Construction only checks id uniqueness and operand existence. The graph
    keeps what is worked out from it on first read: ``level_first``
    (``topo_order``) for the analyzer, emitters and simulator,
    ``depth_first`` (``depth_first_order``) for the search, ``consumers``,
    the ids that read each node, and ``chains`` (``find_chains``). Reading
    ``level_first`` or ``chains`` raises CycleError on a cyclic graph; so
    does ``depth_first`` when the outputs read the cycle.
    """

    nodes: tuple[Node, ...]
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False)
    output_ids: tuple[str, ...] = field(init=False, repr=False, compare=False, hash=False)
    # node(id): the node with that id, a KeyError if none; the id dict's own
    # lookup, as every step of every walk calls it
    node: Callable[[str], Node] = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        by_id = {}
        for n in self.nodes:
            if n.id in by_id:
                raise ValueError(f"duplicate node id '{n.id}'")
            by_id[n.id] = n
        for n in self.nodes:
            for op in n.operands:
                if op not in by_id:
                    raise ValueError(f"node '{n.id}' references unknown operand '{op}'")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "node", by_id.__getitem__)
        object.__setattr__(self, "output_ids",
                           tuple(n.id for n in self.nodes if n.kind is NodeKind.OUTPUT))

    @functools.cached_property
    def level_first(self) -> tuple[str, ...]:
        return tuple(topo_order(self))

    @functools.cached_property
    def depth_first(self) -> tuple[str, ...]:
        return tuple(depth_first_order(self))

    @functools.cached_property
    def consumers(self) -> dict[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for op in n.operands:
                out[op].append(n.id)
        return {nid: tuple(c) for nid, c in out.items()}

    @functools.cached_property
    def chains(self) -> tuple[Chain, ...]:
        return tuple(find_chains(self))


def post_order(dfg: Dfg, roots) -> list[str]:
    """Every node that ``roots`` reach, each after its operands: one explicit-stack
    depth-first walk from the roots in order, operands left first. Raises
    CycleError (listing the cycle) at a node the walk is still inside."""
    done: dict[str, None] = {}  # finished nodes, in post-order
    path: dict[str, None] = {}  # the nodes the walk is inside, outermost first
    node = dfg.node
    stack = [(r, False) for r in reversed(roots)]
    while stack:
        nid, ready = stack.pop()
        if ready:
            del path[nid]
            done[nid] = None
        elif nid in path:
            inside = list(path)
            raise CycleError(inside[inside.index(nid):] + [nid])
        elif nid not in done:
            ops = node(nid).operands
            if not ops:  # a leaf is finished as soon as it is reached
                done[nid] = None
                continue
            path[nid] = None
            stack.append((nid, True))
            for op in reversed(ops):
                if op not in done:
                    stack.append((op, False))
    return list(done)


def topo_order(dfg: Dfg) -> list[str]:
    """Deterministic topological order: by dataflow level, then declaration.

    Level-first ordering keeps all multiplies ahead of the first add in a
    multiply-accumulate graph, which is the order the emitted code uses.
    Raises CycleError (listing the cycle) when the graph is not a DAG.
    """
    ids = [n.id for n in dfg.nodes]
    level: dict[str, int] = {}
    node = dfg.node
    for nid in post_order(dfg, ids):
        ops = node(nid).operands
        level[nid] = max(map(level.__getitem__, ops)) + 1 if ops else 0
    return sorted(ids, key=level.__getitem__)  # stable: declaration order breaks ties


def depth_first_order(dfg: Dfg, first=()) -> list[str]:
    """The inputs that no output reads, in declaration order, then
    ``post_order`` from the nodes ``first`` and then the outputs."""
    walked = post_order(dfg, (*first, *dfg.output_ids))
    seen = set(walked)
    return [n.id for n in dfg.nodes if n.kind is NodeKind.INPUT and n.id not in seen] + walked


@dataclass(frozen=True)
class Chain:
    """A maximal run of >= 2 connected ADD nodes, flattened to signed terms."""

    root: str
    members: tuple[str, ...]          # non-root ADD nodes absorbed by the chain
    terms: tuple[tuple[str, int], ...]  # (node id, +1/-1) in source order
    shape: tuple                       # original parenthesization over term indexes

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def find_chains(dfg: Dfg) -> list[Chain]:
    """Locate every maximal chain of consecutive additions.

    An ADD belongs to its consumer's chain when it is that consumer's only
    use; shared subtrees stay intact. Chains are reported in declaration
    order of their root. Raises CycleError on a cyclic graph.
    """
    dfg.level_first  # the chain walk below would not end on a cycle
    consumers = dfg.consumers
    add_ids = {n.id for n in dfg.nodes if n.kind is NodeKind.ADD}

    def absorbed(nid: str) -> bool:  # for an ADD
        cons = consumers[nid]
        return len(cons) == 1 and dfg.node(cons[0]).kind is NodeKind.ADD

    chains = []
    for node in dfg.nodes:
        if node.id not in add_ids or absorbed(node.id):
            continue
        members: list[str] = []
        terms: list[tuple[str, int]] = []
        # depth-first, left operand first, with an explicit stack: a chain
        # can be thousands of additions deep
        shapes: list = []
        stack = [(node.id, 1, False)]
        while stack:
            nid, sign, joined = stack.pop()
            if joined:
                right = shapes.pop()
                shapes.append((shapes.pop(), right))
            elif nid in add_ids and (nid == node.id or absorbed(nid)):
                if nid != node.id:
                    members.append(nid)
                n = dfg.node(nid)
                stack.append((nid, sign, True))
                stack.append((n.operands[1], -sign if n.negate[1] else sign, False))
                stack.append((n.operands[0], -sign if n.negate[0] else sign, False))
            else:
                terms.append((nid, sign))
                shapes.append(len(terms) - 1)
        shape = shapes.pop()
        if len(members) >= 1:  # root + >= 1 member = >= 2 consecutive adds
            chains.append(Chain(node.id, tuple(members), tuple(terms), shape))
    return chains


def render_infix(dfg: Dfg, root: str, leaf, shift, bare_left_sums: bool = False) -> str:
    """Fully parenthesized infix text of the expression under ``root``.

    MUL renders as ``(a * b)``, ADD as ``(a + b)`` or ``(a - b)`` (a negated
    first operand swaps the operands), OUTPUT as its operand.
    ``leaf(node)`` gives the text of an INPUT or CONST node, and
    ``shift(node)`` the text before and after the operand of a SHR or TRUNC
    node. With ``bare_left_sums``, an unswapped ADD that is the first
    operand of an unswapped ADD loses its parentheses, so ``x0 + x1 + x2``
    reads as the left-associated sum it is and parentheses do not nest once
    per term. Shared subexpressions are written out at every use. The walk
    uses an explicit stack, so a chain of thousands of additions renders
    fine.
    """
    parts: list[str] = []
    stack: list = [dfg.node(root)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        bare = isinstance(item, tuple)  # an ADD written without its parentheses
        if bare:
            (item,) = item
        if item.kind in (NodeKind.INPUT, NodeKind.CONST):
            parts.append(leaf(item))
            continue
        ops = [dfg.node(op) for op in item.operands]
        if item.kind is NodeKind.MUL:
            seq = ("(", ops[0], " * ", ops[1], ")")
        elif item.kind is NodeKind.ADD and item.negate[0]:
            seq = ("(", ops[1], " - ", ops[0], ")")
        elif item.kind is NodeKind.ADD:
            left = ops[0]
            if bare_left_sums and left.kind is NodeKind.ADD and not left.negate[0]:
                left = (left,)
            seq = ("(", left, " - " if item.negate[1] else " + ", ops[1], ")")
            if bare:
                seq = seq[1:-1]
        elif item.kind in (NodeKind.SHR, NodeKind.TRUNC):
            before, after = shift(item)
            seq = (before, ops[0], after)
        else:  # OUTPUT
            seq = (ops[0],)
        stack.extend(reversed(seq))
    return "".join(parts)
