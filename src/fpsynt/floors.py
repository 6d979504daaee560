"""The grid floor: lower bounds on the errors of every plan that can tie a
bound, worked out before a candidate's first step.

``node_floors`` floors a graph node by node, one ``_Floor`` record per
node, memoized on its ``GraphTable`` per bound and distinct cone
(``table.floors``). ``_TopologyFloors`` floors each re-association of the
table's graph from its chains' shapes (``_shape_steps``), with no graph
built. ``optimizer`` reads the records: to cut a candidate whole, and for
the completion floors of ``_Frontier.bound_to``.
"""

from __future__ import annotations

from .analysis import ErrorBound, GraphTable, floor_loss
from .core import Chain, Dfg, NodeKind
from .errors import PlanCheckError


class _Floor:
    """What the grid floor knows of a node's W-bit value (a product's after
    truncation) in every plan that can tie a bound b0.

    ``err`` and ``g`` bound its error and grid exponent from below. ``e0``:
    the finest value grid the node can have, set only when its interval
    spans zero (lo < 0 <= hi) in every plan, so that no flooring collapses
    it to a point; ``base`` as in ``node_floors`` where e0 is set. ``pos``:
    its value, as its consumers read it, has hi > 0 in every plan.
    ``const``: a constant's quantized NodeInfo and raw word. ``reach``: a
    triple (L, H, x) such that the value's interval [lo, hi] has
    lo <= L * 2^x and hi >= H * 2^x, or None. ``eff``: an upper bound on
    the exponent of its value grid, or None. ``need``: a lower bound on the
    error that the node's own step adds (a constant's: its quantization
    error). A product whose W-bit value is no point has ``product_eff``,
    the bound on the value grid of its full-width value; an ADD has
    ``views``, the part of its need that each operand view adds."""

    __slots__ = ("err", "g", "base", "reach", "eff", "need", "e0", "pos", "const",
                 "product_eff", "views")

    def __init__(self, err, g, base, reach, eff, need, e0=None, pos=False, const=None,
                 product_eff=None, views=()):
        self.err, self.g, self.base = err, g, base
        self.reach, self.eff, self.need = reach, eff, need
        self.e0, self.pos, self.const = e0, pos, const
        self.product_eff, self.views = product_eff, views


def _exp_above(x: ErrorBound) -> int:
    """The smallest R with 2^R >= x, for x > 0."""
    n, e, q = x.n, x.e, x.q
    t = n.bit_length() - q.bit_length() - 1  # q * 2^t < n
    while True:
        a, b = (q << t, n) if t >= 0 else (q, n << -t)
        if a >= b:
            return t + e
        t += 1


def _reach_sum(a: tuple | None, b: tuple | None) -> tuple | None:
    """The reach of a sum, from its operands' reaches."""
    if a is None or b is None:
        return None
    e = min(a[2], b[2])
    return ((a[0] << (a[2] - e)) + (b[0] << (b[2] - e)),
            (a[1] << (a[2] - e)) + (b[1] << (b[2] - e)), e)


def _reach_product(a: tuple | None, b: tuple | None) -> tuple | None:
    """The reach of a product, where both operands' reaches are intervals."""
    if a is None or b is None or a[0] > a[1] or b[0] > b[1]:
        return None
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(corners), max(corners), a[2] + b[2]


def _lowered(r: tuple | None, s: int | None, negate: bool = False) -> tuple | None:
    """The reach ``r`` with hi lowered by 2^s (by 0 when s is None), then
    negated if ``negate``."""
    if r is not None and s is not None:
        e = min(r[2], s)
        r = r[0] << (r[2] - e), (r[1] << (r[2] - e)) - (1 << (s - e)), e
    return (-r[1], -r[0], r[2]) if negate and r is not None else r


def _no_point(r: tuple | None) -> bool:
    """True when no interval that reaches past ``r`` is a point."""
    return r is not None and r[0] < r[1]


def _floored_eff(b0: ErrorBound, eff: int) -> int:
    """The largest G with 2^G <= b0 + 2^eff: the coarsest value grid that
    flooring a value from eff can reach while it loses at most b0."""
    n, e, q = b0.n, b0.e, b0.q
    m = min(e, eff)  # b0 + 2^eff = x * 2^m / q, and x >= q as 2^eff <= it
    x = (n << (e - m)) + (q << (eff - m))
    return m + (x // q).bit_length() - 1


def node_floors(table: GraphTable, dfg: Dfg, order: list[str] | tuple[str, ...],
                b0: ErrorBound) -> dict[str, _Floor]:
    """The grid floor: per node of ``order``, a bottom-up order of the nodes
    the outputs read, a ``_Floor`` that holds in every plan of ``dfg`` whose
    errors are all at most ``b0``, on a graph with no chain accumulator; an
    output's bounds its error. A plan whose cost key ties or beats
    ``(b0, s)`` is such a plan, since bounds never decrease along an edge.
    It is one bottom-up pass over the graph.
    Per node it bounds the W-bit value (a product's after truncation); each
    rule is the analyzer's own, read from below:

    * Reaches. A value's reach (L, H) says that its interval has lo <= L
      and hi >= H in every plan: an input's range, a constant's point, the
      sum of an ADD's views' reaches (one maybe negated), and the product
      of a MUL's operands' where both have L <= H, as interval arithmetic
      is monotone in its operands. Flooring onto a grid lowers lo, and
      lowers hi by at most the loss it adds, so by at most b0 and by at
      most 2^s, the least power of two at or above b0: each view of an ADD
      and each truncation lowers H by 2^s. A value whose reach has L < H is
      no point in any plan.
    * Grids. A product's grid is the sum of its operands' grids, and
      truncation only coarsens it; an ADD aligns both views to at least the
      coarser operand grid. A format of at most W bits with range exponent
      R has its grid at 2^(R - (W - 1)) or coarser, and its range holds
      the value's interval, so R is at least that of a format holding the
      reach.
    * Value grids. Every end of an interval is a multiple of the value grid
      2^eff, so flooring a value that is no point from eff to g adds
      2^g - 2^eff, or 0 when g <= eff, and that is at most b0: g is at most
      the largest G with 2^G <= b0 + 2^eff. A product's eff is the sum of
      its operands', an input's its format grid, a constant's fixed, a
      flooring's the larger of eff and g, an ADD's the smaller of its
      views'. ``eff`` bounds it from above where the reach shows that the
      values floored on the way are no points.
    * Needs. ``need`` bounds from below the loss that the node's own step
      adds: a truncation's, from eff (bounded above) to g (bounded below);
      an ADD's views', where a constant's view loses the exact remainder of
      its point on the grid, which never shrinks as the grid coarsens. A
      product's truncation and a later view of it at an ADD floor the same
      value twice, so when the truncated value is no point they lose
      together at least 2^g - 2^eff, from the product's eff to the coarser
      of the two grids, g.
    * Floors. INPUT: 0. CONST: its quantization error. MUL: the larger
      operand floor (``mul_error_bound``'s clamp) plus the need, and for
      c*u base + e0 need(c*u, g). Pairwise ADD: the views' errors add in
      full, each at least its operand's floor plus its view's need and, for
      an operand u with an e0, base(u) + e0 need(u, g).
    * e0 need(u, g) = ``floor_loss(e0(u), g)`` = 2^g - 2^e0(u), e0 the
      finest grid u's value can have. A value that never becomes a point
      has err >= base + 2^eff - 2^e0 in every plan. Flooring a non-point
      interval from eff to g adds 2^g - 2^eff, so the bound telescopes
      along a path. An ADD passes on both views' errors in full and takes
      the finer view grid: its base and e0 are the sum and the minimum of
      its operands'. A product c*u by a constant adds M_c*err(u) + M_u*e_c
      with M_c = |c| >= 2^eff(c), so e0 = eff(c) + e0(u) and base =
      |c|*base(u) + M_u*e_c, where M_u, the largest |value| of u's
      interval, is at least the larger end of |u|'s reach. As eff is never
      below the format grid, a value on the grid 2^g has err >= base +
      e0 need(u, g). This total holds from the inputs on, not on top of an
      error already made: a suffix of it would count again the
      2^eff - 2^e0 that error holds.
    * Points. e0 is set only for values whose interval spans zero,
      lo < 0 <= hi, in every plan. Flooring keeps that, so none collapses
      to a point, whose ``floor_loss`` is an exact remainder instead. A sum
      spans zero when its operands do (it negates at most one), a product
      c*u with c < 0 only when u's hi is > 0 too.

    The rules read the table's input formats and quantized constants and do
    integer and ``ErrorBound`` arithmetic only. One table serves the
    topologies of its graph: ``table.floors`` memoizes one record per ``b0``
    and distinct cone, so their searches share what their cones share, and
    ``_TopologyFloors`` floors a re-association from its chains' shapes.
    Raises ValueError on a node kind no source graph holds.
    """
    at = _FloorMemo.at(table, b0)
    floors: dict[str, _Floor] = {}
    for nid in order:
        node = dfg.node(nid)
        if node.kind is NodeKind.OUTPUT:
            floors[nid] = floors[node.operands[0]]
        else:
            floors[nid] = at.floor(node.kind, nid, node.negate, [floors[o] for o in node.operands])
    return floors


class _FloorMemo:
    """The records of ``table.floors`` at one bound ``b0``: one ``_Floor``
    per (kind, negate, ids of the operands' records), and per leaf id one,
    which no bound changes, kept under ``table.floors[None]`` for all."""

    __slots__ = ("table", "b0", "slack", "records", "leaves")

    @staticmethod
    def at(table: GraphTable, b0: ErrorBound) -> "_FloorMemo":
        key = (b0.n, b0.e, b0.q)
        memo = table.floors.get(key)
        if memo is None:
            memo = table.floors[key] = _FloorMemo()
            memo.table, memo.b0, memo.records = table, b0, {}
            memo.leaves = table.floors.setdefault(None, {})
            # 2^slack: the least power of two at or above b0, none when b0 is 0
            memo.slack = _exp_above(b0) if b0.n > 0 else None
        return memo

    def floor(self, kind: NodeKind, nid: str | None, negate: tuple[bool, bool],
              below: list) -> _Floor:
        """The record of the node ``nid`` (read only for a leaf) of ``kind``
        with per-operand ``negate`` flags and its operands' records ``below``."""
        records, key = (self.records, (kind, negate, *map(id, below))) if below else \
            (self.leaves, nid)
        floor = records.get(key)
        if floor is None:
            floor = records[key] = _floor(self.table, kind, nid, negate, below, self.b0,
                                          self.slack)
        return floor


def _floor(table: GraphTable, kind: NodeKind, nid: str | None, negate: tuple[bool, bool],
           below: list, b0: ErrorBound, slack: int | None) -> _Floor:
    """The ``_Floor`` of the node ``nid`` of ``kind`` with per-operand
    ``negate`` flags, from its operands' (``below``); 2^slack is the least
    power of two at or above b0, None when b0 is 0."""
    zero, den, width = table.zero, table.den, table.config.width
    if kind is NodeKind.INPUT:
        fmt = table.bindings.input_format(nid)
        return _Floor(zero, -fmt.f, zero, (fmt.min_raw, fmt.max_raw, -fmt.f), -fmt.f, zero,
                      e0=-fmt.f, pos=fmt.max_raw > 0)
    if kind is NodeKind.CONST:
        info, raw = table.quantized[nid]
        iv = info.interval
        return _Floor(info.err, info.signal.grid_exp, None, (iv.m_lo, iv.m_hi, iv.exp),
                      info.eff_exp, info.err, const=(info, raw))
    if kind not in (NodeKind.MUL, NodeKind.ADD):
        raise ValueError(f"source graphs cannot contain {kind} nodes")
    a, b = below
    if kind is NodeKind.MUL:
        g = a.g + b.g  # a product's grid; truncation coarsens it
        full = _reach_product(a.reach, b.reach)
        reach = _lowered(full, slack)
    else:
        g = max(a.g, b.g)  # the grid both views align to
        reach = _reach_sum(_lowered(a.reach, slack, negate[0]),
                           _lowered(b.reach, slack, negate[1]))
    if reach is not None:
        lo, hi, e = reach
        if hi > 0:
            g = max(g, e + hi.bit_length() - (width - 1))
        if lo < 0:
            g = max(g, e + (-lo - 1).bit_length() - (width - 1))
    if kind is NodeKind.MUL:
        need, eff, product_eff = zero, None, None
        if _no_point(full) and a.eff is not None and b.eff is not None:
            need = floor_loss(a.eff + b.eff, g, q=den)
            eff = _floored_eff(b0, a.eff + b.eff)
            if _no_point(reach):
                product_eff = a.eff + b.eff
        err, e0, base = max(a.err, b.err) + need, None, None
        for c, u in ((a, b), (b, a)):  # c*u by a constant c
            if c.const is not None and c.const[1] and u.e0 is not None \
                    and (c.const[1] > 0 or u.pos):
                info, raw = c.const
                e0 = info.eff_exp + u.e0
                # |u|'s interval reaches past the ends of its reach: M_u is at
                # least m * 2^x
                m, x = (0, 0) if u.reach is None else (max(u.reach[1], -u.reach[0], 0),
                                                       u.reach[2])
                base = u.base.scaled(abs(raw), -info.signal.fmt.f) + info.err.scaled(m, x)
                err = max(err, base + floor_loss(e0, g, q=den))
                break
        return _Floor(err, g, base, reach, eff, need, e0, False, None, product_eff, ())
    floor = need = eff = None
    views = []
    for f in below:
        loss = zero
        if f.const is not None:  # a point: its view loses the exact remainder
            info = f.const[0]
            loss = floor_loss(info.eff_exp, g, info.interval, den)
        elif _no_point(f.reach) and f.eff is not None:
            loss = floor_loss(f.eff, g, q=den)
            view = _floored_eff(b0, f.eff)
            eff = view if eff is None or view < eff else eff
        part = f.err + loss if loss.n else f.err
        if f.e0 is not None and g > f.e0:  # else the e0 bound is base, at most err
            alt = f.base + floor_loss(f.e0, g, q=den)
            if alt > part:
                part = alt
        floor, need = (part, loss) if floor is None else (floor + part, need + loss)
        views.append(loss)
    # the sum spans zero as its operands do: it negates at most one
    e0 = min(a.e0, b.e0) if a.e0 is not None and b.e0 is not None else None
    return _Floor(floor, g, a.base + b.base if e0 is not None else None, reach, eff, need,
                  e0, negate[0] or negate[1], None, None, views)


def _shape_steps(chain: Chain, shape) -> list[tuple[int, int, tuple[bool, bool]]]:
    """The additions of ``shape`` over the chain's terms, each after the
    additions it reads: (left, right, negate) per addition, where an operand
    k >= 0 is term k and ~k addition k. Raises PlanCheckError when every
    term is negative."""
    steps = []

    def build(node_shape) -> tuple[int, int]:  # (operand, sign)
        if isinstance(node_shape, int):
            return node_shape, chain.terms[node_shape][1]
        (la, sa), (lb, sb) = build(node_shape[0]), build(node_shape[1])
        if sa > 0:
            negate, sign = (False, sb < 0), 1
        elif sb > 0:
            negate, sign = (True, False), 1
        else:
            negate, sign = (False, False), -1
        steps.append((la, lb, negate))
        return ~(len(steps) - 1), sign

    if build(shape)[1] < 0:
        raise PlanCheckError("a chain cannot be globally negative")
    return steps


class _TopologyFloors:
    """The grid floor of each candidate of one table's graph, as
    ``node_floors`` gives it on the candidate's graph, read from its
    chains' shapes with no graph built.

    A node's record depends only on the records below it, so a candidate's
    records differ from the source graph's only at the additions of a
    re-shaped chain and at the nodes downstream of its root. The source
    graph's records are worked out once per bound; per candidate only those
    are floored again, through the same ``table.floors`` memo, so equal
    sub-sums share one record as they do on built graphs.
    """

    def __init__(self, table: GraphTable, shape_lists: list[list]):
        self._table, self._dfg, self._shape_lists = table, table.dfg, shape_lists
        self._steps: dict[tuple[int, int], list] = {}  # (chain, shape) -> _shape_steps
        self._work: dict[tuple[int, ...], list] = {}  # re-shaped chains -> nodes to floor
        self._b0_key = self._base = None

    def _nodes_to_floor(self, reshaped: tuple[int, ...]) -> list[tuple[str, int | None]]:
        """The re-shaped chains' roots and the nodes downstream of them, in
        the source graph's depth-first order, each with the index of the
        chain it roots (None for the others); a re-shaped chain's other
        additions are gone."""
        work = self._work.get(reshaped)
        if work is None:
            dfg, chains = self._dfg, self._dfg.chains
            order = {nid: k for k, nid in enumerate(dfg.depth_first)}
            roots = {chains[i].root: i for i in reshaped}
            gone = {m for i in reshaped for m in chains[i].members}
            seen = {r for r in roots if r in order}  # a root no output reads floors nothing
            stack = list(seen)
            while stack:
                for c in dfg.consumers[stack.pop()]:
                    if c not in seen and c in order:
                        seen.add(c)
                        stack.append(c)
            work = self._work[reshaped] = [(nid, roots.get(nid)) for nid in
                                           sorted(seen - gone, key=order.__getitem__)]
        return work

    def output_floors(self, ks: tuple[int, ...], b0: ErrorBound) -> list[_Floor]:
        """The grid floor's output records, in ``output_ids`` order, of the
        candidate that takes shape ``ks[i]`` of chain i's list."""
        table, dfg = self._table, self._dfg
        at = _FloorMemo.at(table, b0)
        if (b0.n, b0.e, b0.q) != self._b0_key:
            self._b0_key = (b0.n, b0.e, b0.q)
            self._base = node_floors(table, dfg, dfg.depth_first, b0)
        base = self._base
        reshaped = tuple(i for i, k in enumerate(ks) if k)
        if not reshaped:
            return [base[o] for o in dfg.output_ids]
        cur: dict[str, _Floor] = {}
        chains = dfg.chains
        for nid, chain in self._nodes_to_floor(reshaped):
            if chain is not None:
                key = (chain, ks[chain])
                steps = self._steps.get(key)
                if steps is None:
                    steps = self._steps[key] = _shape_steps(
                        chains[chain], self._shape_lists[chain][ks[chain]])
                terms = [cur.get(t) or base[t] for t, _sign in chains[chain].terms]
                made: list[_Floor] = []
                for left, right, negate in steps:
                    made.append(at.floor(NodeKind.ADD, None, negate, [
                        terms[left] if left >= 0 else made[~left],
                        terms[right] if right >= 0 else made[~right]]))
                cur[nid] = made[-1]
                continue
            node = dfg.node(nid)
            below = [cur.get(o) or base[o] for o in node.operands]
            cur[nid] = below[0] if node.kind is NodeKind.OUTPUT else \
                at.floor(node.kind, nid, node.negate, below)
        return [cur.get(o) or base[o] for o in dfg.output_ids]
