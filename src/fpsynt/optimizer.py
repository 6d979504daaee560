"""Search over formatting choices and graph topologies.

A synthesis' ``GraphTable`` holds its source graph, bindings and config.
One loop searches a list of candidates on it:

  * the chain-accumulator plan (``CHAIN_PLAN``): the source graph with
    every addition chain in one register of width W + ceil(log2 n), with
    no intra-chain loss and one final truncation. Its bound does not
    depend on the chains' shapes, so it is searched once, on the source
    graph, and first: its cost is a strong incumbent for the topologies;
  * the topologies, ``(label, graph)`` pairs: every maximal addition chain
    re-associated into all binary-tree shapes (Catalan(n-1) of them) up to
    a term limit, longer chains trying only the balanced tree besides the
    source shape.

Each candidate gets an exact branch-and-bound over per-node formatting
choices (extra product truncation, extra pre-scaling).

Every search walks positions depth-first (``PlanBuilder.search_order``),
from the chain roots in level-first order and then from the outputs, so
each product is consumed by its add soon after it is made and few values
are live at once; ``PlanBuilder`` says why the plan is still the
level-first walk's. Four facts make its cuts exact. Error bounds never
decrease along a path, an addition passes on the errors of both operands
in full and a product at least one operand's, so a state whose errors
already add up past the incumbent's cost cannot win. Every downstream
bound is monotone in the operand errors, so of two states at one position
that agree on the format, interval and value grid of every live value, the
one with no larger errors there and on the finished outputs, and with a
choice prefix no larger, reaches every completion at least as well as the
other; the other is dropped (the dominance memo). In a plan that can tie
the incumbent no error exceeds the incumbent's largest, b0, so no flooring
loses more than b0: that bounds how far a flooring lowers an interval and
how coarse a value grid gets. A value's grid is then at least as coarse as
a W-bit format holding its interval allows, and a value floored from its
finest grid 2^e0 to 2^g has lost at least 2^g - 2^e0 on the way. Before a
topology's first step these bound each output's error from below (the grid
floor, ``node_floors``), and a topology whose floor exceeds the incumbent
is cut whole. And the same rules bound from below the loss of each step,
in every plan that can tie the incumbent, whatever the state it runs on:
the losses of the steps still to come add onto the errors already made, so
a state's bound is its errors so far plus the losses ahead of it on each
output's paths (the completion floor, ``_Frontier``).

A search returns its best leaf, the minimum of (cost, choice vector in
level-first order), laid out level-first. Across candidates the best plan
has the smallest predicted output bound; ties fall to fewer inserted
formatting nodes, then to the earlier rank: the topologies in enumeration
order, then the chain-accumulator plan. The best cost found so far is the
shared incumbent of every later search. Every cut is strict, since a tie
can still win on the choice vector or on the formatting-node count. Each
search's ``SearchStats`` goes to ``GraphTable.searches`` and ``Plan.searches``.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math

from .analysis import (CHAIN_PLAN, ErrorBound, GraphTable, Plan, PlanBuilder, _Ctx, cost_key,
                       floor_loss)
from .config import N_MAX_TOPOLOGIES, Config
from .core import Chain, Dfg, Node, NodeKind
from .errors import CannotFitError, PlanCheckError
from .parser import Bindings

log = logging.getLogger("fpsynt.optimizer")

_MAX_TOPOLOGY_PRODUCT = 1024


@dataclasses.dataclass(frozen=True)
class SearchStats:
    """One ``combinatorial_search`` of the candidate ``label``; ``cut`` is
    "grid floor" or "incumbent" when that cut the whole candidate, else None.
    Its text is the search's ``fpsynt.optimizer`` INFO line."""

    label: str
    steps: int = 0
    leaves: int = 0
    incumbent_prunes: int = 0
    dominance_prunes: int = 0
    cut: str | None = None

    def __str__(self) -> str:
        return (f"search {self.label}: {self.steps} steps, {self.leaves} leaves, "
                f"{self.incumbent_prunes} incumbent prunes, {self.dominance_prunes} "
                "dominance prunes" + (f", cut by the {self.cut}" if self.cut else ""))


# which operand of a product carries its error into the cones: the first
# one of the highest rank, a computed value's being 2 (an input's error is
# 0, a constant's is fixed)
_CARRIES = {NodeKind.INPUT: 0, NodeKind.CONST: 1}


class _Frontier:
    """What the rest of a search reads of a state, for each position: a
    table worked out once per search, read by the bound and the memo.

    A state at position p has run the steps before p. Its live values are
    the ones made before p and read at or after it; the finished outputs
    are the outputs made before p. Both are fixed per position. An input or
    a constant, which ``step`` aliases to itself, has the same info in every
    state, so only the computed live values can differ between states.

    A node's error is at least the sum of the errors of its cone reads, each
    as often as the node reads it: an addition passes its operands' errors
    on in full, and a product one operand's, with weight 1, by
    ``mul_error_bound``'s clamp. That operand is fixed per product: a
    computed value if the product reads one, else a constant, as an
    input's error is 0. The cone of an output at p is the multiset of live
    values that reach it through the cone reads of the steps at or after p,
    each as often as it has such paths, or the output once it is finished.
    The table holds each cone's computed values with their multiples, and
    its fixed share: the sum of multiple times error over its constants.

    ``lower_bound``, the search's one bound per state, adds per output the
    errors of its cone's computed values, read from the state, times their
    multiples, its fixed share and its completion floor: the errors that the
    steps at and after the state's position add on the way to the output,
    each step's ``_Floor.need`` times its number of paths to the output,
    for the bound ``bound_to`` last set; where a product's truncation is
    still to come, a view of it at a later ADD adds what the two lose
    together beyond their two needs. A need bounds a step's own loss in
    every plan that can tie that bound, so the floor does not depend on the
    state. ``dominated`` keeps, per position and per (format, interval,
    value grid) of every computed live value, the (errors, choice vector)
    pairs that no other pair there dominates.
    """

    def __init__(self, builder: PlanBuilder):
        order, dfg, outputs = builder.search_order, builder.dfg, builder.dfg.output_ids
        readers = dict.fromkeys(order, 0)
        cone_readers: dict[str, list[str]] = {nid: [] for nid in order}
        cone_reads = {}
        leaves = set()  # the inputs and constants
        for nid in order:
            node = dfg.node(nid)
            reads = builder.reads(nid)
            if node.kind is NodeKind.MUL:
                reads = (max(reads, key=lambda r: _CARRIES.get(dfg.node(r).kind, 2)),)
            elif node.kind not in (NodeKind.ADD, NodeKind.OUTPUT):
                reads = ()
                leaves.add(nid)
            cone_reads[nid] = reads
            for r in builder.reads(nid):
                readers[r] += 1
            for r in reads:
                cone_readers[r].append(nid)
        # paths[k][v]: the number of paths from v to the k-th output through
        # cone reads, a floor on the multiple of err(v) in the output's error
        self._paths = paths = []
        for o in outputs:
            to_o = {o: 1}
            for nid in reversed(order):
                c = sum(to_o.get(r, 0) for r in cone_readers[nid])
                if c:
                    to_o[nid] = c
            paths.append(to_o)

        self._builder = builder
        consts = builder.table.quantized
        self._tables = []  # per position: (computed live values, finished outputs)
        self._cones = []  # per position: each output's (computed value, multiple) pairs
        self._fixed = self._base = []  # per position: each output's fixed share; see bound_to
        live: dict[str, int] = {}  # value -> count of reads still to come
        done: list[str] = []
        cones: list[dict[str, int]] = [{} for _ in outputs]  # value -> multiple
        for nid in order:
            self._tables.append((tuple(v for v in live if v not in leaves), tuple(done)))
            self._cones.append(tuple(tuple((v, c) for v, c in cone.items() if v not in leaves)
                                     for cone in cones))
            self._fixed.append(tuple(sum((c * consts[v][0].err for v, c in cone.items()
                                          if v in consts), builder.zero) for cone in cones))
            for r in builder.reads(nid):
                live[r] -= 1
                if not live[r]:
                    del live[r]
            if readers[nid]:
                live[nid] = readers[nid]
            if nid in outputs:
                done.append(nid)
            for cone, to_o in zip(cones, paths):
                c = to_o.get(nid)
                if c:  # the value made takes the place of the reads it counts
                    for r in cone_reads[nid]:
                        cone[r] -= c
                        if not cone[r]:
                            del cone[r]
                    cone[nid] = c
        self._seen: list[dict] = [{} for _ in order]

    def bound_to(self, b0: ErrorBound):
        """Add onto the fixed shares the completion floors of the plans that
        can tie ``b0``: per position, each output's; none on a graph with a
        chain accumulator, which the grid floor does not cover."""
        builder = self._builder
        if builder.chains:
            return
        order, dfg, den = builder.search_order, builder.dfg, builder.den
        floors = node_floors(builder.table, dfg, order, b0)
        sums = [builder.zero] * len(self._paths)
        base = [()] * len(order)
        joint: dict[str, list] = {}  # product -> (output index, excess) of its views
        for pos in range(len(order) - 1, -1, -1):
            nid = order[pos]
            kind = dfg.node(nid).kind
            if kind is not NodeKind.OUTPUT:  # an output's floor is its operand's
                made = [(k, to_o[nid]) for k, to_o in enumerate(self._paths) if nid in to_o]
                floor = floors[nid]
                for k, c in made:
                    sums[k] = sums[k] + c * floor.need
                for k, excess in joint.pop(nid, ()):
                    sums[k] = sums[k] + excess
                if kind is NodeKind.ADD:
                    for v, loss in zip(dfg.node(nid).operands, floor.views):
                        u = floors[v]
                        if u.product_eff is not None:  # v is a product
                            # the truncation of v and this view together
                            excess = floor_loss(u.product_eff, max(u.g, floor.g), q=den) \
                                - u.need - loss
                            if excess.n > 0:
                                joint.setdefault(v, []).extend((k, c * excess) for k, c in made)
            base[pos] = tuple(map(ErrorBound.__add__, self._fixed[pos], sums))
        self._base = base

    def lower_bound(self, pos: int, ctx) -> tuple:
        """A cost key no completion of the state ``ctx`` at ``pos`` goes
        below, when it can tie the bound: each output's error is at least
        its cone's errors plus its fixed share and completion floor."""
        info, alias = ctx.info, ctx.alias
        sums = []
        for pairs, s in zip(self._cones[pos], self._base[pos]):
            for v, c in pairs:
                s = s + c * info[alias[v]].err
            sums.append(s)
        return cost_key(sums)

    def dominated(self, pos: int, ctx, vec: tuple) -> bool:
        """True when an earlier state at ``pos`` dominates this one;
        otherwise record it."""
        live, done = self._tables[pos]
        infos = [ctx.info[ctx.alias[v]] for v in live]
        key = tuple((i.signal, i.interval, i.eff_exp) for i in infos)
        errs = tuple([i.err for i in infos] + [ctx.info[o].err for o in done])
        kept = self._seen[pos].setdefault(key, [])
        for k_errs, k_vec in kept:
            if k_vec <= vec and all(a <= b for a, b in zip(k_errs, errs)):
                return True
        kept[:] = [(k_errs, k_vec) for k_errs, k_vec in kept
                   if not (vec <= k_vec and all(a <= b for a, b in zip(errs, k_errs)))]
        kept.append((errs, vec))
        return False


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
    and distinct cone, so their searches share what their cones share.
    Raises ValueError on a node kind no source graph holds.
    """
    b0_key = (b0.n, b0.e, b0.q)
    slack = _exp_above(b0) if b0.n > 0 else None
    floors: dict[str, _Floor] = {}
    for nid in order:
        node = dfg.node(nid)
        if node.kind is NodeKind.OUTPUT:
            floors[nid] = floors[node.operands[0]]
            continue
        below = [floors[o] for o in node.operands]
        leaf = nid if node.kind in (NodeKind.INPUT, NodeKind.CONST) else None
        key = (b0_key, node.kind.value, leaf, node.negate, *map(id, below))
        floor = table.floors.get(key)
        if floor is None:
            floor = table.floors[key] = _floor(table, node, below, b0, slack)
        floors[nid] = floor
    return floors


def _floor(table: GraphTable, node, below: list, b0: ErrorBound, slack: int | None) -> _Floor:
    """The node's ``_Floor`` from its operands' (``below``); 2^slack is
    the least power of two at or above b0, None when b0 is 0."""
    kind, zero, den, width = node.kind, table.zero, table.den, table.config.width
    if kind is NodeKind.INPUT:
        fmt = table.bindings.input_format(node.id)
        return _Floor(zero, -fmt.f, zero, (fmt.min_raw, fmt.max_raw, -fmt.f), -fmt.f, zero,
                      e0=-fmt.f, pos=fmt.max_raw > 0)
    if kind is NodeKind.CONST:
        info, raw = table.quantized[node.id]
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
        reach = _reach_sum(*(_lowered(f.reach, slack, neg)
                             for f, neg in zip(below, node.negate)))
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
                # |u|'s interval reaches past the ends of its reach
                m_u = zero if u.reach is None else \
                    ErrorBound(max(u.reach[1], -u.reach[0], 0) * den, u.reach[2], den)
                base = u.base.scaled(abs(raw), -info.signal.fmt.f) + info.err * m_u
                err = max(err, base + floor_loss(e0, g, q=den))
                break
        return _Floor(err, g, base, reach, eff, need, e0=e0, product_eff=product_eff)
    floor, need, eff, views = zero, zero, None, []
    for f in below:
        loss = zero
        if f.const is not None:  # a point: its view loses the exact remainder
            info = f.const[0]
            loss = floor_loss(info.eff_exp, g, info.interval, den)
        elif _no_point(f.reach) and f.eff is not None:
            loss = floor_loss(f.eff, g, q=den)
            view = _floored_eff(b0, f.eff)
            eff = view if eff is None else min(eff, view)
        part = f.err + loss
        if f.e0 is not None:
            part = max(part, f.base + floor_loss(f.e0, g, q=den))
        floor, need = floor + part, need + loss
        views.append(loss)
    # the sum spans zero as its operands do: it negates at most one
    e0 = min(a.e0, b.e0) if a.e0 is not None and b.e0 is not None else None
    return _Floor(floor, g, a.base + b.base if e0 is not None else None, reach, eff, need,
                  e0=e0, pos=any(node.negate), views=views)


def combinatorial_search(table: GraphTable, candidate: tuple[str, Dfg] | str,
                         prune: bool = True, incumbent: tuple | None = None) -> Plan | None:
    """Minimize the output error bound of ``candidate`` (as ``PlanBuilder``
    takes it) over all per-node formatting choices.

    Candidate k at a choice point means k extra grid-coarsening steps beyond
    the mandatory minimum. The walk is depth-first over
    ``PlanBuilder.search_order`` with an explicit stack, candidates in
    increasing order. The result is the leaf with the smallest
    ``cost_key``; among equal keys, the one whose choice vector, read in
    the level-first order of ``PlanBuilder.choice_points``, is
    lexicographically smallest. ``PlanBuilder.finish`` makes it the plan.

    With ``prune`` a state is cut when a lower bound on its cost exceeds
    the best cost known: the incumbent passed in, or the best plan found.
    The one bound per state is ``_Frontier.lower_bound``: per output, the
    errors made so far that reach it through additions and products plus
    the losses the steps still to come must add on the way, the completion
    floor. Added error grows with the candidate, so a cut candidate also
    cuts the larger ones at that choice point. A state is also dropped when
    an earlier state at the same position dominates it
    (``_Frontier.dominated``). With no choice to make there is no frontier,
    and only the leaf is held against the bound. ``prune=False`` walks the
    whole tree, for oracle comparisons.

    With ``prune`` and a topology, the grid floor (``node_floors``) gives
    the completion floors for each bound the search takes, and, with an
    incumbent, bounds each output's error before the first step: when that
    exceeds the incumbent, no plan can tie it, and the search ends there,
    before it makes a ``PlanBuilder``.

    Every exit appends the search's ``SearchStats`` to ``table.searches``
    and logs its text: a grid-floor cut, a finished search, an incumbent
    cut, which returns None, and a search that raises CannotFitError, as no
    choice fits the word width.
    """
    outputs = table.dfg.output_ids
    # bounds are compared on the table's denominator
    bound = tuple(ErrorBound.of(x, table.den) for x in incumbent) \
        if prune and incumbent is not None else None
    if bound is not None and candidate != CHAIN_PLAN:
        label, dfg = candidate
        floors = node_floors(table, dfg, dfg.depth_first, bound[0])
        if cost_key([floors[o].err for o in outputs]) > bound:
            table.searches.append(SearchStats(label, cut="grid floor"))
            log.info("%s", table.searches[-1])
            return None

    builder = PlanBuilder(table, candidate)
    order, n = builder.search_order, len(builder.search_order)
    points = builder.choice_points
    slot = {nid: k for k, nid in enumerate(points)}
    cands = range(table.config.k_max + 1)
    rows = [cands if nid in slot else (0,) for nid in order]
    frontier = _Frontier(builder) if prune and points and table.config.k_max else None
    if frontier is not None and bound is not None:
        frontier.bound_to(bound[0])
    best_key = best_vec = best_ctx = None
    last_fail = ""
    steps = leaves = cuts = dominated = 0

    # entries (pos, ctx, vec, cand): try candidate index ``cand`` of the row
    # at ``order[pos]`` on a copy of ``ctx``; a forced position's row is (0,)
    stack = [(0, _Ctx(), (0,) * len(points), 0)]
    while stack:
        pos, ctx, vec, cand = stack.pop()
        if not cand:
            # the state has just reached this position
            if pos == n:
                leaves += 1
                key = cost_key([ctx.info[o].err for o in outputs])
                if bound is not None and key > bound:
                    cuts += 1
                elif best_key is None or (key, vec) < (best_key, best_vec):
                    best_key, best_vec, best_ctx = key, vec, ctx
                    if prune and (bound is None or key < bound):
                        bound = key
                        if frontier is not None:
                            frontier.bound_to(bound[0])
                continue
            if frontier is not None and frontier.dominated(pos, ctx, vec):
                dominated += 1
                continue
        row = rows[pos]
        more = cand + 1 < len(row)
        # the last candidate may consume the parent state
        branch = ctx.clone() if more else ctx
        steps += 1
        try:
            builder.step(branch, order[pos], row[cand])
        except CannotFitError as e:
            last_fail = str(e)
            if more:
                stack.append((pos, ctx, vec, cand + 1))
            continue
        if bound is not None and frontier is not None and pos + 1 < n \
                and frontier.lower_bound(pos + 1, branch) > bound:
            # added error grows with the candidate, so the rest of the row
            # cannot beat the incumbent either
            cuts += 1
            continue
        if more:
            stack.append((pos, ctx, vec, cand + 1))
        if row[cand]:
            k = slot[order[pos]]
            vec = vec[:k] + (row[cand],) + vec[k + 1:]
        stack.append((pos + 1, branch, vec, 0))

    table.searches.append(SearchStats(builder.topology, steps, leaves, cuts, dominated,
                                      "incumbent" if best_vec is None and cuts else None))
    log.info("%s", table.searches[-1])
    if best_vec is None:
        if cuts:
            return None
        detail = f": {last_fail}" if last_fail else ""
        raise CannotFitError(f"no formatting choice fits the word width{detail}")
    return builder.finish(best_ctx, dict(zip(points, best_vec)))


# ---------------------------------------------------------------------------
# topology enumeration


def _all_shapes(lo: int, hi: int):
    """Every binary tree over the ordered leaves lo..hi-1."""
    if hi - lo == 1:
        yield lo
        return
    for split in range(lo + 1, hi):
        for left in _all_shapes(lo, split):
            for right in _all_shapes(split, hi):
                yield (left, right)


def _balanced_shape(lo: int, hi: int):
    if hi - lo == 1:
        return lo
    mid = (lo + hi + 1) // 2
    return (_balanced_shape(lo, mid), _balanced_shape(mid, hi))


def _shapes_for_chain(chain: Chain, n_max: int):
    """The source shape first, then every other shape of a chain of at most
    ``n_max`` terms, or else the balanced tree if it differs."""
    n = chain.n_terms
    pool = _all_shapes(0, n) if n <= n_max else [_balanced_shape(0, n)]
    return [chain.shape] + [s for s in pool if s != chain.shape]


def _rebuild_chain(nodes: list[Node], chain: Chain, shape, used: set[str]) -> list[Node]:
    """Replace a chain's ADD nodes with the given tree shape over its terms."""
    drop = set(chain.members) | {chain.root}
    out = [n for n in nodes if n.id not in drop]
    counter = [0]

    def fresh() -> str:
        while True:
            name = f"{chain.root}_r{counter[0]}"
            counter[0] += 1
            if name not in used:
                used.add(name)
                return name

    def build(node_shape, top: bool):
        if isinstance(node_shape, int):
            term_id, sign = chain.terms[node_shape]
            return term_id, sign
        (la, sa), (lb, sb) = build(node_shape[0], False), build(node_shape[1], False)
        if sa > 0:
            negate, sign = (False, sb < 0), 1
        elif sb > 0:
            negate, sign = (True, False), 1
        else:
            negate, sign = (False, False), -1
        nid = chain.root if top else fresh()
        out.append(Node(nid, NodeKind.ADD, (la, lb), negate=negate))
        return nid, sign

    _, sign = build(shape, True)
    if sign < 0:
        raise PlanCheckError("a chain cannot be globally negative")
    return out


def enumerate_topologies(dfg: Dfg) -> list[tuple[str, Dfg]]:
    """All distinct re-associations of the graph's addition chains.

    The source topology always comes first. Chains with more than
    ``N_MAX_TOPOLOGIES`` terms contribute only the source shape and the
    balanced tree; when the cross product over several chains grows past a
    safety cap, every chain does (a limit of 2, below every chain's length).
    """
    chains = dfg.chains
    shape_lists = [_shapes_for_chain(c, N_MAX_TOPOLOGIES) for c in chains]
    if math.prod(map(len, shape_lists)) > _MAX_TOPOLOGY_PRODUCT:
        shape_lists = [_shapes_for_chain(c, 2) for c in chains]

    result = []
    for ks in itertools.product(*(range(len(shapes)) for shapes in shape_lists)):
        nodes = list(dfg.nodes)
        used = {n.id for n in dfg.nodes}
        changed = False
        for chain, shapes, k in zip(chains, shape_lists, ks):
            if k:  # shape 0 is the chain's source shape
                nodes = _rebuild_chain(nodes, chain, shapes[k], used)
                changed = True
        label = ",".join(f"{c.root}:{k}" for c, k in zip(chains, ks)) if changed else "source"
        result.append((label, Dfg(tuple(nodes)) if changed else dfg))
    return result


# ---------------------------------------------------------------------------
# the search driver


def topological_optimize(dfg: Dfg, bindings: Bindings, config: Config) -> Plan:
    """Run the full optimization stack and return the cheapest plan.

    Candidates, each with its rank: every enumerated topology, ranked in
    enumeration order, and ``CHAIN_PLAN``, ranked last, all searched on one
    ``GraphTable``. The chain plan is searched first, with no incumbent; the
    best cost found so far is the incumbent of each later search, and a
    candidate it cuts is no plan. Ranking: (max output bound, summed
    bounds, inserted formatting nodes, rank). When no candidate fits, the
    errors are joined in rank order.
    """
    table = GraphTable(dfg, bindings, config)
    topologies = enumerate_topologies(dfg) if config.enable_topology_opt else [("source", dfg)]
    candidates: list[tuple[int, tuple[str, Dfg] | str]] = list(enumerate(topologies))
    if config.enable_chain_alloc and dfg.chains:
        candidates.insert(0, (len(topologies), CHAIN_PLAN))

    incumbent = None
    ranked: list[tuple] = []
    errors: list[tuple[int, str]] = []
    for rank, candidate in candidates:
        try:
            plan = combinatorial_search(table, candidate, incumbent=incumbent)
        except CannotFitError as e:
            errors.append((rank, f"{'chain' if candidate == CHAIN_PLAN else candidate[0]}: {e}"))
            continue
        if plan is not None:
            ranked.append(((plan.cost_key, plan.n_format_nodes, rank), plan))
            if incumbent is None or plan.cost_key < incumbent:
                incumbent = plan.cost_key

    if not ranked:
        raise CannotFitError("; ".join(e for _, e in sorted(errors)) or "no feasible plan")
    return dataclasses.replace(min(ranked, key=lambda r: r[0])[1], searches=tuple(table.searches))
