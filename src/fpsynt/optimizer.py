"""Search over formatting choices and graph topologies.

One loop searches a list of candidates, each a graph and the addition
chains that accumulate in a widened register:

  * the chain-accumulator plan: the source graph with every addition chain
    in one register of width W + ceil(log2 n), with no intra-chain loss
    and one final truncation. Its bound does not depend on the chains'
    shapes, so it is searched once, on the source graph, and first: its
    cost is a strong incumbent for the topologies;
  * the topologies: every maximal addition chain re-associated into all
    binary-tree shapes (Catalan(n-1) of them) up to a term limit, longer
    chains trying only the balanced tree besides the source shape.

Each candidate gets an exact branch-and-bound over per-node formatting
choices (extra product truncation, extra pre-scaling).

The search walks positions depth-first from the outputs
(``PlanBuilder.search_order``), so each product is consumed by its add
soon after it is made and few values are live at once. Three facts make
its cuts exact. Error bounds never decrease along a path, and an addition
passes on the errors of both operands in full, so a state whose errors
already add up past the incumbent's cost cannot win. Every downstream
bound is monotone in the operand errors, so of two states at one position
that agree on the format, interval and value grid of every live value, the
one with no larger errors there and on the finished outputs, and with a
choice prefix no larger, reaches every completion at least as well as the
other; the other is dropped (the dominance memo). And in a plan that can
tie the incumbent no error exceeds the incumbent's largest, so a value's
grid is at least as coarse as a W-bit format holding its exact range,
less that error, allows, and a value floored from its finest grid 2^e0 to
2^g has lost at least 2^g - 2^e0 on the way. Before a topology's first
step these bound each output's error from below (the grid floor,
``GridFloor``), and a topology whose floor exceeds the incumbent is cut
whole.

A search returns the minimum of (cost, choice vector in level-first
order), replayed once with ``PlanBuilder.build`` so that node order and
fresh names follow the level-first walk. Across candidates the best plan
has the smallest predicted output bound; ties fall to fewer inserted
formatting nodes, then to the earlier rank: the topologies in enumeration
order, then the chain-accumulator plan. The best cost found so far is the
shared incumbent of every later search. Every cut is strict, since a tie
can still win on the choice vector or on the formatting-node count.
"""

from __future__ import annotations

import logging
import math

from .analysis import (Chain, ErrorBound, Plan, PlanBuilder, cost_key, find_chains,
                       floor_loss)
from .config import Config
from .core import Dfg, Node, NodeKind
from .errors import CannotFitError
from .parser import Bindings

log = logging.getLogger("fpsynt.optimizer")

# addition chains up to this many terms are re-associated exhaustively
# (Catalan(n-1) shapes); longer ones try only the balanced tree
N_MAX_TOPOLOGIES = 6
_MAX_TOPOLOGY_PRODUCT = 1024

_COUNTERS = "search %s: %d steps, %d leaves, %d incumbent prunes, %d dominance prunes%s"


class _Frontier:
    """What the rest of a search reads of a state, for each position.

    A state at position p has run the steps before p. Its live values are
    the ones made before p and read at or after it; the finished outputs
    are the outputs made before p. Both are fixed per position, so they
    are worked out once per search.

    The cone of an output is the multiset of live values that reach it
    through additions only, each as often as it has such paths; an
    addition passes their errors on in full. ``advance`` runs a step and
    carries each output's cone sum, the sum of the errors in its cone, or
    its own error once it is made: it subtracts the values the step reads
    out of the cones and adds the value it makes, as worked out once per
    position. ``lower_bound`` reads those sums. ``dominated`` keeps, per
    position and per (format, interval, value grid) of every live value, the
    (errors, choice vector) pairs that no other pair there dominates.
    """

    def __init__(self, builder: PlanBuilder):
        order = builder.search_order
        dfg = builder.dfg
        outputs = dfg.output_ids
        readers: dict[str, list[str]] = {nid: [] for nid in order}
        for nid in order:
            for r in builder.reads(nid):
                readers[r].append(nid)
        sums = {nid for nid in order if dfg.node(nid).kind in (NodeKind.ADD, NodeKind.OUTPUT)}
        # paths[o][v]: the number of paths from v to output o whose later
        # nodes are all additions, i.e. the multiple of err(v) in err(o)
        paths = {}
        for o in outputs:
            to_o = {o: 1}
            for nid in reversed(order):
                c = sum(to_o.get(r, 0) for r in readers[nid] if r in sums)
                if c:
                    to_o[nid] = c
            paths[o] = to_o

        self._builder = builder
        self.zero_sums = (builder.zero,) * len(outputs)
        self._tables = []  # per position: (live, finished outputs)
        # per position: (output index, value read, multiple) leaving the
        # cones, and (output index, multiple) of the value made
        self._moves = []
        live: dict[str, int] = {}  # value -> count of reads still to come
        done: list[str] = []
        for nid in order:
            self._tables.append((tuple(live), tuple(done)))
            for r in builder.reads(nid):
                live[r] -= 1
                if not live[r]:
                    del live[r]
            if readers[nid]:
                live[nid] = len(readers[nid])
            if nid in paths:
                done.append(nid)
            made = tuple((k, paths[o][nid]) for k, o in enumerate(outputs) if nid in paths[o])
            taken = tuple((k, r, c) for k, c in made for r in builder.reads(nid)) \
                if nid in sums else ()
            self._moves.append((taken, made))
        self._seen: list[dict] = [{} for _ in order]

    def advance(self, pos: int, ctx, choice: int, sums: tuple) -> tuple:
        """Run the step at ``pos`` on ``ctx`` and return the cone sums after
        it, from ``sums`` before it."""
        taken, made = self._moves[pos]
        new = list(sums)
        for k, r, c in taken:
            new[k] = new[k] - c * ctx.info[ctx.alias[r]].err
        nid = self._builder.search_order[pos]
        self._builder.step(ctx, nid, choice)
        for k, c in made:
            new[k] = new[k] + c * ctx.info[ctx.alias[nid]].err
        return tuple(new)

    def lower_bound(self, ctx, sums: tuple) -> tuple:
        """A cost key no completion of the state with these cone sums goes
        below: each output's error is at least its cone sum."""
        top = max(sums)
        if ctx.live_err > top:
            top = ctx.live_err
        return (top, max(top, sum(sums[1:], sums[0])))

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


_FORM_TERMS = 32  # affine forms over more inputs are not kept


class _Cone:
    """What the grid floor knows of a node in every plan.

    ``e0``: the finest value grid the node can have, set only when its
    interval spans zero (lo < 0 <= hi) in every plan, so that no flooring
    collapses it to a point. ``pos``: its value, as its consumers read it,
    has hi > 0 in every plan. ``lo``, ``hi``: its exact range over the
    input box, attained at input corners, when it is affine in the inputs;
    ``mask``: the inputs it reads, as bits; ``form``: the affine function,
    (constant, {input bit: coefficient}), up to ``_FORM_TERMS`` inputs.
    Exact values are those of the declared constants. ``const``: a
    constant's quantized NodeInfo and raw word. ``err``, ``grid``: a leaf's
    error and grid exponent. ``factor``: for a product by a constant with
    e0 set, the operand index of the constant."""

    __slots__ = ("e0", "pos", "lo", "hi", "mask", "form", "const", "err", "grid", "factor")

    def __init__(self, e0=None, pos=False, lo=None, hi=None, mask=0, form=None,
                 const=None, err=None, grid=None, factor=None):
        self.e0, self.pos, self.lo, self.hi, self.mask = e0, pos, lo, hi, mask
        self.form, self.const, self.err, self.grid = form, const, err, grid
        self.factor = factor


def _exp_above(x: ErrorBound, strict: bool) -> int:
    """The smallest R with 2^R > x (``strict``) or 2^R >= x, for x > 0."""
    n, e, q = x.n, x.e, x.q
    t = n.bit_length() - q.bit_length() - 1  # q * 2^t < n
    while True:
        a, b = (q << t, n) if t >= 0 else (q, n << -t)
        if a > b or (a == b and not strict):
            return t + e
        t += 1


class GridFloor:
    """Lower bounds on the output errors of the plans that can tie or beat
    an incumbent, taken before a search's first step: the grid floor.

    For a bound ``b0``, ``output_floors`` gives each output an error that
    every plan of the builder's graph whose errors are all at most ``b0``
    reaches. A plan whose cost key ties or beats ``(b0, s)`` is such a
    plan, since bounds never decrease along an edge. It is one bottom-up
    pass over ``builder.positions``. Per node it bounds from below the
    error of the node's W-bit value (a product's after truncation) and the
    exponent g of that value's grid; each rule is the analyzer's own, read
    from below:

    * Floors. INPUT: 0. CONST: its quantization error. MUL: the larger
      operand floor (``mul_error_bound``'s clamp), and for c*u base + need
      at g. Pairwise ADD: the views' errors add in full, each at least its
      operand's floor and, for an operand u with an e0, base(u) + need(u, g).
    * Grids. A product's grid is the sum of its operands' grids, and
      truncation only coarsens it; an ADD aligns both views to at least the
      coarser operand grid. A format of at most W bits with range exponent
      R has its grid at 2^(R - (W - 1)) or coarser. For a node affine in
      the inputs, at the input corner where its exact value is hi the
      computed value is at least hi - b0 and lies in the node's interval,
      which its format holds; likewise lo + b0. So R is at least that of a
      format holding both.
    * ``need(u, g) = floor_loss(e0(u), g)`` = 2^g - 2^e0(u), e0 the finest
      grid u's value can have. A value that never becomes a point has
      err >= base + 2^eff - 2^e0 in every plan. Flooring a non-point
      interval from eff to g adds 2^g - 2^eff, so the bound telescopes
      along a path. An ADD passes on both views' errors in full and takes
      the finer view grid: its base and e0 are the sum and the minimum of
      its operands'. A product c*u by a constant adds M_c*err(u) + M_u*e_c
      with M_c = |c| >= 2^eff(c), so e0 = eff(c) + e0(u) and base =
      |c|*base(u) + M_u*e_c, where M_u is at least the larger end of |u|'s
      exact range less b0. As eff is never below the format grid, a value
      on the grid 2^g has err >= base + need(u, g).
    * Points. e0 is set only for values whose interval spans zero,
      lo < 0 <= hi, in every plan. Flooring keeps that, so none collapses
      to a point, whose ``floor_loss`` is an exact remainder instead. A sum
      spans zero when its operands do (it negates at most one), a product
      c*u with c < 0 only when u's hi is > 0 too.

    The rules read the builder's quantized constants and do integer and
    ``ErrorBound`` arithmetic only. One instance memoizes each distinct
    cone, and per ``b0`` its floor, so the searches of one graph's
    candidates (one bindings and config) share what their cones share.
    """

    def __init__(self):
        self._cones: dict[tuple, _Cone] = {}
        self._floors: dict[tuple, tuple] = {}  # per (cone, b0): see _floor
        self._inputs: list[tuple[ErrorBound, ErrorBound]] = []  # range per input bit

    def output_floors(self, builder: PlanBuilder, b0: ErrorBound) -> tuple | None:
        """Each output's floor, or None when the graph holds a chain or a
        node the rules do not cover, or a constant does not fit."""
        if builder.chains:
            return None
        dfg, width = builder.dfg, builder.config.width
        b0_key = (b0.n, b0.e, b0.q)
        cones: dict[str, _Cone] = {}
        floors: dict[str, tuple] = {}
        for nid in builder.positions:
            node = dfg.node(nid)
            if node.kind is NodeKind.OUTPUT:
                cones[nid], floors[nid] = cones[node.operands[0]], floors[node.operands[0]]
                continue
            ops = [cones[o] for o in node.operands]
            leaf = nid if node.kind in (NodeKind.INPUT, NodeKind.CONST) else None
            key = (node.kind, leaf, node.negate, *map(id, ops))
            cone = self._cones.get(key)
            if cone is None:
                try:
                    cone = self._cone(builder, node, ops)
                except CannotFitError:
                    return None
                if cone is None:
                    return None
                self._cones[key] = cone
            f_key = (id(cone), b0_key)
            floor = self._floors.get(f_key)
            if floor is None:
                floor = self._floors[f_key] = self._floor(
                    builder, node, cone, ops, [floors[o] for o in node.operands], b0, width)
            cones[nid], floors[nid] = cone, floor
        return tuple(floors[o][0] for o in dfg.output_ids)

    def _cone(self, builder: PlanBuilder, node, ops: list) -> _Cone | None:
        kind, den = node.kind, builder.den
        if kind is NodeKind.INPUT:
            fmt = builder.bindings.input_format(node.id)
            lo = ErrorBound(fmt.min_raw * den, -fmt.f, den)
            hi = ErrorBound(fmt.max_raw * den, -fmt.f, den)
            bit = len(self._inputs)
            self._inputs.append((lo, hi))
            return _Cone(-fmt.f, fmt.max_raw > 0, lo, hi, 1 << bit,
                         (builder.zero, {bit: ErrorBound(den, 0, den)}),
                         err=builder.zero, grid=-fmt.f)
        if kind is NodeKind.CONST:
            info, raw = builder.quantized(node)
            value = ErrorBound.of(node.value, den)
            return _Cone(lo=value, hi=value, form=(value, {}), const=(info, raw),
                         err=info.err, grid=info.signal.grid_exp)
        a, b = ops
        if kind is NodeKind.MUL:
            e0 = factor = None
            for k, (c, u) in enumerate(((a, b), (b, a))):
                if c.const is not None and c.const[1] and u.e0 is not None \
                        and (c.const[1] > 0 or u.pos):
                    e0, factor = c.const[0].eff_exp + u.e0, k
                    break
            c, u = (a, b) if not a.mask else (b, a)
            if c.mask or c.lo is None or u.lo is None:
                return _Cone(e0, factor=factor)  # not affine: no range
            k = c.lo
            form = None if u.form is None else (
                k * u.form[0], {bit: k * v for bit, v in u.form[1].items()})
            return _Cone(e0, False, min(k * u.lo, k * u.hi), max(k * u.lo, k * u.hi),
                         u.mask, form, factor=factor)
        if kind is NodeKind.ADD:
            na, nb = node.negate  # never both: the sum spans zero as its operands do
            e0 = min(a.e0, b.e0) if a.e0 is not None and b.e0 is not None else None
            form = None
            if a.form is not None and b.form is not None:
                terms = {bit: -v if na else v for bit, v in a.form[1].items()}
                for bit, v in b.form[1].items():
                    v = -v if nb else v
                    terms[bit] = terms[bit] + v if bit in terms else v
                k0 = (-a.form[0] if na else a.form[0]) + \
                    (-b.form[0] if nb else b.form[0])
                form = (k0, terms) if len(terms) <= _FORM_TERMS else None
            if a.lo is not None and b.lo is not None and not a.mask & b.mask:
                # the operands read disjoint inputs: their ranges add
                lo = (-a.hi if na else a.lo) + (-b.hi if nb else b.lo)
                hi = (-a.lo if na else a.hi) + (-b.lo if nb else b.hi)
            elif form is not None:
                lo = hi = form[0]
                for bit, v in form[1].items():
                    x_lo, x_hi = self._inputs[bit]
                    ends = (v * x_lo, v * x_hi)
                    lo, hi = lo + min(ends), hi + max(ends)
            else:
                return _Cone(e0, na or nb)
            return _Cone(e0, na or nb, lo, hi, a.mask | b.mask, form)
        return None

    @staticmethod
    def _floor(builder: PlanBuilder, node, cone: _Cone, ops: list, below: list,
               b0: ErrorBound, width: int) -> tuple:
        """The node's (floor, finest grid exponent of its W-bit value, base),
        from its operands' (``below``); base is None where e0 is."""
        if cone.err is not None:
            return cone.err, cone.grid, builder.zero if cone.e0 is not None else None
        den = builder.den
        if node.kind is NodeKind.MUL:
            g = below[0][1] + below[1][1]  # a product's grid; truncation coarsens it
        else:
            g = max(below[0][1], below[1][1])  # the grid both views align to
        if cone.lo is not None:
            top, bottom = cone.hi - b0, -(cone.lo + b0)
            if top.n > 0:
                g = max(g, _exp_above(top, True) - (width - 1))
            if bottom.n > 0:
                g = max(g, _exp_above(bottom, False) - (width - 1))
        if node.kind is NodeKind.MUL:
            floor, base = max(below[0][0], below[1][0]), None
            if cone.e0 is not None:
                k = cone.factor
                (info, raw), u = ops[k].const, ops[1 - k]
                # |u| reaches within b0 of an end of u's exact range
                m_u = max(u.hi - b0, -(u.lo + b0), builder.zero) \
                    if u.lo is not None else builder.zero
                base = below[1 - k][2].scaled(abs(raw), -info.signal.fmt.f) + info.err * m_u
                floor = max(floor, base + floor_loss(cone.e0, g, q=den))
            return floor, g, base
        parts = [max(f, base + floor_loss(op.e0, g, q=den)) if op.e0 is not None else f
                 for op, (f, _g, base) in zip(ops, below)]
        return parts[0] + parts[1], g, \
            below[0][2] + below[1][2] if cone.e0 is not None else None


def combinatorial_search(dfg: Dfg, bindings: Bindings, config: Config,
                         chain_roots: frozenset[str] = frozenset(),
                         topology: str = "source",
                         prune: bool = True, source: Dfg | None = None,
                         incumbent: tuple | None = None,
                         floor: GridFloor | None = None) -> Plan | None:
    """Minimize the output error bound over all per-node formatting choices.

    Candidate k at a choice point means k extra grid-coarsening steps beyond
    the mandatory minimum. The walk is depth-first over
    ``PlanBuilder.search_order`` with an explicit stack, candidates in
    increasing order. The result is the plan with the smallest
    ``cost_key``; among equal keys, the one whose choice vector, read in
    the level-first order of ``PlanBuilder.positions``, is
    lexicographically smallest. It is rebuilt once with
    ``PlanBuilder.build``; with no choice to make (no choice point, or
    ``k_max`` 0) the walk is level-first and its one leaf is the plan.

    With ``prune`` a state is cut when a lower bound on its cost exceeds
    the best cost known: the incumbent passed in, or the best plan found.
    The bound is its largest error so far, or the errors that reach each
    output through additions only (``_Frontier.lower_bound``). Added error
    grows with the candidate, so a cut candidate also cuts the larger ones
    at that choice point. A state is also dropped when an earlier state at
    the same position dominates it (``_Frontier.dominated``).
    ``prune=False`` walks the whole tree, for oracle comparisons.

    With ``prune`` and an incumbent, and no chain in ``chain_roots``, the
    search first takes the grid floor (``GridFloor``; ``floor`` shares one
    across the searches of one graph): when it exceeds the incumbent, no
    plan can tie it, and the search ends before its first step.

    Returns None when ``incumbent`` cuts every plan. Raises CannotFitError
    when no choice fits the word width.
    """
    builder = PlanBuilder(dfg, bindings, config, chain_roots, topology, source)
    points = [nid for nid in builder.positions if builder.is_choice_point(nid)]
    cands = builder.candidates()
    free = bool(points) and len(cands) > 1
    outputs = dfg.output_ids

    # bounds are compared on the builder's denominator
    bound = tuple(ErrorBound.of(x, builder.den) for x in incumbent) \
        if prune and incumbent is not None else None
    if bound is not None and outputs:
        floors = (floor or GridFloor()).output_floors(builder, bound[0])
        if floors is not None and cost_key(floors) > bound:
            log.info(_COUNTERS, topology, 0, 0, 0, 0, ", cut by the grid floor")
            return None

    order = builder.search_order if free else builder.positions
    n = len(order)
    rows = [cands if builder.is_choice_point(nid) else (0,) for nid in order]
    slot = {nid: k for k, nid in enumerate(points)}
    frontier = _Frontier(builder) if prune and free else None
    best_key = best_vec = best_ctx = None
    last_fail = ""
    steps = leaves = cuts = dominated = 0

    # entries (pos, ctx, vec, cand, sums): try candidate index ``cand`` of
    # the row at ``order[pos]`` on a copy of ``ctx``, whose cone sums are
    # ``sums``; a forced position's row is (0,)
    stack = [(0, builder.new_ctx(), (0,) * len(points), 0,
              frontier.zero_sums if frontier is not None else None)]
    while stack:
        pos, ctx, vec, cand, sums = stack.pop()
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
            if frontier is None:
                builder.step(branch, order[pos], row[cand])
                branch_sums = None
            else:
                branch_sums = frontier.advance(pos, branch, row[cand], sums)
        except CannotFitError as e:
            last_fail = str(e)
            if more:
                stack.append((pos, ctx, vec, cand + 1, sums))
            continue
        if bound is not None and (branch.live_err > bound[0] or (
                frontier is not None and pos + 1 < n
                and frontier.lower_bound(branch, branch_sums) > bound)):
            # added error grows with the candidate, so the rest of the row
            # cannot beat the incumbent either
            cuts += 1
            continue
        if more:
            stack.append((pos, ctx, vec, cand + 1, sums))
        if row[cand]:
            k = slot[order[pos]]
            vec = vec[:k] + (row[cand],) + vec[k + 1:]
        stack.append((pos + 1, branch, vec, 0, branch_sums))

    log.info(_COUNTERS, topology, steps, leaves, cuts, dominated,
             ", cut by the incumbent" if best_vec is None and cuts else "")
    if best_vec is None:
        if cuts:
            return None
        detail = f": {last_fail}" if last_fail else ""
        raise CannotFitError(f"no formatting choice fits the word width{detail}")
    return builder.build(dict(zip(points, best_vec))) if free else builder.finish(best_ctx)


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
    assert sign > 0, "a chain cannot be globally negative"
    return out


def enumerate_topologies(dfg: Dfg, n_max: int = N_MAX_TOPOLOGIES) -> list[tuple[str, Dfg]]:
    """All distinct re-associations of the graph's addition chains.

    The source topology always comes first. Chains with more than ``n_max``
    terms contribute only the source shape and the balanced tree; when the
    cross product over several chains grows past a safety cap, every chain
    does (``n_max`` 2, below every chain's length).
    """
    chains = [c for c in find_chains(dfg) if c.n_terms >= 3]
    if not chains:
        return [("source", dfg)]

    shape_lists = [_shapes_for_chain(c, n_max) for c in chains]
    if math.prod(map(len, shape_lists)) > _MAX_TOPOLOGY_PRODUCT:
        shape_lists = [_shapes_for_chain(c, 2) for c in chains]

    combos = [((), ())]
    for chain, shapes in zip(chains, shape_lists):
        combos = [(labels + (f"{chain.root}:{k}",), picks + ((chain, s),))
                  for labels, picks in combos
                  for k, s in enumerate(shapes)]

    result = []
    for labels, picks in combos:
        nodes = list(dfg.nodes)
        used = {n.id for n in dfg.nodes}
        changed = False
        for chain, shape in picks:
            if shape != chain.shape:
                nodes = _rebuild_chain(nodes, chain, shape, used)
                changed = True
        label = "source" if not changed else ",".join(labels)
        result.append((label, Dfg(tuple(nodes)) if changed else dfg))
    return result


# ---------------------------------------------------------------------------
# the search driver


def topological_optimize(dfg: Dfg, bindings: Bindings, config: Config) -> Plan:
    """Run the full optimization stack and return the cheapest plan.

    Candidates, as (rank, label, graph, chain roots): every enumerated
    topology, ranked in enumeration order, and the chain-accumulator plan,
    ranked last. The chain plan is searched first, with no incumbent; the
    best cost found so far is the incumbent of each later search, and a
    candidate it cuts is no plan. Ranking: (max output bound, summed
    bounds, inserted formatting nodes, rank). When no candidate fits, the
    errors are joined in rank order.
    """
    if config.enable_topology_opt:
        topologies = enumerate_topologies(dfg)
    else:
        topologies = [("source", dfg)]
    candidates = [(rank, label, topo, frozenset())
                  for rank, (label, topo) in enumerate(topologies)]
    if config.enable_chain_alloc:
        roots = frozenset(c.root for c in find_chains(dfg))
        if roots:
            candidates.insert(0, (len(topologies), "source+chain", dfg, roots))

    incumbent = None
    floor = GridFloor()
    ranked: list[tuple] = []
    errors: list[tuple[int, str]] = []
    for rank, label, graph, chain_roots in candidates:
        try:
            plan = combinatorial_search(graph, bindings, config, chain_roots=chain_roots,
                                        topology=label, source=dfg, incumbent=incumbent,
                                        floor=floor)
        except CannotFitError as e:
            errors.append((rank, f"{'chain' if chain_roots else label}: {e}"))
            continue
        if plan is not None:
            ranked.append(((plan.cost_key, plan.n_format_nodes, rank), plan))
            if incumbent is None or plan.cost_key < incumbent:
                incumbent = plan.cost_key

    if not ranked:
        raise CannotFitError("; ".join(e for _, e in sorted(errors)) or "no feasible plan")
    return min(ranked, key=lambda r: r[0])[1]
