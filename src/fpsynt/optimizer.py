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
from .errors import CannotFitError
from .floors import _Floor, _shape_steps, _TopologyFloors, node_floors
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
        cone_reads = {}
        leaves = set()  # the inputs and constants
        for nid in order:
            kind = dfg.node(nid).kind
            reads = all_reads = builder.reads(nid)
            if kind is NodeKind.MUL:
                reads = (max(reads, key=lambda r: _CARRIES.get(dfg.node(r).kind, 2)),)
            elif kind is not NodeKind.ADD and kind is not NodeKind.OUTPUT:
                reads = ()
                leaves.add(nid)
            cone_reads[nid] = reads
            for r in all_reads:
                readers[r] += 1
        # paths[k][v]: the number of paths from v to the k-th output through
        # cone reads, a floor on the multiple of err(v) in the output's error;
        # readers come first in reversed order, and pass their counts down
        self._paths = paths = []
        for o in outputs:
            to_o = {o: 1}
            for nid in reversed(order):
                c = to_o.get(nid)
                if c:
                    for r in cone_reads[nid]:
                        to_o[r] = to_o.get(r, 0) + c
            paths.append(to_o)
        # per position: (output index, number of paths) of each output its value reaches
        self._made = [[(k, to_o[nid]) for k, to_o in enumerate(paths) if nid in to_o]
                      for nid in order]

        self._builder = builder
        consts = builder.table.quantized
        self._tables = []  # per position: (computed live values, finished outputs)
        self._cones = []  # per position: each output's (computed value, multiple) pairs
        self._fixed = self._base = []  # per position: each output's fixed share; see bound_to
        live: dict[str, int] = {}  # value -> count of reads still to come
        done: list[str] = []
        cones: list[dict[str, int]] = [{} for _ in outputs]  # value -> multiple
        fixed = [builder.zero] * len(outputs)
        computed: list[tuple] = [()] * len(outputs)  # each cone's computed pairs, as of now
        changed = range(len(outputs))  # the cones the last step changed
        for nid in order:
            self._tables.append((tuple([v for v in live if v not in leaves]), tuple(done)))
            for k in changed:
                computed[k] = tuple([(v, c) for v, c in cones[k].items() if v not in leaves])
            self._cones.append(tuple(computed))
            self._fixed.append(tuple(fixed))
            changed = []
            for r in builder.reads(nid):
                live[r] -= 1
                if not live[r]:
                    del live[r]
            if readers[nid]:
                live[nid] = readers[nid]
            if nid in outputs:
                done.append(nid)
            for k, (cone, to_o) in enumerate(zip(cones, paths)):
                c = to_o.get(nid)
                if c:  # the value made takes the place of the reads it counts
                    changed.append(k)
                    for r in cone_reads[nid]:
                        cone[r] -= c
                        if not cone[r]:
                            del cone[r]
                        if r in consts:
                            fixed[k] = fixed[k] - c * consts[r][0].err
                    cone[nid] = c
                    if nid in consts:
                        fixed[k] = fixed[k] + c * consts[nid][0].err
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
                floor = floors[nid]
                if floor.need.n:
                    for k, c in self._made[pos]:
                        sums[k] = sums[k] + (floor.need if c == 1 else c * floor.need)
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
                                joint.setdefault(v, []).extend(
                                    (k, c * excess) for k, c in self._made[pos])
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
                err = info[alias[v]].err
                s = s + (err if c == 1 else c * err)
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


def _floor_cuts(table: GraphTable, label: str, outputs: list[_Floor], bound: tuple) -> bool:
    """True, with the cut's record appended and logged, when the grid
    floor's ``outputs`` records of the candidate ``label`` exceed ``bound``."""
    if cost_key([f.err for f in outputs]) <= bound:
        return False
    table.searches.append(SearchStats(label, cut="grid floor"))
    log.info("%s", table.searches[-1])
    return True


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
        if _floor_cuts(table, label, [floors[o] for o in outputs], bound):
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
    """Replace a chain's ADD nodes with the given tree shape over its terms:
    the last addition is the root, the others take fresh names in order."""
    drop = set(chain.members) | {chain.root}
    out = [n for n in nodes if n.id not in drop]
    steps = _shape_steps(chain, shape)
    ids: list[str] = []
    counter = 0
    for left, right, negate in steps:
        nid = chain.root
        if len(ids) < len(steps) - 1:
            while (nid := f"{chain.root}_r{counter}") in used:
                counter += 1
            counter += 1
            used.add(nid)
        ids.append(nid)
        out.append(Node(nid, NodeKind.ADD, tuple(chain.terms[r][0] if r >= 0 else ids[~r]
                                                 for r in (left, right)), negate=negate))
    return out


def _shape_lists(chains: tuple[Chain, ...]) -> list[list]:
    """Each chain's shapes, as ``enumerate_topologies`` crosses them."""
    shape_lists = [_shapes_for_chain(c, N_MAX_TOPOLOGIES) for c in chains]
    if math.prod(map(len, shape_lists)) > _MAX_TOPOLOGY_PRODUCT:
        shape_lists = [_shapes_for_chain(c, 2) for c in chains]
    return shape_lists


def _topology_label(dfg: Dfg, ks: tuple[int, ...]) -> str:
    """The label of the candidate that takes shape ``ks[i]`` of chain i."""
    return ",".join(f"{c.root}:{k}" for c, k in zip(dfg.chains, ks)) if any(ks) else "source"


def _topology(dfg: Dfg, shape_lists: list[list], ks: tuple[int, ...]) -> tuple[str, Dfg]:
    """The candidate that takes shape ``ks[i]`` of each chain's list."""
    if not any(ks):
        return "source", dfg
    nodes = list(dfg.nodes)
    used = {n.id for n in dfg.nodes}
    for chain, shapes, k in zip(dfg.chains, shape_lists, ks):
        if k:  # shape 0 is the chain's source shape
            nodes = _rebuild_chain(nodes, chain, shapes[k], used)
    return _topology_label(dfg, ks), Dfg(tuple(nodes))


def enumerate_topologies(dfg: Dfg) -> list[tuple[str, Dfg]]:
    """All distinct re-associations of the graph's addition chains.

    The source topology always comes first. Chains with more than
    ``N_MAX_TOPOLOGIES`` terms contribute only the source shape and the
    balanced tree; when the cross product over several chains grows past a
    safety cap, every chain does (a limit of 2, below every chain's length).
    """
    shape_lists = _shape_lists(dfg.chains)
    return [_topology(dfg, shape_lists, ks)
            for ks in itertools.product(*(range(len(shapes)) for shapes in shape_lists))]


# ---------------------------------------------------------------------------
# the search driver


def topological_optimize(dfg: Dfg, bindings: Bindings, config: Config) -> Plan:
    """Run the full optimization stack and return the cheapest plan.

    Candidates, each with its rank: every enumerated topology, ranked in
    enumeration order, and ``CHAIN_PLAN``, ranked last, all searched on one
    ``GraphTable``. The chain plan is searched first, with no incumbent; the
    best cost found so far is the incumbent of each later search, and a
    candidate it cuts is no plan. A topology's grid floor is read from its
    chains' shapes (``_TopologyFloors``); its graph is built only when the
    floor does not cut it. Ranking: (max output bound, summed bounds,
    inserted formatting nodes, rank). When no candidate fits, the errors
    are joined in rank order.
    """
    table = GraphTable(dfg, bindings, config)
    shape_lists = _shape_lists(dfg.chains) if config.enable_topology_opt else []
    combos = itertools.product(*(range(len(shapes)) for shapes in shape_lists))
    n_topologies = math.prod(map(len, shape_lists))
    candidates: list[tuple[int, tuple[int, ...] | str]] = list(enumerate(combos))
    if config.enable_chain_alloc and dfg.chains:
        candidates.insert(0, (n_topologies, CHAIN_PLAN))
    floors = _TopologyFloors(table, shape_lists)

    incumbent = bound = None
    ranked: list[tuple] = []
    errors: list[tuple[int, str]] = []
    for rank, ks in candidates:
        if ks == CHAIN_PLAN:
            candidate = CHAIN_PLAN
        elif bound is not None and _floor_cuts(
                table, _topology_label(dfg, ks), floors.output_floors(ks, bound[0]), bound):
            continue
        else:
            candidate = _topology(dfg, shape_lists, ks)
        try:
            plan = combinatorial_search(table, candidate, incumbent=incumbent)
        except CannotFitError as e:
            errors.append((rank, f"{'chain' if candidate == CHAIN_PLAN else candidate[0]}: {e}"))
            continue
        if plan is not None:
            ranked.append(((plan.cost_key, plan.n_format_nodes, rank), plan))
            if incumbent is None or plan.cost_key < incumbent:
                incumbent = plan.cost_key
                # bounds are compared on the table's denominator
                bound = tuple(ErrorBound.of(x, table.den) for x in incumbent)

    if not ranked:
        raise CannotFitError("; ".join(e for _, e in sorted(errors)) or "no feasible plan")
    return dataclasses.replace(min(ranked, key=lambda r: r[0])[1], searches=tuple(table.searches))
