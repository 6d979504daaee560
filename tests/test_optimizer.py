"""Search correctness: oracle equivalence, topologies, chain allocation."""

import dataclasses
import itertools
import logging
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fpsynt.analysis import (CHAIN_PLAN, ErrorBound, GraphTable, PlanBuilder, _Ctx, check_plan,
                             choose_const_format, cost_key, depth_first_order, find_chains)
from fpsynt.codegen import emit_c, emit_vhdl
from fpsynt.config import Config
from fpsynt.core import Dfg, Node, NodeKind, encode, topo_order
from fpsynt.errors import CannotFitError
from fpsynt.floors import _TopologyFloors, node_floors
from fpsynt.optimizer import (SearchStats, _Frontier, _shape_lists, _topology_label,
                              combinatorial_search, enumerate_topologies, topological_optimize)
from fpsynt.parser import Bindings, parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.report import report_json
from fpsynt.simulator import run_fixed_columns, run_reference_columns

from conftest import (FIR4_SRC, MIXED_CHAINS_SRC, SKEWED_SUM, child_env, exact_eval,
                      make_fir_src, make_graph, make_matvec_src, make_sum_src)

W8 = Config(width=8, k_max=2)

TWO_OP_SRCS = [
    "output y = (a + b) + c;",
    "output y = a + (b + c);",
    "output y = (a * b) * c;",
    "output y = a * (b * c);",
    "output y = (a + b) * c;",
    "output y = a * (b + c);",
    "output y = (a * b) + c;",
    "output y = a + (b * c);",
    "output y = (a - b) + c;",
    "output y = (a - b) * c;",
]


def _two_op_spec(expr_line: str) -> str:
    decls = "".join(f"input {n} : sif(1/0/7);\n" for n in "abc")
    return decls + expr_line + "\n"


def exhaustive_minimum(dfg, bindings, config) -> Fraction:
    """Brute-force oracle: evaluate every complete choice vector (no search,
    no pruning) and take the smallest output bound."""
    builder = PlanBuilder(GraphTable(dfg, bindings, config), ("source", dfg))
    points = builder.choice_points
    best = None
    for combo in itertools.product(range(config.k_max + 1), repeat=len(points)):
        try:
            plan = builder.build(dict(zip(points, combo)))
        except CannotFitError:
            continue
        if best is None or plan.cost < best:
            best = plan.cost
    assert best is not None
    return best


@pytest.mark.parametrize("line", TWO_OP_SRCS)
def test_search_matches_exhaustive_oracle(line):
    dfg, bindings = parse_spec(_two_op_spec(line))
    got = combinatorial_search(GraphTable(dfg, bindings, W8), ("source", dfg))
    oracle = exhaustive_minimum(dfg, bindings, W8)
    assert got.cost == oracle


@pytest.mark.parametrize("line", TWO_OP_SRCS)
def test_pruned_equals_unpruned(line):
    dfg, bindings = parse_spec(_two_op_spec(line))
    table = GraphTable(dfg, bindings, W8)
    pruned = combinatorial_search(table, ("source", dfg), prune=True)
    full = combinatorial_search(table, ("source", dfg), prune=False)
    assert pruned.cost == full.cost
    assert pruned.choices == full.choices


def test_identity_plan_for_passthrough():
    dfg, bindings = parse_spec("input x : sif(1/0/7);\noutput y = x;\n")
    plan = combinatorial_search(GraphTable(dfg, bindings, W8), ("source", dfg))
    assert plan.cost == 0
    assert plan.n_format_nodes == 0
    assert [n.kind for n in plan.graph.nodes] == [NodeKind.INPUT, NodeKind.OUTPUT]


def test_topology_counts():
    dfg3, _ = parse_spec(make_sum_src(3))
    assert len(enumerate_topologies(dfg3)) == 2     # Catalan(2)

    dfg4, _ = parse_spec(make_sum_src(4))
    topos = enumerate_topologies(dfg4)
    assert len(topos) == 5                              # Catalan(3)
    assert topos[0][0] == "source"

    dfg7, _ = parse_spec(make_sum_src(7))
    assert len(enumerate_topologies(dfg7)) == 2      # source + balanced only


def test_topologies_are_distinct_and_valid():
    dfg4, bindings = parse_spec(make_sum_src(4))
    seen = set()
    for label, topo in enumerate_topologies(dfg4):
        (chain,) = find_chains(topo)
        assert chain.n_terms == 4
        seen.add(chain.shape)
        # each graph keeps its chains, worked out once
        assert topo.chains == tuple(find_chains(topo))
        assert topo.chains is topo.chains
    assert len(seen) == 5


def test_capped_topologies_are_distinct():
    """Past the cap every chain offers its source shape and the balanced
    tree, once: the 3-term chain's source shape is already balanced."""
    src = ("".join(f"input x{k} : sif(1/0/15);\n" for k in range(6))
           + "output a = " + " + ".join(f"x{k}" for k in range(6)) + ";\n"
           + "output b = " + " - ".join(f"x{k}" for k in range(6)) + ";\n"
           + "output c = x0 + x1 + x2;\n")
    dfg, _ = parse_spec(src)
    topos = enumerate_topologies(dfg)
    labels = [label for label, _ in topos]
    graphs = [topo.nodes for _, topo in topos]
    assert len(set(labels)) == len(labels)
    assert len(set(graphs)) == len(graphs) == 4
    assert labels[0] == "source"


def test_fir4_balanced_topology_enumerated(fir4):
    dfg, _ = fir4
    shapes = {find_chains(t)[0].shape for _, t in enumerate_topologies(dfg)}
    assert ((0, 1), (2, 3)) in shapes  # the two-by-two grouping


def test_argmin_beats_every_enumerated_shape():
    cfg = Config(width=8, k_max=2, enable_chain_alloc=False)
    src = make_sum_src(4, sif=(1, 0, 7))
    dfg, bindings = parse_spec(src)
    best = topological_optimize(dfg, bindings, cfg)
    table = GraphTable(dfg, bindings, cfg)
    for topology in enumerate_topologies(dfg):
        candidate = combinatorial_search(table, topology)
        assert best.cost <= candidate.cost


def test_symmetric_two_term_sum_is_stable():
    cfg = Config(width=8)
    dfg, bindings = parse_spec(make_sum_src(2, sif=(1, 0, 7)))
    plan = topological_optimize(dfg, bindings, cfg)
    baseline = PlanBuilder(GraphTable(dfg, bindings, cfg), ("source", dfg)).build()
    assert plan.cost == baseline.cost


def test_skewed_magnitudes_reward_reassociation():
    # one dominant term and three tiny ones: grouping the tiny terms first
    # avoids pre-scaling them against the big one at every level
    src = ("input x0 : sif(1/3/4);\n" +
           "".join(f"input x{k} : sif(1/0/7);\n" for k in (1, 2, 3)) +
           "output y = x0 + x1 + x2 + x3;\n")
    cfg = Config(width=8, enable_chain_alloc=False)
    dfg, bindings = parse_spec(src)
    best = topological_optimize(dfg, bindings, cfg)
    table = GraphTable(dfg, bindings, cfg)
    costs = [combinatorial_search(table, t).cost for t in enumerate_topologies(dfg)]
    assert best.cost == min(costs)
    assert min(costs) < max(costs)  # topology genuinely matters here

    # simulated worst error of the chosen plan stays within every shape's
    # worst error on a shared vector grid
    vectors = _vector_grid(bindings, step=37)
    best_max = _max_sim_error(best, dfg, bindings, vectors)
    for topology in enumerate_topologies(dfg):
        plan = combinatorial_search(table, topology)
        other = _max_sim_error(plan, dfg, bindings, vectors)
        assert best_max <= other + Fraction(1, 10**12)


def _vector_grid(bindings, step):
    fmts = [bindings.input_format(n) for n in bindings.inputs]
    axes = [range(f.min_raw, f.max_raw + 1, step) for f in fmts]
    return np.array(list(itertools.product(*axes)))


def _max_sim_error(plan, dfg, bindings, vectors):
    from fpsynt.core import decode
    fmts = {n: bindings.input_format(n) for n in bindings.inputs}
    fixed = run_fixed_columns(plan, vectors)
    worst = Fraction(0)
    for k, raws in enumerate(vectors.tolist()):
        values = {n: decode(r, fmts[n]) for n, r in zip(bindings.inputs, raws)}
        exact = exact_eval(dfg, bindings, values)
        for o in plan.output_ids:
            value = plan.info[o].signal.value_of(int(fixed[o][k]))
            worst = max(worst, abs(value - exact[o]))
    return worst


# ---------------------------------------------------------------------------
# chain allocation


def _chain_plan(dfg, bindings, cfg):
    """The search ``topological_optimize`` runs first: every chain on a
    widened accumulator."""
    return combinatorial_search(GraphTable(dfg, bindings, cfg), CHAIN_PLAN)


def test_chain_accumulator_width_16_plus_log2():
    dfg, bindings = parse_spec(make_sum_src(8))
    cfg = Config(width=16)
    plan = _chain_plan(dfg, bindings, cfg)
    (acc,) = plan.accumulators
    assert acc.width == 19
    assert acc.n_terms == 8


def test_chain_dominates_pairwise_for_eight_terms():
    dfg, bindings = parse_spec(make_sum_src(8))
    cfg = Config(width=16)
    chain_plan = _chain_plan(dfg, bindings, cfg)
    pairwise = combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg))
    assert chain_plan.cost <= pairwise.cost
    check_plan(chain_plan)


def test_two_term_sum_has_no_chain():
    dfg, bindings = parse_spec(make_sum_src(2))
    plan = _chain_plan(dfg, bindings, Config(width=16))
    assert plan.accumulators == ()


def test_fir4_chain_beats_pairwise():
    dfg, bindings = parse_spec(FIR4_SRC)
    cfg = Config(width=16)
    chain_plan = _chain_plan(dfg, bindings, cfg)
    pairwise = combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg))
    assert chain_plan.cost < pairwise.cost


def test_chain_falls_back_when_accumulator_capped():
    # an 8-term chain needs W + 3 bits, and the cap is MAX_WIDTH = 64
    dfg, bindings = parse_spec(make_sum_src(8))
    plan = _chain_plan(dfg, bindings, Config(width=62))
    assert plan.accumulators == ()          # fell back to pairwise
    check_plan(plan)
    (acc,) = _chain_plan(dfg, bindings, Config(width=61)).accumulators
    assert acc.width == 64


def test_chain_falls_back_when_no_accumulator_grid_fits(caplog):
    """Each full-width term c*x_k is (2/14/0) and needs 15 bits, against an
    accumulator of W + ceil(log2 3) = 10: no grid fits, so the chain falls
    back, with one warning, to pairwise adds, which cannot fit a term either."""
    dfg, bindings = parse_spec("".join(f"input x{k} : sif(1/7/0);\n" for k in range(3))
                               + "const c = 100;\noutput y = c*x0 + c*x1 + c*x2;\n")
    with caplog.at_level(logging.WARNING, logger="fpsynt.analysis"), \
            pytest.raises(CannotFitError, match=r"cannot truncate \(2/14/0\) to 8 bits"):
        combinatorial_search(GraphTable(dfg, bindings, Config(width=8)), CHAIN_PLAN)
    assert [r.getMessage() for r in caplog.records if r.name == "fpsynt.analysis"] == \
        ["chain at 't4' falls back to pairwise pre-scaling"]


def test_chain_fallback_warns_once_per_chain(caplog):
    # at W=64 each chain's accumulator would need 64 + ceil(log2 n) bits; the
    # chain plan's search steps each of the three chains four times
    src = """\
input x : sif(1/0/15);
input u : sif(1/0/15);
const c0 = 0.223;
const c1 = 0.026;
const c2 = -0.181;
const c3 = 0.108;
output y = c0*u + c1*x + x*(c2 + x*(c3 + c1*u + c2*x) + u) + c3*u*x;
"""
    dfg, bindings = parse_spec(src)
    with caplog.at_level(logging.WARNING, logger="fpsynt.analysis"):
        plan = _chain_plan(dfg, bindings, Config(width=64))
    assert plan.accumulators == ()
    lines = [r.getMessage() for r in caplog.records if r.name == "fpsynt.analysis"]
    assert sorted(lines) == [f"chain at '{root}' falls back to pairwise pre-scaling"
                             for root in ("t14", "t6", "t9")]


# Both chains, t4 = (-c0 + t0) - (-t0 + c1) and t5 = (-c0 + t0) + v4, open
# with a negated term and fall back to pairwise adds. The product t0 feeds
# both at full width: the chain a walk reaches first emits its truncation
# t0_q, and the other reuses it. Chain roots are stepped in level-first
# order, so t4 first.
def _shared_fallback(c1: Fraction):
    return make_graph(
        {"v0": (1, 0, 2), "v4": (1, 1, 5)}, {"c0": Fraction(-1), "c1": c1},
        [("t0", NodeKind.MUL, ("v0", "c1"), (False, False)),
         ("t1", NodeKind.ADD, ("c0", "t0"), (True, False)),
         ("t2", NodeKind.ADD, ("c0", "t0"), (True, False)),
         ("t3", NodeKind.ADD, ("t0", "c1"), (True, False)),
         ("t4", NodeKind.ADD, ("t1", "t3"), (False, True)),
         ("t5", NodeKind.ADD, ("t2", "v4"), (False, False)),
         ("t6", NodeKind.MUL, ("c1", "t5"), (False, False))],
        {"y0": "t6", "y1": "t4"})


SHARED_FALLBACK_TERM = _shared_fallback(Fraction(1, 2))
# with c1 = 3/10 the shared product t0 carries a quantization error, so the
# plan's cost is not 0 and the bound can cut
SHARED_FALLBACK_PRODUCT = _shared_fallback(Fraction(3, 10))

# Two chains truncate the shared input x1; fresh names follow the order in
# which the chains are stepped
TWO_CHAINS_SHARE_AN_INPUT = parse_spec("""\
input x0 : sif(1/3/12);
input x1 : sif(1/0/15);
input x2 : sif(1/0/15);
input x3 : sif(1/2/13);
input x4 : sif(1/0/15);
input x5 : sif(1/0/15);
output y0 = x0 + x1 + x2 + x4;
output y1 = x3 + x1 + x5;
output y2 = 0.3*x0 + 0.7*x1;
""")


def _level_first_plan(builder: PlanBuilder, choices: dict):
    """The plan of a walk that takes ``builder``'s steps in level-first
    (topological) order."""
    ctx, walked = _Ctx(), set(builder.search_order)
    for nid in topo_order(builder.dfg):
        if nid in walked:
            builder.step(ctx, nid, choices.get(nid, 0))
    return builder.finish(ctx, choices)


def test_chain_plan_search_walks_depth_first_into_the_level_first_plan():
    """The node order and names of a chain plan depend on the order in
    which its chains are stepped. A search with chains walks depth-first,
    chain roots first in level-first order, and its best leaf is the plan
    that ``build`` makes of its choices."""
    cases = [(SHARED_FALLBACK_TERM, Config(width=32, k_max=2)),
             (TWO_CHAINS_SHARE_AN_INPUT, Config(width=16, k_max=1, enable_topology_opt=False))]
    plans = []
    for (dfg, bindings), cfg in cases:
        table = GraphTable(dfg, bindings, cfg)
        plan = combinatorial_search(table, CHAIN_PLAN)
        builder = PlanBuilder(table, CHAIN_PLAN)
        assert builder.search_order != [n for n in topo_order(dfg) if n in builder.search_order]
        built = builder.build(dict(plan.choices))
        assert [n.id for n in plan.graph.nodes] == \
            [n.id for n in _level_first_plan(builder, dict(plan.choices)).graph.nodes]
        assert emit_c(plan).source == emit_c(built).source
        assert emit_vhdl(plan).source == emit_vhdl(built).source
        assert report_json(plan) == report_json(built)
        check_plan(plan)
        plans.append(plan)
    ids = [n.id for n in plans[0].graph.nodes]
    assert ids[ids.index("t0"):ids.index("t4") + 1] == [
        "t0", "t0_q", "t3_p1", "t3_p2", "t3", "t1_p1", "t1_p2", "t1", "t4"]
    assert plans[1].graph.node("t4_acc1").operands == ("x3", "x1_q")
    assert plans[1].graph.node("t2_acc1").operands == ("x0", "x1_q_")


@pytest.mark.parametrize("graph,cfg", [
    (SHARED_FALLBACK_TERM, Config(width=16, k_max=2)),
    (SHARED_FALLBACK_TERM, Config(width=32, k_max=2)),
    (SHARED_FALLBACK_TERM, Config(width=64, k_max=1)),
    (TWO_CHAINS_SHARE_AN_INPUT, Config(width=16, k_max=1)),
    (TWO_CHAINS_SHARE_AN_INPUT, Config(width=16, k_max=3)),
    (SHARED_FALLBACK_PRODUCT, Config(width=16, k_max=2)),
    (SHARED_FALLBACK_PRODUCT, Config(width=32, k_max=2)),
    (SHARED_FALLBACK_PRODUCT, Config(width=64, k_max=1)),
], ids=["shared-term-w16", "shared-term-w32", "shared-term-w64", "shared-input-k1",
        "shared-input-k3", "shared-product-w16", "shared-product-w32", "shared-product-w64"])
def test_chain_fallbacks_pruned_equal_unpruned(graph, cfg):
    """Chain plans whose fallbacks re-alias a shared product or input: the
    bound reads the truncated value that the second chain reads, and the
    pruned search still finds the unpruned walk's choices and cost."""
    table = GraphTable(*graph, cfg)
    pruned, full = (combinatorial_search(table, CHAIN_PLAN, prune=p) for p in (True, False))
    assert pruned.cost_key == full.cost_key
    assert pruned.choices == full.choices
    if graph is SHARED_FALLBACK_PRODUCT:  # the bound cuts on this shape
        assert table.searches[0].incumbent_prunes >= 1, table.searches[0]


MIXED_CHAINS = parse_spec(MIXED_CHAINS_SRC)


@pytest.mark.parametrize("graph,cfg,steps", [
    (TWO_CHAINS_SHARE_AN_INPUT, Config(width=24, k_max=3), 233),
    (MIXED_CHAINS, Config(width=16, k_max=3), 1895),
], ids=["two-chains", "mixed"])
def test_chain_plan_step_counts_are_pinned(graph, cfg, steps):
    """The steps of a synthesis whose chain plan has choice points. A
    level-first walk of the chain plan took 333 and 2,276."""
    plan = topological_optimize(*graph, cfg)
    check_plan(plan)
    assert sum(s.steps for s in plan.searches) == steps


def test_chain_opened_by_a_negated_term_falls_back_soundly():
    # t2 = ((-x + c) + x) + c: the chain's first term is negated, so the
    # chain plan falls back to pairwise adds instead of failing
    dfg, bindings = make_graph(
        {"x": (1, 0, 6)}, {"c": Fraction(1, 3)},
        [("t0", NodeKind.ADD, ("x", "c"), (True, False)),
         ("t1", NodeKind.ADD, ("t0", "x"), (False, False)),
         ("t2", NodeKind.ADD, ("t1", "c"), (False, False))],
        {"y": "t2"})
    assert find_chains(dfg)[0].terms[0] == ("x", -1)
    plan = topological_optimize(dfg, bindings, Config(width=8))
    check_plan(plan)
    assert (plan.topology, plan.cost) == ("t2:1", Fraction(5, 96))
    raws = np.arange(-64, 64).reshape(-1, 1)
    got = run_fixed_columns(plan, raws)["y"]
    want = run_reference_columns(plan, raws, "exact")["y"]
    grid = plan.info["y"].signal.grid
    assert max(abs(g * grid - w) for g, w in zip(got.tolist(), want, strict=True)) \
        <= plan.cost


def test_chain_selected_by_default_pipeline():
    plan = synthesize(FIR4_SRC)
    assert plan.accumulators and plan.accumulators[0].width == 18


def test_determinism_of_full_pipeline():
    a = synthesize(FIR4_SRC)
    b = synthesize(FIR4_SRC)
    assert a.choices == b.choices
    assert a.topology == b.topology
    assert [n.id for n in a.graph.nodes] == [n.id for n in b.graph.nodes]
    assert a.cost == b.cost


def test_cannot_fit_when_nothing_fits():
    dfg, bindings = parse_spec("input a : sif(1/0/15);\nconst c = 100.0;\n"
                               "output y = a * c;\n")
    with pytest.raises(CannotFitError):
        combinatorial_search(GraphTable(dfg, bindings, Config(width=8)), ("source", dfg))


def _random_shared_graph(rng: random.Random) -> tuple[Dfg, Bindings]:
    """3-5 inputs, a constant, intermediates that later nodes read again,
    and two outputs on the last two intermediates."""
    inputs = {f"v{k}": (1, rng.choice([0, 1]), rng.choice([2, 4, 7]))
              for k in range(rng.choice([3, 4, 5]))}
    consts = {"c": Fraction(rng.choice([-5, -3, -1, 1, 3, 5, 7]), rng.choice([2, 4, 8, 128]))}
    pool = [*inputs, "c"]
    ops = []
    for k in range(rng.choice([3, 4, 5])):
        a, b = rng.sample(pool[-4:], 2) if rng.random() < 0.6 else rng.sample(pool, 2)
        if rng.random() < 0.35:
            ops.append((f"t{k}", NodeKind.MUL, (a, b), (False, False)))
        else:
            ops.append((f"t{k}", NodeKind.ADD, (a, b), (False, rng.random() < 0.3)))
        pool.append(f"t{k}")
    return make_graph(inputs, consts, ops, {"y0": pool[-1], "y1": pool[-2]})


# Found by a random search: a state here has a larger error on a finished
# output than an earlier state at the same position, so a memo that left
# finished outputs out would drop the state that leads to the optimum.
FINISHED_OUTPUT_MATTERS = make_graph(
    {"v0": (1, 0, 2), "v1": (1, 0, 3), "v2": (1, 0, 3)}, {"c0": Fraction(3, 8)},
    [("t0", NodeKind.ADD, ("c0", "v0"), (False, True)),
     ("t1", NodeKind.MUL, ("v0", "c0"), (False, False)),
     ("t2", NodeKind.ADD, ("t1", "t0"), (False, False)),
     ("t3", NodeKind.MUL, ("t1", "t0"), (False, False))],
    {"y0": "t3", "y1": "t2"})


def test_random_small_graphs_pruning_safety():
    rng = random.Random(7)
    graphs = [FINISHED_OUTPUT_MATTERS] + [_random_shared_graph(rng) for _ in range(40)]
    shared = searched = 0
    for dfg, bindings in graphs:
        shared += any(len(c) > 1 for nid, c in dfg.consumers.items()
                      if nid.startswith("t"))
        for cfg in (Config(width=6, k_max=2), Config(width=8, k_max=2)):
            try:
                full = combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg),
                                            prune=False)
            except CannotFitError:
                with pytest.raises(CannotFitError):
                    combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg),
                                         prune=True)
                continue
            pruned = combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg),
                                          prune=True)
            assert pruned.cost_key == full.cost_key
            assert pruned.choices == full.choices
            assert emit_c(pruned).source == emit_c(full).source
            searched += 1
    assert shared >= 10 and searched >= 40


def _random_chain_graph(rng: random.Random) -> tuple[Dfg, Bindings]:
    """2-3 products of an input and a constant, read only by 2-4 addition
    chains of 3-4 terms, each opened by a product, at times negated, so
    that the chain falls back to pairwise adds; one output per chain."""
    inputs = {f"v{k}": (1, rng.choice([0, 1]), rng.choice([2, 4, 6])) for k in range(3)}
    consts = {f"c{k}": Fraction(rng.choice([-7, -3, 1, 3, 5]), rng.choice([2, 4, 10]))
              for k in range(2)}
    prods = [f"p{k}" for k in range(rng.choice([2, 3]))]
    ops = [(p, NodeKind.MUL, (rng.choice(list(inputs)), rng.choice(list(consts))), (False, False))
           for p in prods]
    outputs = {}
    for c in range(rng.randint(2, 4)):
        run = rng.choice(prods)
        for j in range(rng.randint(2, 3)):
            first = j == 0 and rng.random() < 0.3
            term = rng.choice(prods + list(inputs))
            ops.append((f"s{c}_{j}", NodeKind.ADD, (run, term),
                        (first, not first and rng.random() < 0.25)))
            run = f"s{c}_{j}"
        outputs[f"y{c}"] = run
    return make_graph(inputs, consts, ops, outputs)


def test_a_depth_first_walk_finishes_into_the_level_first_plan():
    """A walk of ``search_order`` with any choices, closed by ``finish`` as
    ``build`` closes it, gives the plan of a level-first walk: only a
    chain's step depends on the order of the steps, and the walk steps the
    chain roots in level-first order. The chain plans share full-width
    products between chains, and fall back where a chain opens negated."""
    rng = random.Random(7)
    cases = [(_random_shared_graph(rng), False) for _ in range(30)]
    cases += [(_random_chain_graph(rng), True) for _ in range(40)]
    walks = {False: 0, True: 0}
    reordered = {False: 0, True: 0}
    fallbacks = 0
    for (dfg, bindings), chained in cases:
        try:
            table = GraphTable(dfg, bindings, Config(width=rng.choice([8, 12]), k_max=2))
        except CannotFitError:  # an input wider than the word
            continue
        builder = PlanBuilder(table, CHAIN_PLAN if chained else ("source", dfg))
        for _ in range(4):
            choices = {nid: rng.randint(0, 2) for nid in builder.choice_points}
            try:
                want = _level_first_plan(builder, choices)
            except CannotFitError:
                continue
            ctx = _Ctx()
            for nid in builder.search_order:
                builder.step(ctx, nid, choices.get(nid, 0))
            got = builder.finish(ctx, choices)
            assert [n.id for n in got.graph.nodes] == [n.id for n in want.graph.nodes]
            assert got.choices == want.choices
            assert got.accumulators == want.accumulators
            assert emit_c(got).source == emit_c(want).source
            assert emit_vhdl(got).source == emit_vhdl(want).source
            assert report_json(got) == report_json(want)
            assert report_json(builder.build(choices)) == report_json(want)
            walks[chained] += 1
            reordered[chained] += [n for _, n in ctx.nodes] != list(want.graph.nodes)
            fallbacks += len(want.accumulators) < len(builder.chains)
    assert walks[False] >= 60 and reordered[False] >= 30, (walks, reordered)
    assert walks[True] >= 100 and reordered[True] >= 50 and fallbacks >= 30, \
        (walks, reordered, fallbacks)


def exhaustive_argmin(dfg, bindings, config):
    """Brute-force oracle for the search's tie-break: among all complete
    choice vectors with the smallest cost key, the lexicographically
    smallest in level-first position order."""
    builder = PlanBuilder(GraphTable(dfg, bindings, config), ("source", dfg))
    points = builder.choice_points
    ranked = []
    for combo in itertools.product(range(config.k_max + 1), repeat=len(points)):
        try:
            ranked.append((builder.build(dict(zip(points, combo))).cost_key, combo))
        except CannotFitError:
            continue
    return builder.build(dict(zip(points, min(ranked)[1])))


# Sums and products of two constants, shared between three outputs, found
# by a random search. Many choice vectors tie at the minimum, and the
# depth-first search order visits the choice points in another order than
# the level-first one: the first minimum found is not the level-first
# smallest.
TIES_DEPEND_ON_ORDER = make_graph(
    {}, {"c0": Fraction(1, 2), "c1": Fraction(5)},
    [("t0", NodeKind.ADD, ("c1", "c0"), (False, False)),
     ("t1", NodeKind.ADD, ("c0", "c1"), (False, False)),
     ("t3", NodeKind.MUL, ("t0", "t1"), (False, False)),
     ("t4", NodeKind.MUL, ("t1", "t3"), (False, False)),
     ("t5", NodeKind.ADD, ("t1", "c0"), (False, False))],
    {"y0": "t5", "y1": "t4", "y2": "t3"})


@pytest.mark.parametrize("width", [7, 8])
def test_ties_fall_to_the_level_first_smallest_choices(width):
    dfg, bindings = TIES_DEPEND_ON_ORDER
    cfg = Config(width=width, k_max=2)
    table = GraphTable(dfg, bindings, cfg)
    builder = PlanBuilder(table, ("source", dfg))
    assert builder.choice_points != [n for n in builder.search_order
                                     if n in builder.choice_points]
    want = exhaustive_argmin(dfg, bindings, cfg)
    assert want.choices == (("t0", 0), ("t1", 1), ("t3", 0), ("t5", 0), ("t4", 0))
    for prune in (True, False):
        got = combinatorial_search(table, ("source", dfg), prune=prune)
        assert got.choices == want.choices
        assert emit_c(got).source == emit_c(want).source


def _argmin_oracle(dfg, bindings, cfg):
    """Independent, unbounded search of every topology plus the chain plan,
    ranked by (cost, inserted formatting nodes, candidate order)."""
    plans = []
    for label, topo in enumerate_topologies(dfg):
        try:
            plans.append(combinatorial_search(GraphTable(topo, bindings, cfg), (label, topo)))
        except CannotFitError:
            pass
    if cfg.enable_chain_alloc and find_chains(dfg):
        plans.append(_chain_plan(dfg, bindings, cfg))
    return min(enumerate(plans),
               key=lambda kv: (kv[1].cost_key, kv[1].n_format_nodes, kv[0]))[1]


# the benchmark's FIR-5 spec
FIR5_SRC = make_fir_src(["-0.150", "-0.896", "-0.196", "0.801", "0.511"])


@pytest.mark.parametrize("src,cfg", [
    (FIR4_SRC, Config()),
    (SKEWED_SUM, Config(width=8, enable_chain_alloc=False)),
    (SKEWED_SUM, Config(width=8)),
    # every plan is exact here: the source shape ties with the chain plan
    # and wins on candidate order
    (make_sum_src(4), Config(width=32)),
    # with no choice to make, a search has no frontier and cuts at its leaf
    (FIR5_SRC, Config(k_max=0, enable_chain_alloc=False)),
    (FIR4_SRC, Config(k_max=0)),
])
def test_shared_incumbent_returns_the_argmin(src, cfg):
    dfg, bindings = parse_spec(src)
    got = topological_optimize(dfg, bindings, cfg)
    want = _argmin_oracle(dfg, bindings, cfg)
    assert (got.topology, got.choices) == (want.topology, want.choices)
    assert emit_c(got).source == emit_c(want).source


def test_a_plans_source_is_its_tables_graph():
    """A topology searched with a grid floor shared across the source
    graph's topologies has the source graph as its plan's source; searched
    on a table of its own graph, its own graph."""
    dfg, bindings = parse_spec(FIR5_SRC)
    cfg = Config(width=16)
    shared = GraphTable(dfg, bindings, cfg)
    label, topo = enumerate_topologies(dfg)[1]
    assert topo is not dfg
    assert combinatorial_search(shared, (label, topo)).source is dfg
    assert combinatorial_search(GraphTable(topo, bindings, cfg), (label, topo)).source is topo


def test_matvec3x3_step_count():
    plan = synthesize(make_matvec_src(3), Config(width=16))
    assert len(plan.output_ids) == 3
    assert sum(s.steps for s in plan.searches) <= 20_000


def test_search_counters_logged(caplog):
    """Each search's ``fpsynt.optimizer`` INFO line is its record's text."""
    dfg, bindings = parse_spec(FIR4_SRC)
    with caplog.at_level(logging.INFO, logger="fpsynt.optimizer"):
        plan = topological_optimize(dfg, bindings, Config())
    lines = [r.getMessage() for r in caplog.records if r.name == "fpsynt.optimizer"]
    assert lines == [str(s) for s in plan.searches]
    labels = [label for label, _ in enumerate_topologies(dfg)]
    assert [s.label for s in plan.searches] == ["source+chain"] + labels
    # the chain plan comes first, and its cost cuts every topology on FIR-4
    # by the grid floor, before the topology's first step
    chain = plan.searches[0]
    assert lines[0] == (f"search source+chain: {chain.steps} steps, {chain.leaves} leaves, "
                        f"{chain.incumbent_prunes} incumbent prunes, "
                        f"{chain.dominance_prunes} dominance prunes")
    assert lines[1:] == [f"search {label}: 0 steps, 0 leaves, 0 incumbent prunes, "
                         "0 dominance prunes, cut by the grid floor" for label in labels]


def test_fir5_topologies_are_cut_by_the_grid_floor():
    """The chain plan's bound cuts each of FIR-5's 14 pairwise topologies
    before its first step."""
    dfg, bindings = parse_spec(make_fir_src(["-0.150", "-0.896", "-0.196", "0.801", "0.511"]))
    plan = topological_optimize(dfg, bindings, Config())
    assert plan.topology == "source+chain"
    chain, *topologies = plan.searches
    assert chain.label == "source+chain" and chain.cut is None and len(topologies) == 14
    assert topologies == [SearchStats(s.label, cut="grid floor") for s in topologies]


# ---------------------------------------------------------------------------
# the grid floor

_FLOOR_FORMATS = [(1, 0, 0), (1, 0, 3), (1, 1, 2), (2, 0, 4), (1, 2, 5), (1, 0, 7), (1, 0, 15)]
_FLOOR_CONSTS = [Fraction(-3, 4), Fraction(1, 2), Fraction(-1, 4), Fraction(2), Fraction(-1),
                 Fraction(3, 10), Fraction(-7, 10), Fraction(1, 3), Fraction(-5, 7),
                 Fraction(5, 4), Fraction(-9, 8)]


def _random_floor_graph(rng: random.Random, width: int) -> tuple[Dfg, Bindings]:
    """2-4 inputs of mixed formats that fit ``width`` bits (``sif(1/0/0)``
    among them), two constants (negative, powers of two, non-dyadic),
    products and sums that later nodes read again, a sum of three or four
    terms that re-association reshapes, and two outputs."""
    fmts = [f for f in _FLOOR_FORMATS if sum(f) <= width]
    inputs = {f"v{k}": rng.choice(fmts) for k in range(rng.choice([2, 3, 4]))}
    consts = {f"c{k}": rng.choice(_FLOOR_CONSTS) for k in range(2)}
    names = list(inputs)
    ops, pool = [], []
    for k in range(rng.choice([2, 3])):
        a = rng.choice(names)
        c = rng.choice(list(consts)) if rng.random() < 0.8 else rng.choice(names)
        ops.append((f"m{k}", NodeKind.MUL, (c, a) if rng.random() < 0.5 else (a, c),
                    (False, False)))
        pool.append(f"m{k}")
    terms = pool + rng.sample(names, 1)
    rng.shuffle(terms)
    acc = terms[0]
    for k, t in enumerate(terms[1:]):
        ops.append((f"s{k}", NodeKind.ADD, (acc, t), (False, rng.random() < 0.3)))
        acc = f"s{k}"
    other = rng.choice(pool + names)
    if rng.random() < 0.5:
        ops.append(("u", NodeKind.ADD, (other, "s0"), (False, rng.random() < 0.5)))
    else:
        ops.append(("u", NodeKind.MUL, (rng.choice(list(consts)), other), (False, False)))
    return make_graph(inputs, consts, ops, {"y0": acc, "y1": "u"})


# Found by a random search. At W=9 the optimum holds t1 = v0 - v1 in a
# format whose range is too small for t1's exact range, which its computed
# values come within the error of.
SLACK_MATTERS = (make_graph(
    {"v0": (1, 1, 0), "v1": (1, 1, 0)}, {"c0": Fraction(-7, 10), "c1": Fraction(1, 3)},
    [("t0", NodeKind.MUL, ("c0", "v1"), (False, False)),
     ("t1", NodeKind.ADD, ("v0", "v1"), (False, True)),
     ("t3", NodeKind.ADD, ("t0", "t1"), (False, True)),
     ("t4", NodeKind.MUL, ("c1", "t1"), (False, False))],
    {"y0": "t4", "y1": "t3"}), Config(width=9, k_max=1))

# Found by a random search. With v1 in sif(1/0/0), t0 = -0.7 * v1 lies in
# [0, 0.7]; an extra truncation of t1 or t2 can floor it to a point, which
# the next flooring takes by its exact remainder. Without the point guard
# (a product c*u with c < 0 spans zero only if u's hi is > 0), or without
# the slack on hi of the reaches, the floor of y0 exceeds its optimum at W=6.
COLLAPSES_TO_A_POINT = (make_graph(
    {"v0": (1, 0, 2), "v1": (1, 0, 0)}, {"c0": Fraction(3, 10), "c1": Fraction(-7, 10)},
    [("t0", NodeKind.MUL, ("c1", "v1"), (False, False)),
     ("t1", NodeKind.MUL, ("c0", "t0"), (False, False)),
     ("t2", NodeKind.MUL, ("c0", "t1"), (False, False)),
     ("t3", NodeKind.ADD, ("v0", "t2"), (False, False))],
    {"y0": "t3", "y1": "t2"}), Config(width=6, k_max=1))


# the benchmark's matvec2x3 spec
MATVEC2X3_SRC = "".join(f"input x{j} : sif(1/0/15);\n" for j in range(3)) + """\
const a00 = -0.838;
const a01 = 0.650;
const a02 = 0.402;
const a10 = 0.115;
const a11 = 0.889;
const a12 = 0.394;
output y0 = a00*x0 + a01*x1 + a02*x2;
output y1 = a10*x0 + a11*x1 + a12*x2;
"""


@pytest.mark.parametrize("src", [FIR4_SRC, MATVEC2X3_SRC], ids=["fir4", "matvec2x3"])
def test_one_synthesis_walks_its_chains_once(src, monkeypatch):
    """The source graph's chains are found once, for both re-association
    and the chain plan."""
    calls = []

    def counted(dfg):
        calls.append(dfg)
        return find_chains(dfg)

    monkeypatch.setattr("fpsynt.core.find_chains", counted)
    synthesize(src, Config(width=16))
    assert len(calls) == 1


def _search(table: GraphTable, *args) -> tuple:
    """A search's plan (None when cut, else its constants, choices and
    errors) and the records it added to ``table``."""
    n = len(table.searches)
    plan = combinatorial_search(table, *args)
    if plan is None:
        return None, table.searches[n:]
    return (plan.const_raws, plan.choices, {n: i.err for n, i in plan.info.items()}), \
        table.searches[n:]


@pytest.mark.parametrize("src,width,winner", [
    (FIR5_SRC, 16, CHAIN_PLAN), (MATVEC2X3_SRC, 16, CHAIN_PLAN),
    # the best plan is a pairwise topology, which the floor must not cut;
    # with its cost as incumbent the floor cuts t2:3 and t2:4
    (SKEWED_SUM, 8, "t2:1"), (SKEWED_SUM, 16, "t2:1"),
], ids=["fir5", "matvec2x3", "skewed-w8", "skewed-w16"])
def test_a_shared_graph_table_gives_the_plans_of_a_fresh_one(src, width, winner):
    """Every topology and the chain plan, searched with one grid floor and
    ``GraphTable`` shared across them as ``topological_optimize`` does,
    give the plans and search records that a fresh table and floor give:
    with no incumbent, with the chain plan's cost as incumbent, and with the
    best plan's, where the floor cuts. No incumbent cuts the best plan's
    topology."""
    dfg, bindings = parse_spec(src)
    cfg = Config(width=width)
    shared = GraphTable(dfg, bindings, cfg)
    chain = combinatorial_search(shared, CHAIN_PLAN)
    assert _search(shared, CHAIN_PLAN) == _search(GraphTable(dfg, bindings, cfg), CHAIN_PLAN)
    best = topological_optimize(dfg, bindings, cfg)
    assert best.topology == winner
    cut = 0
    for label, topo in enumerate_topologies(dfg):
        for incumbent in dict.fromkeys((None, chain.cost_key, best.cost_key)):
            got = _search(shared, (label, topo), True, incumbent)
            fresh = GraphTable(topo, bindings, cfg)
            assert got == _search(fresh, (label, topo), True, incumbent), (label, incumbent)
            assert got[0] is not None or label != best.topology, (label, incumbent)
            cut += got[0] is None
    assert cut  # the shared floor cut some topology before its first step


def test_each_config_quantizes_its_own_constants():
    """A table serves one Config: one graph optimized at W=8, then W=16,
    then W=8 again in one process gets each width's own constant words."""
    dfg, bindings = parse_spec(make_fir_src(["-0.150", "-0.896", "-0.196", "0.801", "0.511"],
                                            sif=(1, 0, 7)))
    raws = {}
    for width in (8, 16, 8):
        cfg = Config(width=width)
        plan = topological_optimize(dfg, bindings, cfg)
        assert plan.const_raws == {c: encode(v, choose_const_format(v, width), cfg.quantize)
                                   for c, v in bindings.consts.items()}
        raws.setdefault(width, plan.const_raws)
    assert raws[8] != raws[16]


def _record(floor) -> tuple:
    return floor.err, floor.g, floor.need, tuple(floor.views)


def test_one_grid_floor_keeps_each_bounds_floors_apart():
    """One grid floor asked for FIR-5's floors at the chain plan's cost b0,
    then at b0/4 on the same graph, gives at b0/4 the floors of a fresh one.
    At one bound, topologies that share a sub-sum share its record."""
    dfg, bindings = parse_spec(FIR5_SRC)
    cfg = Config(width=16)
    shared = GraphTable(dfg, bindings, cfg)
    chain = combinatorial_search(shared, CHAIN_PLAN)
    b0 = ErrorBound.of(chain.cost, shared.den)
    small = ErrorBound(b0.n, b0.e - 2, b0.q)
    moved = adds = 0
    records: dict[tuple, object] = {}
    for _label, topo in enumerate_topologies(dfg):
        order = depth_first_order(topo)
        at_b0 = {n: _record(f) for n, f in node_floors(shared, topo, order, b0).items()}
        got = node_floors(shared, topo, order, small)
        fresh = node_floors(GraphTable(dfg, bindings, cfg), topo, order, small)
        assert {n: _record(f) for n, f in got.items()} == \
            {n: _record(f) for n, f in fresh.items()}
        moved += sum(at_b0[n] != _record(got[n]) for n in order)
        # a node's cone as the terms it adds, with their signs
        cone = {n: n for n in order if topo.node(n).kind is not NodeKind.ADD}
        for n in order:
            node = topo.node(n)
            if node.kind is NodeKind.ADD:
                cone[n] = (cone[node.operands[0]], cone[node.operands[1]], node.negate)
                assert records.setdefault(cone[n], got[n]) is got[n]
                adds += 1
    assert moved  # the smaller bound moves some floors
    # 14 shapes of 4 additions each, over 4 + 3*2 + 2*5 + 14 distinct
    # sub-sums of adjacent terms: one record per sub-sum
    assert (adds, len(records)) == (56, 34)


def test_grid_floor_input_edges():
    """With an incumbent the grid floor runs before any step: a SHR node in a
    source graph still gets the builder's ValueError, and a constant that
    does not fit a CannotFitError that names it."""
    shr = Dfg((Node("x", NodeKind.INPUT), Node("s", NodeKind.SHR, ("x",), amount=1),
               Node("y", NodeKind.OUTPUT, ("s",))))
    too_big, bindings = parse_spec("input x : sif(1/0/7);\nconst c = 300;\noutput y = c*x + x;\n")
    one = (Fraction(1), Fraction(1))
    for incumbent in (None, one):
        with pytest.raises(ValueError, match="source graphs cannot contain NodeKind.SHR nodes"):
            combinatorial_search(GraphTable(shr, Bindings({"x": (1, 0, 7)}, {}, ("y",)), W8),
                                 ("source", shr), incumbent=incumbent)
        with pytest.raises(CannotFitError, match="const 'c': constant 300.0 does not fit"):
            combinatorial_search(GraphTable(too_big, bindings, W8), ("source", too_big),
                                 incumbent=incumbent)


@pytest.mark.parametrize("k_max", [0, 2])
def test_too_wide_inputs_fail_before_any_search(k_max, caplog):
    """The table checks every input's width in declaration order, so the
    error names v1, the first too-wide input, even where every walk steps v2
    first, and no candidate is searched."""
    dfg, bindings = make_graph(
        {"v1": (1, 0, 13), "v2": (1, 0, 14)}, {"c": Fraction(1, 4)},
        [("t0", NodeKind.ADD, ("v2", "v1"), (False, False)),
         ("t1", NodeKind.ADD, ("t0", "c"), (False, False))], {"y": "t1"})
    with caplog.at_level(logging.INFO, logger="fpsynt.optimizer"), \
            pytest.raises(CannotFitError) as e:
        topological_optimize(dfg, bindings, Config(width=8, k_max=k_max))
    assert str(e.value) == "input 'v1' is 14 bits wide, word width is 8"
    assert not [r for r in caplog.records if r.name == "fpsynt.optimizer"]


_NO_OUTPUT = (Dfg((Node("x", NodeKind.INPUT), Node("c", NodeKind.CONST, value=Fraction(1, 4)),
                   Node("m", NodeKind.MUL, ("c", "x")))),
              Bindings({"x": (1, 0, 7)}, {"c": Fraction(1, 4)}, ()))
_UNBOUND_INPUT = (make_graph({"x": (1, 0, 7), "y": (1, 0, 7)}, {},
                             [("s", NodeKind.ADD, ("x", "y"), (False, False))], {"o": "s"})[0],
                  Bindings({"x": (1, 0, 7)}, {}, ("o",)))


@pytest.mark.parametrize("graph,message", [
    (_NO_OUTPUT, "the graph has no output node"),
    (_UNBOUND_INPUT, "input 'y' has no format in the bindings")])
def test_malformed_hand_built_graphs_fail_before_any_search(graph, message, caplog):
    """The parser makes neither graph; built by hand, each fails in the
    table with one line, before any candidate is searched."""
    with caplog.at_level(logging.INFO, logger="fpsynt.optimizer"), \
            pytest.raises(ValueError) as e:
        topological_optimize(*graph, W8)
    assert str(e.value) == message
    assert not [r for r in caplog.records if r.name == "fpsynt.optimizer"]


# a = b + x, b = a + y: every configuration reads the graph's level-first
# order before it walks a chain or steps a node, and that raises. Run in a
# child under a 1 GiB address-space cap, so that a walk that never ends
# fails with MemoryError or the timeout and does not take the machine's memory.
_CYCLIC_SEARCH = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from fpsynt import Bindings, Config, CycleError, Dfg, Node, NodeKind, topological_optimize
dfg = Dfg((Node("x", NodeKind.INPUT), Node("y", NodeKind.INPUT),
           Node("a", NodeKind.ADD, ("b", "x")), Node("b", NodeKind.ADD, ("a", "y")),
           Node("o", NodeKind.OUTPUT, ("a",))))
bindings = Bindings({"x": (1, 0, 7), "y": (1, 0, 7)}, {}, ("o",))
for topology in (True, False):
    for chain in (True, False):
        try:
            topological_optimize(dfg, bindings, Config(
                width=8, enable_topology_opt=topology, enable_chain_alloc=chain))
        except CycleError as e:
            print(e)
"""


def test_a_cyclic_hand_built_graph_fails_fast():
    try:
        proc = subprocess.run([sys.executable, "-c", _CYCLIC_SEARCH], capture_output=True,
                              text=True, env=child_env(), timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("the search of a cyclic graph did not end within 60 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["cycle in dataflow graph: a -> b -> a"] * 4


def test_grid_floor_never_exceeds_a_topologys_optimum():
    """With the incumbent set to a topology's own unpruned optimum, the floor
    of every output is at most that output's error in the optimum."""
    rng = random.Random(11)
    cases = [SLACK_MATTERS, COLLAPSES_TO_A_POINT]
    for _ in range(40):
        width = rng.randint(6, 16)
        cases.append((_random_floor_graph(rng, width),
                      Config(width=width, k_max=rng.choice([1, 2]))))
    checked = outputs = tight = 0
    for (dfg, bindings), cfg in cases:
        for label, topo in enumerate_topologies(dfg):
            try:
                table = GraphTable(topo, bindings, cfg)
                best = combinatorial_search(table, (label, topo), prune=False)
            except CannotFitError:
                continue
            builder = PlanBuilder(table, (label, topo))
            floors = node_floors(builder.table, topo, builder.search_order,
                                 ErrorBound.of(best.cost_key[0], builder.den))
            for o in topo.output_ids:
                floor = floors[o].err.as_fraction()
                assert floor <= best.info[o].err, (label, o)
                outputs += 1
                tight += floor * 2 > best.info[o].err
            checked += 1
    # the floor is no vacuous 0: it reaches half the optimum on many outputs
    assert checked >= 70 and tight * 3 >= outputs, (checked, outputs, tight)


# ---------------------------------------------------------------------------
# Horner chains and the completion floor

_HORNER_CONSTS = [Fraction(-3, 4), Fraction(1, 2), Fraction(-1, 4), Fraction(1), Fraction(-1, 2),
                  Fraction(1, 3), Fraction(-5, 7), Fraction(3, 10), Fraction(-7, 10),
                  Fraction(2, 9), Fraction(-11, 13)]


def _random_horner_graph(rng: random.Random, n: int, width: int) -> tuple[Dfg, Bindings]:
    """c0 + x*(c1 + x*(... + x*cn)) with x in sif(1/0/f) or sif(1/1/f) and
    constants that are negative, powers of two or not dyadic."""
    i = rng.choice([0, 1])
    consts = {f"c{k}": rng.choice(_HORNER_CONSTS) for k in range(n + 1)}
    ops, acc = [], f"c{n}"
    for k in range(n - 1, -1, -1):
        ops.append((f"m{k}", NodeKind.MUL, ("x", acc), (False, False)))
        ops.append((f"a{k}", NodeKind.ADD, (f"c{k}", f"m{k}"), (False, False)))
        acc = f"a{k}"
    return make_graph({"x": (1, i, rng.randint(2, width - 1 - i))}, consts, ops, {"y": acc})


def _horner_cases():
    rng = random.Random(13)
    return [(_random_horner_graph(rng, n, width), Config(width=width, k_max=2))
            for n in (2, 3, 4) for width in rng.sample(range(6, 11), 3)]


def test_horner_search_matches_the_exhaustive_oracle():
    """Pruned and unpruned searches of Horner chains agree in cost, choices
    and C; with at most 6 choice points they also equal the brute force."""
    checked = 0
    for (dfg, bindings), cfg in _horner_cases():
        try:
            full = combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg),
                                        prune=False)
        except CannotFitError:
            with pytest.raises(CannotFitError):
                combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg), prune=True)
            continue
        pruned = combinatorial_search(GraphTable(dfg, bindings, cfg), ("source", dfg), prune=True)
        assert pruned.cost_key == full.cost_key
        assert pruned.choices == full.choices
        assert emit_c(pruned).source == emit_c(full).source
        if len(full.choices) <= 6:
            assert full.cost == exhaustive_minimum(dfg, bindings, cfg)
        checked += 1
    assert checked >= 7


def _check_completion_floor(dfg, bindings, cfg) -> tuple[int, int]:
    """Walk every state of the unpruned search tree. With the bound set to
    the best leaf key below a state, the frontier's lower bound there is at
    most that key. Returns the number of states checked, and of those where
    the completion floor raised the bound."""
    try:
        table = GraphTable(dfg, bindings, cfg)
    except CannotFitError:  # an input wider than the word: no state fits
        return 0, 0
    builder = PlanBuilder(table, ("source", dfg))
    frontier = _Frontier(builder)
    no_floor = _Frontier(builder)  # never bound: cone sums only
    order = builder.search_order
    cands = range(cfg.k_max + 1)
    checked = [0, 0]

    def best_below(pos, ctx):
        if pos == len(order):
            return cost_key([ctx.info[o].err for o in dfg.output_ids])
        best = None
        for choice in cands if order[pos] in builder.choice_points else (0,):
            branch = ctx.clone()
            try:
                builder.step(branch, order[pos], choice)
            except CannotFitError:
                continue
            key = best_below(pos + 1, branch)
            if key is not None and (best is None or key < best):
                best = key
        if best is not None:
            frontier.bound_to(best[0])
            bound = frontier.lower_bound(pos, ctx)
            assert bound <= best, (order[pos], best)
            checked[0] += 1
            checked[1] += bound > no_floor.lower_bound(pos, ctx)
        return best

    best_below(0, _Ctx())
    return checked[0], checked[1]


def test_completion_floor_is_admissible():
    rng = random.Random(17)
    cases = _horner_cases()
    for _ in range(12):
        width = rng.randint(6, 12)
        cases.append((_random_floor_graph(rng, width), Config(width=width, k_max=1)))
        cases.append((_random_shared_graph(rng), Config(width=rng.choice([6, 8]), k_max=1)))
    # at W=12 and 16 the losses are small against the values' ranges, and
    # the floor raises the bound in more of the states
    cases += [(_random_horner_graph(rng, 3, width), Config(width=width, k_max=2))
              for width in (12, 16)]
    counts = [_check_completion_floor(dfg, bindings, cfg) for (dfg, bindings), cfg in cases]
    states, raised = map(sum, zip(*counts))
    # the floor is no vacuous 0
    assert states >= 10_000 and raised >= 500, (states, raised)


# ---------------------------------------------------------------------------
# the grid floor of a topology, read from its chains' shapes


def _random_shapes_graph(rng: random.Random, width: int,
                        max_terms: int = 6) -> tuple[Dfg, Bindings]:
    """1-3 addition chains of 3 to ``max_terms`` terms over products and inputs, some of
    them negated, a term added first or second; a later chain may read an
    earlier chain's root as a term or through a product, and every root is
    an output."""
    fmts = [f for f in _FLOOR_FORMATS if sum(f) <= width]
    inputs = {f"v{k}": rng.choice(fmts) for k in range(rng.randint(2, 4))}
    consts = {f"c{k}": rng.choice(_FLOOR_CONSTS) for k in range(3)}
    ops, outputs, roots = [], {}, []
    for ci in range(rng.randint(1, 3)):
        terms = []
        for k in range(rng.randint(3, max_terms)):
            r, c = rng.random(), rng.choice(list(consts))
            if roots and r < 0.15:  # a later add reads a root
                terms.append(rng.choice(roots))
            elif r < 0.8:  # a product, of a root now and then
                read = rng.choice(roots) if roots and r < 0.3 else rng.choice(list(inputs))
                ops.append((f"m{ci}_{k}", NodeKind.MUL, (c, read), (False, False)))
                terms.append(f"m{ci}_{k}")
            else:
                terms.append(rng.choice(list(inputs)))
        acc = terms[0]
        for k, t in enumerate(terms[1:]):
            neg = rng.random() < 0.3
            ops.append((f"s{ci}_{k}", NodeKind.ADD, *(((t, acc), (neg, False))
                                                       if rng.random() < 0.25
                                                       else ((acc, t), (False, neg)))))
            acc = f"s{ci}_{k}"
        roots.append(acc)
        outputs[f"y{ci}"] = acc
    return make_graph(inputs, consts, ops, outputs)


def _chain_cases(n: int, seed: int, max_terms: int, k_max: int) -> list:
    rng = random.Random(seed)
    cases = []
    for _ in range(n):
        width = rng.randint(8, 16)
        cases.append((_random_shapes_graph(rng, width, max_terms), Config(width=width, k_max=k_max)))
    return cases


def test_topology_floors_equal_the_floors_of_built_graphs(monkeypatch):
    """On random graphs of 1-3 chains, at b0 = 0 and at each incumbent that
    ``topological_optimize`` floors candidates at, each candidate's grid
    floor read from its chains' shapes equals ``node_floors`` on its built
    graph, output by output, and its label is the built candidate's. No
    floor reads k_max, so the searches have no choice to make."""
    seen = []
    output_floors = _TopologyFloors.output_floors

    def recorded(self, ks, b0):
        seen.append(b0)
        return output_floors(self, ks, b0)

    compared = reshaped = 0
    for (dfg, bindings), cfg in _chain_cases(40, 33, 6, 0):
        assert 1 <= len(dfg.chains) <= 3
        monkeypatch.setattr(_TopologyFloors, "output_floors", recorded)
        seen.clear()
        try:
            topological_optimize(dfg, bindings, cfg)
        except CannotFitError:
            pass
        monkeypatch.undo()
        table, fresh = GraphTable(dfg, bindings, cfg), GraphTable(dfg, bindings, cfg)
        shape_lists = _shape_lists(dfg.chains)
        combos = list(itertools.product(*(range(len(s)) for s in shape_lists)))
        topologies = enumerate_topologies(dfg)
        assert [_topology_label(dfg, ks) for ks in combos] == [label for label, _ in topologies]
        floors = _TopologyFloors(table, shape_lists)
        for b0 in [ErrorBound(0, 0, table.den)] + list({(b.n, b.e, b.q): b for b in seen}.values()):
            for ks, (label, topo) in zip(combos, topologies):
                want = node_floors(fresh, topo, topo.depth_first, b0)
                assert [_record(f) for f in floors.output_floors(ks, b0)] == \
                    [_record(want[o]) for o in topo.output_ids], (label, b0)
                compared += 1
                reshaped += any(ks)
    assert compared >= 1000 and reshaped * 2 >= compared, (compared, reshaped)


def _built_graph_optimize(dfg, bindings, cfg):
    """The search loop that ``topological_optimize`` replaced: every
    topology's graph built first, each floored by ``combinatorial_search``
    itself. Returns the search records' text and the plan, or the error."""
    table = GraphTable(dfg, bindings, cfg)
    topologies = enumerate_topologies(dfg) if cfg.enable_topology_opt else [("source", dfg)]
    candidates = list(enumerate(topologies))
    if cfg.enable_chain_alloc and dfg.chains:
        candidates.insert(0, (len(topologies), CHAIN_PLAN))
    incumbent, ranked, errors = None, [], []
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
    lines = [str(s) for s in table.searches]
    if not ranked:
        return lines, "; ".join(e for _, e in sorted(errors)) or "no feasible plan"
    return lines, min(ranked, key=lambda r: r[0])[1]


def test_search_records_equal_the_built_graph_loop():
    """``topological_optimize`` cuts a topology before building its graph,
    and gives the records' text, the plan and the errors of the loop over
    built graphs, on random chain graphs and on the benchmark's specs."""
    cases = [(graph, dataclasses.replace(cfg, enable_chain_alloc=k % 3 != 0,
                                         enable_topology_opt=k % 4 != 1))
             for k, (graph, cfg) in enumerate(_chain_cases(60, 34, 4, 1))]
    for src in (FIR4_SRC, FIR5_SRC, MATVEC2X3_SRC, SKEWED_SUM, make_sum_src(5)):
        cases += [(parse_spec(src), Config(width=w)) for w in (16, 24)]
    cut = 0
    for (dfg, bindings), cfg in cases:
        lines, want = _built_graph_optimize(dfg, bindings, cfg)
        try:
            got = topological_optimize(dfg, bindings, cfg)
        except CannotFitError as e:
            assert str(e) == want
            continue
        assert [str(s) for s in got.searches] == lines
        assert report_json(got) == report_json(want) and got.choices == want.choices
        cut += sum(s.cut == "grid floor" for s in got.searches)
    assert cut >= 100, cut


def test_matvec4x4_builds_no_cut_topology(monkeypatch):
    """Of ``matvec4x4``'s 625 pairwise topologies, the grid floor cuts all
    but at most one before its graph is built; a loop over built graphs
    builds all 625."""
    built = []

    def counted(nodes):
        built.append(nodes)
        return Dfg(nodes)

    monkeypatch.setattr("fpsynt.optimizer.Dfg", counted)
    plan = synthesize(make_matvec_src(4), Config(width=16))
    assert len(plan.searches) == 626 and len(built) <= 1
