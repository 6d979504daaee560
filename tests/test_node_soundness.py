"""Per-node soundness, exhaustively at small widths.

Seeded random graphs, each synthesized under a random config, are run on
every input combination with a column loop of this file's own. Each plan
node that stands for a source node must stay within its error bound of that
node's exact value: |raw * 2^(E - F) - exact| <= err. A TRUNC or SHR stands
for its operand's source node. A chain accumulator's partial sums
(``{root}_acc{j}``) and a re-associated chain's inner additions
(``{root}_r{k}``) stand for no source node and are skipped. Every node's raw
word must also stay inside its format's range.

``FPSYNT_SOUNDNESS_PLANS`` sets how many plans are checked (30 by default).
"""

import itertools
import os
import random
from fractions import Fraction

from fpsynt.config import Config
from fpsynt.core import NodeKind
from fpsynt.errors import CannotFitError
from fpsynt.optimizer import topological_optimize

from conftest import make_graph

PLANS = int(os.environ.get("FPSYNT_SOUNDNESS_PLANS", "30"))


def _random_case(rng: random.Random):
    """At W in {6, 8, 10}: one input of at most W bits or two of at most 6,
    2 constants and 3-6 MUL/ADD nodes, each reading one of the last two
    nodes and any earlier one, so values are read again; k_max 0-2, and
    re-association and chain allocation each on or off."""
    width, n_inputs = rng.choice((6, 8, 10)), rng.randint(1, 2)
    inputs = {}
    for k in range(n_inputs):
        bits = rng.randint(2, width if n_inputs == 1 else 6)
        i = rng.randint(0, bits - 1)
        inputs[f"x{k}"] = (1, i, bits - 1 - i)
    consts = {f"c{k}": Fraction(rng.randint(-300, 300), 100) for k in range(2)}
    names, ops = [*inputs, *consts], []
    for k in range(rng.randint(3, 6)):
        kind = NodeKind.ADD if rng.random() < 0.6 else NodeKind.MUL
        negate = rng.choice(((False, False), (False, False), (True, False), (False, True))) \
            if kind is NodeKind.ADD else (False, False)
        ops.append((f"t{k}", kind, (rng.choice(names[-2:]), rng.choice(names)), negate))
        names.append(f"t{k}")
    outputs = {"y0": ops[-1][0]}
    if rng.random() < 0.5:
        outputs["y1"] = rng.choice(ops[:-1])[0]
    dfg, bindings = make_graph(inputs, consts, ops, outputs)
    config = Config(width=width, k_max=rng.randint(0, 2),
                    enable_topology_opt=rng.random() < 0.5,
                    enable_chain_alloc=rng.random() < 0.5)
    return dfg, bindings, config


def _exact_columns(plan, combos) -> dict[str, list[Fraction]]:
    """Each source node's exact value on every input combination, constants
    at their declared values."""
    source, bindings = plan.source, plan.bindings
    cols: dict[str, list] = {}
    for nid in source.level_first:
        node = source.node(nid)
        ops = [cols[op] for op in node.operands]
        if node.kind is NodeKind.INPUT:
            k = list(bindings.inputs).index(nid)
            lsb = Fraction(1, 1 << bindings.input_format(nid).f)
            cols[nid] = [row[k] * lsb for row in combos]
        elif node.kind is NodeKind.CONST:
            cols[nid] = [node.value] * len(combos)
        elif node.kind is NodeKind.MUL:
            cols[nid] = [a * b for a, b in zip(*ops)]
        elif node.kind is NodeKind.ADD:
            sa, sb = (-1 if neg else 1 for neg in node.negate)
            cols[nid] = [sa * a + sb * b for a, b in zip(*ops)]
        else:  # OUTPUT
            cols[nid] = ops[0]
    return cols


def _check_nodes(plan, case: str) -> int:
    """Run ``plan`` on every input combination and check each node that
    stands for a source node against its bound; the number of nodes checked."""
    bindings = plan.bindings
    fmts = [bindings.input_format(name) for name in bindings.inputs]
    combos = list(itertools.product(*(range(f.min_raw, f.max_raw + 1) for f in fmts)))
    exact = _exact_columns(plan, combos)
    source_ids = {n.id for n in plan.source.nodes}
    stands: dict[str, str | None] = {}
    raws: dict[str, list[int]] = {}
    checked = 0
    for nid in plan.graph.level_first:
        node, info = plan.graph.node(nid), plan.info[nid]
        ops = [raws[op] for op in node.operands]
        if node.kind is NodeKind.INPUT:
            k = list(bindings.inputs).index(nid)
            col = [row[k] for row in combos]
        elif node.kind is NodeKind.CONST:
            col = [plan.const_raws[nid]] * len(combos)
        elif node.kind is NodeKind.MUL:
            col = [a * b for a, b in zip(*ops)]
        elif node.kind is NodeKind.ADD:
            sa, sb = (-1 if neg else 1 for neg in node.negate)
            col = [sa * a + sb * b for a, b in zip(*ops)]
        elif node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            col = [a >> node.amount for a in ops[0]]
        else:  # OUTPUT
            col = ops[0]
        raws[nid] = col
        fmt = info.signal.fmt
        assert fmt.min_raw <= min(col) and max(col) <= fmt.max_raw, \
            f"{case}: '{nid}' leaves {fmt}"
        if nid in source_ids:
            stands[nid] = nid
        elif node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            stands[nid] = stands[node.operands[0]]
        else:  # a partial sum of a chain
            stands[nid] = None
        if stands[nid] is None:
            continue
        grid = info.signal.grid
        worst = max(abs(raw * grid - x) for raw, x in zip(col, exact[stands[nid]]))
        assert worst <= info.err, \
            f"{case}: '{nid}' is off by {worst} from '{stands[nid]}', bound {info.err}"
        checked += 1
    return checked


def test_every_node_stays_within_its_bound_on_every_input():
    rng = random.Random(9)
    plans = checked = 0
    for attempt in range(20 * PLANS):
        if plans == PLANS:
            break
        dfg, bindings, config = _random_case(rng)
        try:
            plan = topological_optimize(dfg, bindings, config)
        except CannotFitError:
            continue
        checked += _check_nodes(plan, f"case {attempt}, {config}, topology {plan.topology}")
        plans += 1
    assert plans == PLANS
    assert checked > 5 * PLANS
