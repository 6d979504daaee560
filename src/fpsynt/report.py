"""Synthesis reports: a machine-readable JSON document plus an aligned text
table (node, format, scale, error, operands) for humans."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from . import __version__
from .analysis import Plan
from .core import NodeKind

if TYPE_CHECKING:  # only the annotations name it; importing it loads numpy
    from .simulator import ErrorStats


def _operand_label(plan: Plan, op_id: str) -> str:
    node = plan.graph.node(op_id)
    if node.kind is NodeKind.SHR:
        return f"{node.operands[0]} >> {node.amount}"
    return op_id


def node_records(plan: Plan) -> list[dict]:
    records = []
    for nid in plan.graph.level_first:
        node = plan.graph.node(nid)
        info = plan.info[nid]
        fmt = info.signal.fmt
        rec = {
            "name": nid,
            "kind": node.kind.value,
            "sif": {"s": fmt.s, "i": fmt.i, "f": fmt.f},
            "width": fmt.width,
            "scale": info.signal.scale,
            "error_bound": float(info.err),
            "interval": [float(info.interval.lo), float(info.interval.hi)],
            "operands": [_operand_label(plan, op) for op in node.operands],
        }
        if node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            rec["shift"] = node.amount
        if node.kind is NodeKind.CONST:
            rec["raw"] = plan.const_raws[nid]
        records.append(rec)
    return records


def build_report(plan: Plan, stats: ErrorStats | None = None) -> dict:
    return {
        "tool": "fpsynt",
        "version": __version__,
        "config": plan.config.as_dict(),
        "topology": plan.topology,
        "choices": [list(c) for c in plan.choices],
        "accumulators": [
            {"root": a.root, "width": a.width, "fraction_bits": a.fraction_bits,
             "terms": a.n_terms}
            for a in plan.accumulators
        ],
        "nodes": node_records(plan),
        "outputs": list(plan.output_ids),
        "predicted_bound": float(plan.cost),
        "stats": stats.as_dict() if stats is not None else None,
    }


def report_json(plan: Plan, stats: ErrorStats | None = None) -> str:
    return json.dumps(build_report(plan, stats), indent=2, sort_keys=True) + "\n"


def summary_table(plan: Plan) -> str:
    """Aligned per-node summary, one row per datapath node."""
    rows = [("Node", "Kind", "SIF", "E", "W", "Error", "Operands")]
    for rec in node_records(plan):
        sif = rec["sif"]
        rows.append((
            rec["name"],
            rec["kind"],
            f"({sif['s']}/{sif['i']}/{sif['f']})",
            str(rec["scale"]),
            str(rec["width"]),
            f"{rec['error_bound']:.6f}",
            ", ".join(rec["operands"]),
        ))
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append(f"predicted worst-case output error <= {float(plan.cost):.6e}")
    for a in plan.accumulators:
        lines.append(f"chain accumulator at '{a.root}': {a.width} bits, "
                     f"{a.n_terms} terms")
    return "\n".join(lines) + "\n"
