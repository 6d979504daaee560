"""Synthesis reports: a machine-readable JSON document plus an aligned text
table (node, format, scale, error, operands) for humans."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
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
    return _report(plan, stats, node_records(plan))


def _report(plan: Plan, stats: ErrorStats | None, nodes: list[dict]) -> dict:
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
        "nodes": nodes,
        "outputs": list(plan.output_ids),
        "predicted_bound": float(plan.cost),
        "stats": stats.as_dict() if stats is not None else None,
    }


# one node record of ``report_json``, as ``json.dumps(indent=2, sort_keys=True)``
# lays it out at its depth; the optional "raw" and "shift" lines go in the
# two gaps
_NODE = """    {
      "error_bound": %s,
      "interval": [
        %s,
        %s
      ],
      "kind": %s,
      "name": %s,
      "operands": %s,
%s      "scale": %s,
%s      "sif": {
        "f": %s,
        "i": %s,
        "s": %s
      },
      "width": %s
    }"""
_NODES = '\n  "nodes": [],\n'  # the header's placeholder, at the top level's indent


def _dyadic(m: int, exp: int) -> str:
    """m * 2^exp as ``float(Fraction)`` rounds it, in ``json``'s text."""
    return float.__repr__((m << exp) / 1 if exp >= 0 else m / (1 << -exp))


def report_json(plan: Plan, stats: ErrorStats | None = None) -> str:
    """``json.dumps(build_report(plan, stats), indent=2, sort_keys=True)``
    and a newline, byte for byte: one ``json.dumps`` writes the header and
    each node record is ``_NODE`` filled in, strings through ``json``'s own
    ``encode_basestring_ascii`` and floats through ``float.__repr__`` (no
    value is a NaN or infinite: ``float`` of an exact bound raises instead)."""
    header = json.dumps(_report(plan, stats, []), indent=2, sort_keys=True)
    head, mid, tail = header.partition(_NODES)
    graph, records = plan.graph, []
    for nid in graph.level_first:
        node = graph.node(nid)
        info = plan.info[nid]
        fmt, iv, kind = info.signal.fmt, info.interval, node.kind
        if node.operands:
            labels = [_string(_operand_label(plan, op)) for op in node.operands]
            operands = "[\n        " + ",\n        ".join(labels) + "\n      ]"
        else:
            operands = "[]"
        raw = f'      "raw": {plan.const_raws[nid]!r},\n' if kind is NodeKind.CONST else ""
        shift = f'      "shift": {node.amount!r},\n' \
            if kind in (NodeKind.SHR, NodeKind.TRUNC) else ""
        err = info.err
        records.append(_NODE % (
            float.__repr__(err.numerator / err.denominator), _dyadic(iv.m_lo, iv.exp),
            _dyadic(iv.m_hi, iv.exp), _string(kind.value), _string(nid), operands, raw,
            int.__repr__(info.signal.scale), shift, int.__repr__(fmt.f), int.__repr__(fmt.i),
            int.__repr__(fmt.s), int.__repr__(fmt.width)))
    nodes = '\n  "nodes": [\n' + ",\n".join(records) + "\n  ],\n" if records else mid
    return head + nodes + tail + "\n"


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
