"""Deterministic C and VHDL emission for a finished plan.

Both targets carry a header comment with one line per datapath node,
``-- <name>: SIF(s/i/f) E=<e> err<=<bound>``, so a user can reinterpret the
integer output (value = raw * 2^(E-F)) and knows the predicted bound.

The C target folds each output into a single integer expression over ``*``,
``+``/``-`` and arithmetic shifts, computed in one fixed-width signed type
wide enough for the largest intermediate. The VHDL target declares one
signed vector per node at its exact plan width and assigns constants,
multipliers and adders as concurrent statements in that order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import __version__
from .analysis import Plan
from .core import NodeKind, render_infix
from .errors import EmitError


@dataclass(frozen=True)
class EmittedArtifact:
    language: str  # 'c' | 'vhdl'
    source: str
    suggested_name: str


# C99 keywords, and the names the C emitter declares (an output y is fps_y)
_C_RESERVED = {
    "auto", "break", "case", "char", "const", "continue", "default", "do",
    "double", "else", "enum", "extern", "float", "for", "goto", "if", "int",
    "long", "register", "return", "short", "signed", "sizeof", "static",
    "struct", "switch", "typedef", "union", "unsigned", "void", "volatile",
    "while", "inline", "restrict",
    "_Bool", "_Complex", "_Imaginary", "int32_t", "int64_t", "fps_shr",
}

# VHDL-2008 reserved words, and the ieee names the VHDL emitter reads
_VHDL_RESERVED = {
    "abs", "access", "after", "alias", "all", "and", "architecture", "array",
    "assert", "attribute", "begin", "block", "body", "buffer", "bus", "case",
    "component", "configuration", "constant", "disconnect", "downto", "else",
    "elsif", "end", "entity", "exit", "file", "for", "function", "generate",
    "generic", "group", "guarded", "if", "impure", "in", "inertial", "inout",
    "is", "label", "library", "linkage", "literal", "loop", "map", "mod",
    "nand", "new", "next", "nor", "not", "null", "of", "on", "open", "or",
    "others", "out", "package", "port", "postponed", "procedure", "process",
    "pure", "range", "record", "register", "reject", "rem", "report",
    "return", "rol", "ror", "select", "severity", "signal", "shared", "sla",
    "sll", "sra", "srl", "subtype", "then", "to", "transport", "type",
    "unaffected", "units", "until", "use", "variable", "wait", "when",
    "while", "with", "xnor", "xor",
    "assume", "assume_guarantee", "context", "cover", "default", "fairness",
    "force", "parameter", "property", "protected", "release", "restrict",
    "restrict_guarantee", "sequence", "strong", "vmode", "vprop", "vunit",
    "ieee", "std_logic_1164", "numeric_std", "signed", "to_signed", "resize",
    "shift_right",
}
_VHDL_BASIC = re.compile(r"[A-Za-z](_?[A-Za-z0-9])*")


def _c_names(plan: Plan) -> dict[str, str]:
    """The C name of each input and output: its own, or where that is
    reserved, itself with ``_`` appended until it is free and unique."""
    prefix = {**dict.fromkeys(plan.bindings.inputs, ""), **dict.fromkeys(plan.output_ids, "fps_")}

    def reserved(name: str, nid: str) -> bool:  # an output y is also fps_y
        return name in _C_RESERVED or prefix[nid] + name in _C_RESERVED

    emitted = {nid: nid for nid in prefix if not reserved(nid, nid)}
    used = set(emitted.values())
    for nid in [n for n in prefix if n not in emitted]:
        name = nid + "_"
        while name in used or reserved(name, nid):
            name += "_"
        emitted[nid] = name
        used.add(name)
    return emitted


def _vhdl_names(names) -> dict[str, str]:
    """The VHDL name of each of ``names``: its own where that is a basic
    identifier, not reserved and unlike every earlier one up to case; else
    the extended identifier ``\\name\\``, which is case-sensitive and unlike
    every basic identifier."""
    emitted, taken = {}, set(_VHDL_RESERVED)
    for nid in names:
        basic = _VHDL_BASIC.fullmatch(nid) and nid.lower() not in taken
        emitted[nid] = nid if basic else f"\\{nid}\\"
        taken.add(nid.lower())
    return emitted


def _header_lines(plan: Plan) -> list[str]:
    lines = []
    for nid in plan.graph.level_first:
        info = plan.info[nid]
        fmt = info.signal.fmt
        lines.append(f"-- {nid}: SIF({fmt.s}/{fmt.i}/{fmt.f}) "
                     f"E={info.signal.scale} err<={float(info.err)!r}")
    return lines


def emit_c(plan: Plan, name: str = "datapath", portable_shift: bool = False) -> EmittedArtifact:
    """One C function per output, raw words in, raw word out.

    Default emission uses ``>>`` and assumes (like virtually every compiler)
    that signed right shift is arithmetic; ``portable_shift=True`` swaps each
    shift for a helper that floors by division, at the cost of leaving the
    plain multiply/shift/add expression shape.
    """
    widest = max(plan.info[n.id].width for n in plan.graph.nodes)
    if widest <= 32:
        ctype = "int32_t"
    elif widest <= 64:
        ctype = "int64_t"
    else:
        raise EmitError(f"an intermediate needs {widest} bits; no standard C "
                        f"integer type fits it, rerun with a narrower word width")
    suffix = "LL" if ctype == "int64_t" else ""

    cname = _c_names(plan)

    def leaf(node) -> str:
        if node.kind is NodeKind.INPUT:
            return cname[node.id]
        raw = plan.const_raws[node.id]
        return f"({raw}{suffix})" if raw < 0 else f"{raw}{suffix}"

    def shift(node) -> tuple[str, str]:
        if node.amount == 0:
            return "", ""
        if portable_shift:
            return "fps_shr(", f", {node.amount})"
        return "(", f" >> {node.amount})"

    lines = [f"/* {name} -- fixed-point datapath, generated by fpsynt {__version__}",
             " *",
             " * Right shifts on signed values must be arithmetic; that is",
             " * implementation-defined in C (universal in practice). Emitting with",
             " * portable_shift substitutes a division-based floor shift instead.",
             " *",
             " * value of a word = raw * 2^(E-F), per the table below:",
             " *"]
    lines += [" * " + h for h in _header_lines(plan)]
    lines += [" */",
              "",
              "#include <stdint.h>",
              ""]
    if portable_shift:
        lines += [f"static {ctype} fps_shr({ctype} v, int k) {{",
                  f"    {ctype} d = ({ctype})1 << k;",
                  "    return (v >= 0) ? v / d : -((-v + d - 1) / d);",
                  "}",
                  ""]
    args = ", ".join(f"{ctype} {cname[i]}" for i in plan.bindings.inputs) or "void"
    for oid in plan.output_ids:
        info = plan.info[oid]
        fmt = info.signal.fmt
        lines += [f"/* {oid} = raw * 2^({info.signal.scale - fmt.f}) */",
                  f"{ctype} fps_{cname[oid]}({args}) {{",
                  f"    return {render_infix(plan.graph, oid, leaf, shift)};",
                  "}",
                  ""]
    return EmittedArtifact("c", "\n".join(lines), f"{name}.fps.c")


def emit_vhdl(plan: Plan, name: str = "datapath") -> EmittedArtifact:
    """Combinational numeric_std architecture: one signed signal per node at
    its exact plan width, constants then multipliers then adders."""
    ent = re.sub(r"[^A-Za-z0-9_]", "_", name)
    if not re.match(r"[A-Za-z]", ent):
        ent = "e_" + ent
    ent = _vhdl_names([ent])[ent]

    def width(nid: str) -> int:
        return plan.info[nid].width

    inputs = list(plan.bindings.inputs)
    outputs = list(plan.output_ids)
    internal = [n for n in (plan.graph.node(i) for i in plan.graph.level_first)
                if n.kind not in (NodeKind.INPUT, NodeKind.OUTPUT)]
    vname = _vhdl_names(inputs + outputs + [n.id for n in internal])

    consts, mults, adders = [], [], []
    for node in internal:
        nid, w = node.id, width(node.id)
        ops = [vname[o] for o in node.operands]
        if node.kind is NodeKind.CONST:
            consts.append(f"  {vname[nid]} <= to_signed({plan.const_raws[nid]}, {w});")
        elif node.kind is NodeKind.MUL:
            mults.append(f"  {vname[nid]} <= {ops[0]} * {ops[1]};")
        elif node.kind is NodeKind.ADD:  # a negated first operand swaps the two
            ra, rb = (f"resize({o}, {w})" for o in (ops[::-1] if node.negate[0] else ops))
            adders.append(f"  {vname[nid]} <= {ra} {'-' if any(node.negate) else '+'} {rb};")
        elif node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            rhs = f"shift_right({ops[0]}, {node.amount})" if node.amount else ops[0]
            if w != width(node.operands[0]):
                rhs = f"resize({rhs}, {w})"
            feeder = plan.graph.node(node.operands[0]).kind
            (mults if feeder is NodeKind.MUL else adders).append(f"  {vname[nid]} <= {rhs};")

    lines = [f"-- {ent} -- fixed-point datapath, generated by fpsynt {__version__}",
             "-- value of a word = raw * 2^(E-F):"]
    lines += _header_lines(plan)
    lines += ["",
              "library ieee;",
              "use ieee.std_logic_1164.all;",
              "use ieee.numeric_std.all;",
              "",
              f"entity {ent} is",
              "  port ("]
    ports = [f"    {vname[i]} : in  signed({width(i) - 1} downto 0)" for i in inputs]
    ports += [f"    {vname[o]} : out signed({width(o) - 1} downto 0)" for o in outputs]
    lines += [";\n".join(ports)]
    lines += ["  );",
              f"end {ent};",
              "",
              f"architecture dataflow of {ent} is"]
    for node in internal:
        lines.append(f"  signal {vname[node.id]} : signed({width(node.id) - 1} downto 0);")
    lines += ["begin"]
    if consts:
        lines += ["  --Constants"] + consts
    if mults:
        lines += ["  --Multipliers"] + mults
    if adders:
        lines += ["  --Adders"] + adders
    lines += ["  --Outputs"]
    for oid in outputs:
        src = plan.graph.node(oid).operands[0]
        lines.append(f"  {vname[oid]} <= {vname[src]};")
    lines += ["end dataflow;", ""]
    return EmittedArtifact("vhdl", "\n".join(lines), f"{name}.fps.vhd")
