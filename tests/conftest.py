"""Shared specs and independent oracles.

The oracles here deliberately avoid the library's own evaluation paths:
exact_eval walks the parsed tree with plain Fraction arithmetic and
interval_eval propagates bounds the brute-force way, so tests compare two
independently written computations. interpret_c_expression evaluates an
emitted C expression with C semantics, the differential oracle where no C
compiler exists; interpret_vhdl does the same for an emitted VHDL
architecture where no VHDL analyzer exists. quantize_const is a constant
quantizer written apart from the library's ``encode``.
"""

import ast
import os
import re
from fractions import Fraction
from pathlib import Path

import pytest

import fpsynt
from fpsynt.core import Dfg, Node, NodeKind
from fpsynt.parser import Bindings, parse_spec

FIR4_SRC = """\
# 4-tap FIR filter
input x0 : sif(1/0/15);
input x1 : sif(1/0/15);
input x2 : sif(1/0/15);
input x3 : sif(1/0/15);
const w0 = 0.15;
const w1 = 0.05;
const w2 = 0.45;
const w3 = 0.35;
output y = w0*x0 + w1*x1 + w2*x2 + w3*x3;
"""

FIR4_COEFFS = [Fraction(k, 100) for k in (15, 5, 45, 35)]

# one wide input among narrow ones: pairwise additions pre-scale
SKEWED_SUM = ("input x0 : sif(1/3/4);\n" +
              "".join(f"input x{k} : sif(1/0/7);\n" for k in (1, 2, 3)) +
              "output y = x0 + x1 + x2 + x3;\n")


# one four-term chain, on y1, beside sums of two terms and their product on y0
MIXED_CHAINS_SRC = """\
input a : sif(1/1/6);
input b : sif(1/0/7);
input c : sif(1/2/5);
const k = 0.37;
output y0 = (a*b + k*c)*(a - c) + b;
output y1 = a*b + k*c + a + b*k;
"""


def child_env(**extra) -> dict:
    """The environment plus ``extra``, with ``PYTHONPATH`` led by the
    directory that holds the imported ``fpsynt``, so a child process finds
    the same package whether it is installed or run from ``src/``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(fpsynt.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p)
    return env


def make_graph(inputs, consts, ops, outputs) -> tuple[Dfg, Bindings]:
    """Graph from (id, kind, operands, negate) operations; outputs name the
    nodes they read."""
    nodes = [Node(v, NodeKind.INPUT) for v in inputs]
    nodes += [Node(c, NodeKind.CONST, value=v) for c, v in consts.items()]
    nodes += [Node(nid, kind, ops_, negate=neg) for nid, kind, ops_, neg in ops]
    nodes += [Node(y, NodeKind.OUTPUT, (src,)) for y, src in outputs.items()]
    return Dfg(tuple(nodes)), Bindings(inputs, consts, tuple(outputs))


def make_fir_src(coeffs, sif=(1, 0, 15)) -> str:
    s, i, f = sif
    lines = [f"input x{k} : sif({s}/{i}/{f});" for k in range(len(coeffs))]
    lines += [f"const w{k} = {c};" for k, c in enumerate(coeffs)]
    expr = " + ".join(f"w{k}*x{k}" for k in range(len(coeffs)))
    lines.append(f"output y = {expr};")
    return "\n".join(lines) + "\n"


def make_sum_src(n, sif=(1, 0, 15)) -> str:
    decls = "".join(f"input x{k} : sif({sif[0]}/{sif[1]}/{sif[2]});\n" for k in range(n))
    return decls + "output y = " + " + ".join(f"x{k}" for k in range(n)) + ";\n"


def make_matvec_src(n: int) -> str:
    """y_i = sum_j a_ij x_j, each a_ij written as 0.{i*n + j + 1}."""
    return ("".join(f"input x{j} : sif(1/0/15);\n" for j in range(n))
            + "".join(f"const a{i}{j} = 0.{i * n + j + 1};\n"
                      for i in range(n) for j in range(n))
            + "".join(f"output y{i} = " + " + ".join(f"a{i}{j}*x{j}" for j in range(n))
                      + ";\n" for i in range(n)))


def make_horner_src(n: int) -> str:
    """c0 + x*(c1 + x*(... + x*cn)) with x in sif(1/0/15) and
    c_k = 0.{(37k + 11) mod 97, two digits}."""
    consts = "".join(f"const c{k} = 0.{(37 * k + 11) % 97:02d};\n" for k in range(n + 1))
    expr = f"c{n}"
    for k in range(n - 1, -1, -1):
        expr = f"c{k} + x*({expr})"
    return "input x : sif(1/0/15);\n" + consts + f"output y = {expr};\n"


def quantize_const(value, f: int) -> int:
    """Integer literal for a real constant at f fraction bits: the nearest
    integer to value * 2^f, ties away from zero."""
    scaled = Fraction(value) * (1 << f)
    whole, rest = divmod(abs(scaled.numerator), scaled.denominator)
    magnitude = whole + (2 * rest >= scaled.denominator)
    return magnitude if scaled >= 0 else -magnitude


def exact_eval(dfg, bindings, values: dict) -> dict:
    """Independent exact evaluation of a source graph on given input values.

    Constants are taken at their declared (unquantized) values.
    """
    memo: dict[str, Fraction] = {}

    def ev(nid: str) -> Fraction:
        if nid in memo:
            return memo[nid]
        node = dfg.node(nid)
        if node.kind is NodeKind.INPUT:
            v = Fraction(values[nid])
        elif node.kind is NodeKind.CONST:
            v = node.value
        elif node.kind is NodeKind.MUL:
            v = ev(node.operands[0]) * ev(node.operands[1])
        elif node.kind is NodeKind.ADD:
            a = ev(node.operands[0])
            b = ev(node.operands[1])
            v = (-a if node.negate[0] else a) + (-b if node.negate[1] else b)
        elif node.kind is NodeKind.OUTPUT:
            v = ev(node.operands[0])
        else:
            raise AssertionError(node.kind)
        memo[nid] = v
        return v

    return {o: ev(o) for o in dfg.output_ids}


def interval_eval(dfg, bindings, input_ranges: dict, const_values: dict) -> dict:
    """Independent interval propagation over a source graph.

    input_ranges maps input name -> (lo, hi); const_values gives the value
    each constant actually takes in the datapath.
    """
    memo: dict[str, tuple] = {}

    def ev(nid: str):
        if nid in memo:
            return memo[nid]
        node = dfg.node(nid)
        if node.kind is NodeKind.INPUT:
            r = input_ranges[nid]
        elif node.kind is NodeKind.CONST:
            c = const_values.get(nid, node.value)
            r = (c, c)
        elif node.kind is NodeKind.MUL:
            (alo, ahi), (blo, bhi) = ev(node.operands[0]), ev(node.operands[1])
            prods = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
            r = (min(prods), max(prods))
        elif node.kind is NodeKind.ADD:
            (alo, ahi), (blo, bhi) = ev(node.operands[0]), ev(node.operands[1])
            if node.negate[0]:
                alo, ahi = -ahi, -alo
            if node.negate[1]:
                blo, bhi = -bhi, -blo
            r = (alo + blo, ahi + bhi)
        elif node.kind is NodeKind.OUTPUT:
            r = ev(node.operands[0])
        else:
            raise AssertionError(node.kind)
        memo[nid] = r
        return r

    return {o: ev(o) for o in dfg.output_ids}


_ALLOWED_AST = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.USub, ast.Name,
                ast.Constant, ast.Mult, ast.Add, ast.Sub, ast.RShift,
                ast.LShift, ast.Call, ast.Load)


def _floor_shr(v: int, k: int) -> int:
    return v >> k


def extract_c_expression(source: str, func_name: str) -> str:
    """Pull the single return expression out of an emitted C function."""
    m = re.search(rf"\b{re.escape(func_name)}\s*\([^)]*\)\s*{{\s*return\s+(.*?);\s*}}",
                  source, re.DOTALL)
    if not m:
        raise ValueError(f"no function '{func_name}' in source")
    return m.group(1)


def interpret_c_expression(expr: str, env: dict[str, int]) -> int:
    """Evaluate an emitted C integer expression with C semantics.

    The emitted subset (*, +, -, shifts, parentheses, decimal literals) has
    identical semantics over Python integers because every intermediate fits
    its declared C type by construction.
    """
    py = re.sub(r"(\d)LL\b", r"\1", expr)
    tree = ast.parse(py, mode="eval")
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_AST):
            raise ValueError(f"unexpected construct in C expression: {ast.dump(node)}")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id == "fps_shr"):
                raise ValueError("only fps_shr calls are allowed")
    names = dict(env)
    names["fps_shr"] = _floor_shr
    return eval(compile(tree, "<emitted-c>", "eval"), {"__builtins__": {}}, names)


class VhdlError(ValueError):
    """The emitted VHDL breaks a numeric_std rule, or a value does not fit."""


# a name is a basic identifier (\w+) or an extended one (\\...\\)
_VHDL_NAME = r"\\[^\\]+\\|\w+"
_VHDL_PORT_OR_SIGNAL = re.compile(rf"({_VHDL_NAME}) : (in |out )?\s*signed\((\d+) downto 0\)")
_VHDL_TOKEN = re.compile(rf"\s*({_VHDL_NAME}|[(),*+-])")


def _vhdl_key(name: str) -> str:
    """A VHDL name as the language compares it: a basic identifier ignores
    case, an extended one keeps its backslashes and its case."""
    return name if name.startswith("\\") else name.lower()


def vhdl_ports(source: str) -> tuple[list[str], list[str]]:
    """The input and the output port names of an emitted entity, as written,
    in declaration order."""
    ports = [(name, direction) for name, direction, _ in _VHDL_PORT_OR_SIGNAL.findall(source)
             if direction]
    return ([n for n, d in ports if d == "in "], [n for n, d in ports if d == "out "])


def _fits(col, width: int) -> bool:
    return not len(col) or (min(col) >= -(1 << (width - 1)) and max(col) < 1 << (width - 1))


def interpret_vhdl(source: str, inputs: dict) -> dict[str, list[int]]:
    """Evaluate an emitted numeric_std architecture on whole input columns.

    ``inputs`` maps each input port to a column of raw words; the result
    maps each output port to its column. Values are exact integers paired
    with their numeric_std widths: ``to_signed(n, w)`` is w bits, ``a * b``
    is len(a) + len(b) bits, ``a + b`` and ``a - b`` are max(len(a), len(b))
    bits and wrap, ``resize(a, w)`` is w bits and keeps the sign and the
    low bits, ``shift_right(a, k)`` floors and keeps len(a). Names are
    compared as VHDL does (``_vhdl_key``), and the result is keyed by the
    output names as declared. Raises VhdlError where a VHDL analyzer or
    simulator would differ from exact arithmetic: an assignment whose width
    is not its target's, a narrowing resize or a wrapping sum that changes a
    value, a literal that does not fit, or a signal never or twice assigned,
    and on two ports or signals of one name. Concurrent statements run in
    the order their reads are ready."""
    import numpy as np  # only this oracle needs it; the golden pins run without it

    widths, outs = {}, {}
    for name, direction, msb in _VHDL_PORT_OR_SIGNAL.findall(source):
        if _vhdl_key(name) in widths:
            raise VhdlError(f"'{name}' is declared twice")
        widths[_vhdl_key(name)] = int(msb) + 1
        if direction == "out ":
            outs[name] = _vhdl_key(name)
    env = {}
    for name, col in inputs.items():
        col, name = np.asarray(col, dtype=object), _vhdl_key(name)
        if not _fits(col, widths[name]):
            raise VhdlError(f"input '{name}' does not fit {widths[name]} bits")
        env[name] = col
    m = len(next(iter(env.values())))
    body = source[source.index("\nbegin\n") + 7:source.index("\nend dataflow;")]
    pending = []
    for line in body.splitlines():
        if line.strip() and not line.lstrip().startswith("--"):
            target, rhs = re.fullmatch(rf"\s*({_VHDL_NAME}) <= (.*);", line).groups()
            pending.append((_vhdl_key(target), _VHDL_TOKEN.findall(rhs)))
    targets = [t for t, _ in pending]
    if len(set(targets)) < len(targets) or set(targets) & set(env):
        raise VhdlError(f"a signal is assigned twice: {targets}")

    def ready(tokens) -> bool:
        return all(_vhdl_key(t) in env for k, t in enumerate(tokens)
                   if re.fullmatch(r"[A-Za-z]\w*|\\.*", t)
                   and (k + 1 == len(tokens) or tokens[k + 1] != "("))

    def evaluate(tokens) -> tuple:
        pos = [0]

        def take(want=None) -> str:
            tok = tokens[pos[0]]
            if want is not None and tok != want:
                raise VhdlError(f"expected {want!r}, got {tok!r}")
            pos[0] += 1
            return tok

        def integer() -> int:
            if tokens[pos[0]] == "-":
                take()
                return -int(take())
            return int(take())

        def atom() -> tuple:
            name = take()
            if name not in ("to_signed", "resize", "shift_right"):
                return env[_vhdl_key(name)], widths[_vhdl_key(name)]
            take("(")
            if name == "to_signed":
                value, width = integer(), (take(","), integer())[1]
                if not _fits([value], width):
                    raise VhdlError(f"to_signed({value}, {width}) does not fit")
                col = np.full(m, value, dtype=object)
            else:
                (col, width), amount = expr(), (take(","), integer())[1]
                if name == "shift_right":
                    col = col >> amount
                else:
                    if amount < width and not _fits(col, amount):
                        raise VhdlError(f"resize of {width} to {amount} bits changes a value")
                    width = amount
            take(")")
            return col, width

        def term() -> tuple:
            col, width = atom()
            while pos[0] < len(tokens) and tokens[pos[0]] == "*":
                take()
                rc, rw = atom()
                col, width = col * rc, width + rw
            return col, width

        def expr() -> tuple:
            col, width = term()
            while pos[0] < len(tokens) and tokens[pos[0]] in "+-":
                op = take()
                rc, rw = term()
                col, width = (col + rc if op == "+" else col - rc), max(width, rw)
                if not _fits(col, width):
                    raise VhdlError(f"a {width}-bit {op} wraps")
            return col, width

        value = expr()
        if pos[0] != len(tokens):
            raise VhdlError(f"trailing {tokens[pos[0]:]}")
        return value

    while pending:
        now = [(t, toks) for t, toks in pending if ready(toks)]
        if not now:
            raise VhdlError(f"never assigned or cyclic: {[t for t, _ in pending]}")
        for target, tokens in now:
            col, width = evaluate(tokens)
            if width != widths[target]:
                raise VhdlError(f"'{target}' is {widths[target]} bits, assigned {width}")
            env[target] = col
        pending = [p for p in pending if p[0] not in env]
    return {o: env[key].tolist() for o, key in outs.items()}


@pytest.fixture
def fir4():
    return parse_spec(FIR4_SRC)
