"""Bit-accurate plan execution and comparison against a reference.

The simulator works on columns: a VectorSet holds one raw matrix, one row
per vector and one column per input, and every plan node is executed as one
numpy column over a block of ``BLOCK`` rows.

run_fixed_columns executes every plan node with exact integer arithmetic
(full-width multiply, arithmetic shift, two's-complement add) and checks
each node's column against its format range with one min and one max; a
violation means the analyzer is broken, never the user. The columns are
int64 when no node can wrap (see ``fits_int64``) and Python integers in an
``object`` column otherwise, with the same code. run_reference_columns
evaluates the original expression, either in double precision with
unquantized constants (float64 columns, mirroring a floating-point
implementation) or in exact rational arithmetic (``Fraction`` columns) for
oracle duty. Both sides consume the same quantized input samples, so the
measured deviation is purely coefficient quantization plus formatting loss.
run_fixed runs one vector, as a block of one row.
"""

from __future__ import annotations

import csv
import itertools
import logging
import math
import re
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import Plan
from .core import NodeKind, Quantize, SifFormat, encode
from .errors import InternalOverflowError, RangeError, VectorError
from .parser import (MAX_DIGITS, MAX_EXPONENT, Bindings, _frac_to_decimal,
                     literal_over_bound)

log = logging.getLogger("fpsynt.simulator")

BLOCK = 4096  # rows executed together; bounds the memory of the node columns
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class TestVector:
    """One stimulus: a raw word per input, in declaration order."""

    raws: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class VectorSet:
    """Input samples quantized onto the declared formats.

    ``raws`` is an (n, k) integer matrix: one row per vector, one column per
    input in ``inputs`` order. It is int64 when every raw fits, else an
    ``object`` matrix of Python integers; other signed integer matrices
    are converted to int64 and unsigned ones to ``object``. Two sets are
    equal when their inputs, quantization mode and raw values are.
    """

    inputs: tuple[str, ...]
    raws: np.ndarray
    quantize: Quantize = Quantize.ROUND

    def __post_init__(self):
        raws = np.asarray(self.raws)
        if raws.dtype.kind == "i":
            raws = raws.astype(np.int64, copy=False)
        elif raws.dtype.kind == "u":  # may not fit int64
            raws = raws.astype(object)
        elif raws.dtype != object:
            raise TypeError(f"raw matrix must hold integers, not {raws.dtype}")
        if raws.ndim != 2 or raws.shape[1] != len(self.inputs):
            raise ValueError(f"raw matrix of shape {raws.shape} does not have one "
                             f"column per input {self.inputs}")
        object.__setattr__(self, "raws", raws)

    def __len__(self):
        return len(self.raws)

    @property
    def vectors(self) -> tuple[TestVector, ...]:
        """The rows as TestVectors, built from the matrix on each access."""
        return tuple(TestVector(tuple(row)) for row in self.raws.tolist())

    def __eq__(self, other):
        if not isinstance(other, VectorSet):
            return NotImplemented
        return (self.inputs == other.inputs and self.quantize is other.quantize
                and np.array_equal(self.raws, other.raws))

    __hash__ = None


def _fits_int64(fmt: SifFormat) -> bool:
    return fmt.i + fmt.f <= 63


def _raw_matrix(columns, fmts, n: int) -> np.ndarray:
    """Stack n-row per-input raw columns into an (n, k) matrix, int64 when
    every format's raws fit it."""
    if not columns:
        return np.empty((n, 0), dtype=np.int64)
    dtype = np.int64 if all(_fits_int64(f) for f in fmts) else object
    return np.stack([c.astype(dtype) for c in columns], axis=1)


def _quantize_column(scaled: np.ndarray, fmt: SifFormat, mode: Quantize) -> np.ndarray:
    """Raw words for exact values ``scaled`` = value * 2^F, all in range.

    Rounding runs in float64, where it is exact: below 2^52 the integer part
    and the fraction of a value are exact, and from 2^52 up every float is
    already an integer.
    """
    if mode is Quantize.ROUND:  # nearest, ties away from zero
        mag = np.abs(scaled)
        whole = np.floor(mag)
        rounded = np.copysign(whole + (mag - whole >= 0.5), scaled)
    else:
        rounded = np.floor(scaled)
    if _fits_int64(fmt):
        return rounded.astype(np.int64)
    return np.array([int(x) for x in rounded.tolist()], dtype=object)


def _out_of_range(scaled: np.ndarray, fmt: SifFormat) -> np.ndarray:
    """Which exact values ``scaled`` = value * 2^F lie outside the raw range."""
    top = fmt.i + fmt.f
    bound = math.ldexp(1.0, top)
    # max_raw = 2^top - 1 is a float up to top = 53; above, no float lies
    # strictly between max_raw and 2^top
    high = scaled > fmt.max_raw if top <= 53 else scaled >= bound
    return (scaled < -bound) | high


def generate_vectors(bindings: Bindings, n: int, seed: int,
                     mode: Quantize = Quantize.ROUND) -> VectorSet:
    """n uniform random vectors over each input's decoded range, preceded by
    three canonical vectors: all-zero, all-minimum, all-maximum.

    The n x k values come from one ``rng.uniform`` call, row by row, so they
    are the values one call per value in the same order would draw.
    """
    if n < 1:
        raise ValueError("need n >= 1 vectors")
    names = tuple(bindings.inputs)
    fmts = [bindings.input_format(name) for name in names]
    rng = np.random.default_rng(seed)
    draws = rng.uniform(np.array([float(f.min_value) for f in fmts]),
                        np.array([float(f.max_value) for f in fmts]),
                        size=(n, len(fmts)))
    scaled = [np.ldexp(draws[:, k], fmt.f) for k, fmt in enumerate(fmts)]  # exact
    first_bad = []  # (row, input) of each input's first value outside its range
    for k, (s, fmt) in enumerate(zip(scaled, fmts)):
        mask = _out_of_range(s, fmt)
        if mask.any():
            first_bad.append((int(np.argmax(mask)), k))
    if first_bad:  # raise for the first one in row order, as encode words it
        row, k = min(first_bad)
        _encode_value(Fraction(float(draws[row, k])), fmts[k], mode,
                      f"vector: input '{names[k]}'")
    columns = []
    for s, fmt in zip(scaled, fmts):
        q = _quantize_column(s, fmt, mode)
        columns.append(np.concatenate([np.array([0, fmt.min_raw, fmt.max_raw], q.dtype), q]))
    return VectorSet(names, _raw_matrix(columns, fmts, n + 3), mode)


# one decimal per vector cell, its digits and exponent in named groups
_DECIMAL_RE = re.compile(r"[-+]?(?P<digits>\d+\.?\d*|\.\d+)(?:[eE](?P<exp>[-+]?\d+))?")


def _encode_value(value: Fraction, fmt: SifFormat, mode: Quantize, where: str) -> int:
    try:
        return encode(value, fmt, mode)
    except RangeError as e:
        raise VectorError(f"{where}: {e}") from None


def save_vectors_csv(path, bindings: Bindings, vecset: VectorSet):
    """Write a vector file that ``load_vectors_csv`` reads back as ``vecset``:
    each value as its float text where that is exact, else its exact decimal."""
    fmts = [bindings.input_format(name) for name in vecset.inputs]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(vecset.inputs)
        w.writerows([_exact_text(Fraction(raw, 1 << f.f)) for raw, f in zip(row, fmts)]
                    for row in vecset.raws.tolist())


def _exact_text(value: Fraction) -> str:
    text = repr(float(value))
    return text if Fraction(text) == value else _frac_to_decimal(value)


def load_vectors_csv(source, bindings: Bindings,
                     mode: Quantize = Quantize.ROUND) -> VectorSet:
    """Read a vector file: header = input names in declaration order, then
    one decimal real per column per row, in UTF-8, after a byte-order mark
    if the source opens with one. Each decimal, of at most ``MAX_DIGITS``
    digits and an exponent at most ``MAX_EXPONENT`` in size, as in a spec,
    is parsed and quantized exactly."""
    close = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open(source, newline="", encoding="utf-8-sig") if close else source
    try:
        lines = iter(fh)
        first = next(lines, "").removeprefix("\ufeff")  # a real line is never ''
        if not first:
            raise VectorError("vector file is empty")
        reader = csv.reader(itertools.chain([first], lines))
        header = next(reader)
        expected = list(bindings.inputs)
        if [h.strip() for h in header] != expected:
            raise VectorError(
                f"vector header {header!r} does not match the declared inputs {expected!r}")
        fmts = [bindings.input_format(name) for name in expected]
        rows = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # the file line that ends the record
            if len(row) != len(expected):
                raise VectorError(
                    f"row {lineno}: expected {len(expected)} columns, found {len(row)}")
            cells = [_DECIMAL_RE.fullmatch(cell.strip()) for cell in row]
            if not all(cells):
                raise VectorError(f"row {lineno}: malformed number")
            for m in cells:
                over = literal_over_bound(m["digits"], m["exp"])
                if over == "exponent":
                    raise VectorError(f"row {lineno}: exponent exceeds {MAX_EXPONENT}")
                if over == "digits":
                    raise VectorError(f"row {lineno}: {m[0][:40]!r}... has over {MAX_DIGITS} digits")
            values = [Fraction(m[0]) for m in cells]
            rows.append([_encode_value(v, fmt, mode, f"row {lineno}: input '{name}'")
                         for name, fmt, v in zip(expected, fmts, values)])
        if not rows:
            raise VectorError("vector file contains no data rows")
        columns = [np.array([row[k] for row in rows], dtype=object) for k in range(len(fmts))]
        return VectorSet(tuple(expected), _raw_matrix(columns, fmts, len(rows)), mode)
    except UnicodeDecodeError:
        raise VectorError("vector file is not UTF-8") from None
    except csv.Error as e:
        raise VectorError(f"row {reader.line_num}: {e}") from None
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# execution


def fits_int64(plan: Plan) -> bool:
    """True when no node's exact result can leave int64.

    The bound of a node comes from its operands' format ranges, which the
    range checks guarantee before it runs: |a|*|b| for MUL, |a|+|b| for ADD
    (either operand negated), |a| for shifts and outputs, and the node's own
    range for inputs and constants. A node width of at most 63 is not
    enough: two 63-bit addends can wrap.
    """
    mag: dict[str, int] = {}
    for nid in plan.graph.level_first:
        node = plan.graph.node(nid)
        ops = [mag[op] for op in node.operands]
        fmt = plan.info[nid].signal.fmt
        if node.kind is NodeKind.MUL:
            bound = ops[0] * ops[1]
        elif node.kind is NodeKind.ADD:
            bound = ops[0] + ops[1]
        else:
            bound = ops[0] if ops else 1 << (fmt.i + fmt.f)
        if bound > _INT64_MAX:
            return False
        mag[nid] = 1 << (fmt.i + fmt.f)  # |min_raw|, the larger end
    return True


def _in_blocks(raws: np.ndarray, outputs, run_block) -> dict[str, np.ndarray]:
    """Apply ``run_block`` to ``BLOCK`` rows of ``raws`` at a time and join
    the columns of ``outputs`` it returns; the other columns of a block are
    dropped before the next one runs."""
    parts: dict[str, list] = {oid: [] for oid in outputs}
    for start in range(0, max(len(raws), 1), BLOCK):
        cols = run_block(raws[start:start + BLOCK])
        for oid in outputs:
            parts[oid].append(cols[oid])
    return {oid: np.concatenate(p) for oid, p in parts.items()}


def run_fixed_columns(plan: Plan, raws: np.ndarray) -> dict[str, np.ndarray]:
    """Execute the plan bit-accurately on an (n, k) input raw matrix.

    Returns one raw column per output, int64 when ``fits_int64(plan)`` and
    ``object`` otherwise. Each block fills one stacked matrix, a row per
    node in level order, and checks every row against its node's format
    range with one min and one max over the block; InternalOverflowError,
    at the first node in level order of the first block that leaves its
    range, and at that node's first bad row, indicates a planner bug.
    """
    dtype = np.int64 if fits_int64(plan) else object
    order, graph = plan.graph.level_first, plan.graph
    row = {nid: k for k, nid in enumerate(order)}
    column = {name: k for k, name in enumerate(plan.bindings.inputs)}
    # per node: a fill from its input column or constant raw, a copy of its
    # operand's row, or a ufunc of its operands' rows (and a shift count)
    steps, lo, hi = [], [], []
    for nid in order:
        node = graph.node(nid)
        args = [row[op] for op in node.operands]
        if node.kind is NodeKind.INPUT:
            step = ("input", column[nid])
        elif node.kind is NodeKind.CONST:
            step = ("const", plan.const_raws[nid])
        elif node.kind is NodeKind.OUTPUT:
            step = ("copy", args[0])
        elif node.kind is NodeKind.MUL:
            step = (np.multiply, *args)
        elif node.kind is NodeKind.ADD:  # -a + b is b - a: both are never negated
            step = (np.subtract, *args[::-1]) if node.negate[0] else \
                (np.subtract if node.negate[1] else np.add, *args)
        elif node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            # x >> 63 is already 0 or -1, and an int64 shift count must fit int64
            step = ("shift", args[0], node.amount if dtype is object else min(node.amount, 63))
        else:  # pragma: no cover
            raise ValueError(node.kind)
        steps.append(step)
        fmt = plan.info[nid].signal.fmt
        lo.append(fmt.min_raw)
        hi.append(fmt.max_raw)

    n = len(raws)
    out = {oid: np.empty(n, dtype) for oid in plan.output_ids}
    mat = np.empty((len(order), min(n, BLOCK)), dtype)
    for start in range(0, max(n, 1), BLOCK):
        block = raws[start:start + BLOCK]
        m = len(block)
        cols = mat[:, :m]
        for col, (op, x, *y) in zip(cols, steps):
            if op == "input":
                col[:] = block[:, x]
            elif op == "const":
                col[:] = x
            elif op == "copy":
                col[:] = cols[x]
            elif op == "shift":
                np.right_shift(cols[x], y[0], out=col)
            else:
                op(cols[x], cols[y[0]], out=col)
        if m:  # each row's min and max, against its range as Python ints
            for k, (a, b) in enumerate(zip(cols.min(axis=1).tolist(), cols.max(axis=1).tolist())):
                if a < lo[k] or b > hi[k]:
                    col = cols[k]
                    raise InternalOverflowError(order[k], int(col[np.argmax((col < lo[k]) |
                                                                            (col > hi[k]))]))
        for oid, col in out.items():
            col[start:start + m] = cols[row[oid]]
    return out


def run_reference_columns(plan: Plan, raws: np.ndarray, mode: str = "double") -> dict:
    """Evaluate the source expression on an (n, k) input raw matrix.

    mode 'double': float64 columns with unquantized constants, the
    floating-point implementation a fixed datapath is judged against.
    mode 'exact': ``object`` columns of ``Fraction``, for soundness oracles.
    Returns one column per output.
    """
    if mode not in ("double", "exact"):
        raise ValueError(f"unknown reference mode {mode!r}")
    exact = mode == "exact"
    bindings = plan.bindings
    fmts = [bindings.input_format(name) for name in bindings.inputs]
    source = plan.source

    def run_block(block):
        m = len(block)
        vals: dict[str, np.ndarray] = {}
        for k, (name, fmt) in enumerate(zip(bindings.inputs, fmts)):
            if exact:
                vals[name] = block[:, k].astype(object) * Fraction(1, 1 << fmt.f)
            else:
                vals[name] = _to_float(block[:, k], -fmt.f)
        for nid in plan.source.level_first:
            node = source.node(nid)
            ops = [vals[op] for op in node.operands]
            if node.kind is NodeKind.CONST:
                vals[nid] = (np.full(m, node.value, dtype=object) if exact
                             else np.full(m, float(node.value)))
            elif node.kind is NodeKind.MUL:
                vals[nid] = ops[0] * ops[1]
            elif node.kind is NodeKind.ADD:
                a, b = [-x if neg else x for x, neg in zip(ops, node.negate)]
                vals[nid] = a + b
            elif node.kind is NodeKind.OUTPUT:
                vals[nid] = ops[0]
        return vals

    return _in_blocks(raws, source.output_ids, run_block)


def _to_float(raws: np.ndarray, exponent: int) -> np.ndarray:
    """raw * 2^exponent as float64, correctly rounded: the integer rounds
    once on conversion and the power-of-two scale is exact."""
    return np.ldexp(raws.astype(np.float64), exponent)


def run_fixed(plan: Plan, vector: TestVector) -> dict[str, tuple[int, Fraction]]:
    """Execute the plan on one vector: raw and semantic value
    (raw * 2^(E-F)) per output."""
    cols = run_fixed_columns(plan, np.array([vector.raws], dtype=object))
    raws = {oid: int(col[0]) for oid, col in cols.items()}
    return {oid: (raw, plan.info[oid].signal.value_of(raw)) for oid, raw in raws.items()}


@dataclass(frozen=True)
class ErrorStats:
    """Distribution of |fixed - reference| over a vector set.

    ``mean`` is the correctly rounded arithmetic mean, so it always lies in
    ``[min, max]``; ``median`` is the lower middle element for an even count.
    """

    min: float
    max: float
    mean: float
    median: float
    count: int

    def as_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "mean": self.mean,
                "median": self.median, "count": self.count}


def stats_from_deviations(devs) -> ErrorStats:
    """Aggregate a sequence or array of deviations into an ErrorStats.

    The values are sorted as float64; ``min``, ``max`` and ``median`` are
    those Python's stable ``sorted`` of the floats gives, so a zero keeps
    the sign of its place among the input's zeros. The mean is the exact
    sum rounded once, as in ``statistics.mean`` (a float sum averages three
    copies of 10.842168179762918 to ...917, below ``min``): each value is
    an integer mantissa times a power of two (``np.frexp``), the mantissas
    of each run of equal exponents in the sorted values are summed in int64,
    in two halves so that no sum can wrap, and ``int`` arithmetic joins the
    runs. It falls back to ``statistics.mean`` when a value is infinite. A
    NaN deviation is a ValueError."""
    given = np.asarray(devs, dtype=np.float64)
    n = len(given)
    if not n:
        raise ValueError("no deviations to aggregate")
    vals = np.sort(given)
    if np.isnan(vals[-1]):  # np.sort puts NaN last
        raise ValueError("a deviation is NaN: no mean to aggregate")

    def at(k: int) -> float:
        if vals[k]:
            return float(vals[k])
        # the zeros sort together, after the negatives, in input order where the sort is stable
        return float(given[given == 0][k - int(np.count_nonzero(vals < 0))])

    if np.isinf(vals[0]) or np.isinf(vals[-1]):
        mean = statistics.mean(vals.tolist())
    else:
        frac, exps = np.frexp(vals)
        mant = np.ldexp(frac, 53).astype(np.int64)  # exact: frexp keeps 53 bits
        starts = np.concatenate(([0], np.flatnonzero(np.diff(exps)) + 1))
        # halves below 2^27 in size: their int64 sums hold for n < 2^36
        high = mant >> 26
        low = np.add.reduceat(mant - (high << 26), starts).tolist()
        high = np.add.reduceat(high, starts).tolist()
        run_exps = exps[starts].tolist()
        base = min(run_exps)
        total = sum((((h << 26) + lo) << (e - base) for e, h, lo in zip(run_exps, high, low)), 0)
        k = base - 53  # the sum is total * 2^k; int / int rounds correctly
        mean = (total << k) / n if k >= 0 else total / (n << -k)
    return ErrorStats(min=at(0), max=at(n - 1), mean=mean,
                      median=at((n - 1) // 2),  # lower middle for even n
                      count=n)


def compare(plan: Plan, vecset: VectorSet, mode: str = "double") -> ErrorStats:
    """Per-vector worst output deviation |fixed - reference|, aggregated."""
    ref = run_reference_columns(plan, vecset.raws, mode)
    fixed = run_fixed_columns(plan, vecset.raws)
    worst = None
    for oid in plan.output_ids:
        signal = plan.info[oid].signal
        if mode == "exact":
            dev = np.abs(fixed[oid].astype(object) * signal.grid - ref[oid])
        else:
            dev = np.abs(_to_float(fixed[oid], signal.scale - signal.fmt.f) - ref[oid])
        worst = dev if worst is None else np.maximum(worst, dev)
    log.info("compare: %d vectors, %d outputs, %s columns, %d blocks", len(vecset),
             len(plan.output_ids), fixed[plan.output_ids[0]].dtype, -(-len(vecset) // BLOCK))
    return stats_from_deviations(worst)
