"""Bit-accurate plan execution and comparison against a reference.

run_fixed executes every plan node with exact integer arithmetic (full-width
multiply, arithmetic shift, two's-complement add) and checks each raw result
against its node's format range; a violation means the analyzer is broken,
never the user. run_reference evaluates the original expression, either in
double precision with unquantized constants (mirroring a floating-point
implementation) or in exact rational arithmetic for oracle duty. Both sides
consume the same quantized input samples, so the measured deviation is
purely coefficient quantization plus formatting loss.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .analysis import Plan
from .core import NodeKind, Quantize, decode, encode
from .errors import InternalOverflowError, RangeError, VectorError
from .parser import Bindings


@dataclass(frozen=True)
class TestVector:
    """One stimulus: a raw word per input, in declaration order."""

    raws: tuple[int, ...]


@dataclass(frozen=True)
class VectorSet:
    """Input samples quantized onto the declared formats."""

    inputs: tuple[str, ...]
    vectors: tuple[TestVector, ...]
    quantize: Quantize = Quantize.ROUND

    def __len__(self):
        return len(self.vectors)


def quantize_vector(bindings: Bindings, values, mode: Quantize = Quantize.ROUND,
                    where: str = "vector") -> TestVector:
    """Encode one row of real input values. Values must lie inside the
    declared decoded ranges before rounding."""
    raws = []
    for name, v in zip(bindings.inputs, values):
        fmt = bindings.input_format(name)
        try:
            raws.append(encode(Fraction(v), fmt, mode))
        except RangeError as e:
            raise VectorError(f"{where}: input '{name}': {e}") from None
    return TestVector(tuple(raws))


def generate_vectors(bindings: Bindings, n: int, seed: int,
                     mode: Quantize = Quantize.ROUND) -> VectorSet:
    """n uniform random vectors over each input's decoded range, preceded by
    three canonical vectors: all-zero, all-minimum, all-maximum."""
    if n < 1:
        raise ValueError("need n >= 1 vectors")
    names = tuple(bindings.inputs)
    fmts = [bindings.input_format(name) for name in names]
    vectors = [
        TestVector(tuple(0 for _ in fmts)),
        TestVector(tuple(f.min_raw for f in fmts)),
        TestVector(tuple(f.max_raw for f in fmts)),
    ]
    rng = np.random.default_rng(seed)
    for _ in range(n):
        row = [Fraction(float(rng.uniform(float(f.min_value), float(f.max_value))))
               for f in fmts]
        vectors.append(quantize_vector(bindings, row, mode))
    return VectorSet(names, tuple(vectors), mode)


def save_vectors_csv(path, bindings: Bindings, vecset: VectorSet):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(vecset.inputs)
        fmts = [bindings.input_format(name) for name in vecset.inputs]
        for vec in vecset.vectors:
            w.writerow([repr(float(decode(raw, fmt)))
                        for raw, fmt in zip(vec.raws, fmts)])


def load_vectors_csv(source, bindings: Bindings,
                     mode: Quantize = Quantize.ROUND) -> VectorSet:
    """Read a vector file: header = input names in declaration order, then
    one decimal real per column per row."""
    if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
        fh = open(source, newline="")
        close = True
    else:
        fh = source
        close = False
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise VectorError("vector file is empty") from None
        expected = list(bindings.inputs)
        if [h.strip() for h in header] != expected:
            raise VectorError(
                f"vector header {header!r} does not match the declared inputs {expected!r}")
        vectors = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise VectorError(
                    f"row {lineno}: expected {len(expected)} columns, found {len(row)}")
            try:
                values = [Fraction(cell.strip()) for cell in row]
            except (ValueError, ZeroDivisionError):
                raise VectorError(f"row {lineno}: malformed number") from None
            vectors.append(quantize_vector(bindings, values, mode, where=f"row {lineno}"))
        if not vectors:
            raise VectorError("vector file contains no data rows")
        return VectorSet(tuple(expected), tuple(vectors), mode)
    finally:
        if close:
            fh.close()


# ---------------------------------------------------------------------------
# execution


def run_fixed(plan: Plan, vector: TestVector) -> dict[str, tuple[int, Fraction]]:
    """Execute the plan bit-accurately.

    Returns raw and semantic value (raw * 2^(E-F)) per output. Every node's
    raw result is checked against its format range; InternalOverflowError
    here indicates a planner bug.
    """
    inputs = dict(zip(plan.bindings.inputs, vector.raws))
    raws: dict[str, int] = {}
    for nid in plan.order():
        node = plan.graph.node(nid)
        if node.kind is NodeKind.INPUT:
            raw = inputs[nid]
        elif node.kind is NodeKind.CONST:
            raw = plan.const_raws[nid]
        elif node.kind is NodeKind.MUL:
            raw = raws[node.operands[0]] * raws[node.operands[1]]
        elif node.kind is NodeKind.ADD:
            a = raws[node.operands[0]]
            b = raws[node.operands[1]]
            raw = (-a if node.negate[0] else a) + (-b if node.negate[1] else b)
        elif node.kind in (NodeKind.SHR, NodeKind.TRUNC):
            raw = raws[node.operands[0]] >> node.amount
        elif node.kind is NodeKind.OUTPUT:
            raw = raws[node.operands[0]]
        else:  # pragma: no cover
            raise ValueError(node.kind)
        fmt = plan.info[nid].signal.fmt
        if not fmt.min_raw <= raw <= fmt.max_raw:
            raise InternalOverflowError(nid, raw)
        raws[nid] = raw
    return {oid: (raws[oid], plan.info[oid].signal.value_of(raws[oid]))
            for oid in plan.output_ids}


def run_reference(plan: Plan, vector: TestVector, mode: str = "double") -> dict:
    """Evaluate the source expression on the same quantized inputs.

    mode 'double': double precision with unquantized constants, the
    floating-point implementation a fixed datapath is judged against.
    mode 'exact': exact rational evaluation, for soundness oracles.
    """
    if mode not in ("double", "exact"):
        raise ValueError(f"unknown reference mode {mode!r}")
    exact = mode == "exact"
    bindings = plan.bindings
    fmts = [bindings.input_format(name) for name in bindings.inputs]
    vals: dict[str, object] = {}
    for name, fmt, raw in zip(bindings.inputs, fmts, vector.raws):
        q = decode(raw, fmt)
        vals[name] = q if exact else float(q)

    source = plan.source
    for nid in plan.source_order():
        node = source.node(nid)
        if node.kind is NodeKind.INPUT:
            continue
        if node.kind is NodeKind.CONST:
            vals[nid] = node.value if exact else float(node.value)
        elif node.kind is NodeKind.MUL:
            vals[nid] = vals[node.operands[0]] * vals[node.operands[1]]
        elif node.kind is NodeKind.ADD:
            a = vals[node.operands[0]]
            b = vals[node.operands[1]]
            vals[nid] = (-a if node.negate[0] else a) + (-b if node.negate[1] else b)
        elif node.kind is NodeKind.OUTPUT:
            vals[nid] = vals[node.operands[0]]
    return {oid: vals[oid] for oid in source.output_ids}


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
    """Aggregate deviations into an ErrorStats.

    The mean is summed exactly and rounded once (``statistics.mean``); a
    plain float sum can round below ``min`` or above ``max`` (three copies
    of 10.842168179762918 average to 10.842168179762917).
    """
    if not devs:
        raise ValueError("no deviations to aggregate")
    vals = sorted(float(d) for d in devs)
    n = len(vals)
    return ErrorStats(min=vals[0], max=vals[-1],
                      mean=statistics.mean(vals),
                      median=vals[(n - 1) // 2],  # lower middle for even n
                      count=n)


def compare(plan: Plan, vecset: VectorSet, mode: str = "double") -> ErrorStats:
    """Per-vector worst output deviation |fixed - reference|, aggregated."""
    devs = []
    for vec in vecset.vectors:
        fixed = run_fixed(plan, vec)
        ref = run_reference(plan, vec, mode)
        worst = max(abs(float(fixed[o][1]) - float(ref[o])) if mode == "double"
                    else abs(fixed[o][1] - ref[o])
                    for o in plan.output_ids)
        devs.append(worst)
    return stats_from_deviations(devs)
