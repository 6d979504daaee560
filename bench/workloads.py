"""The benchmark's workloads: which specs each one synthesizes, under which
``Config``, with how many random vectors, and an exact evaluator per spec.

Every spec is generated here from the benchmark's own coefficient lists.
Coefficients come from fixed seeds, never from ``--seed``: the search time
of a spec depends strongly on its coefficients, so a coefficient draw per
run would make the compile-time figures incomparable between runs. The run
seed only picks the random test vectors.

The exact evaluators use ``Fraction`` arithmetic on the coefficient lists
below and on input raws decoded with the declared fraction bits. They share
no code with fpsynt's parser, analysis or simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from fpsynt import Config


@dataclass(frozen=True)
class Spec:
    """One spec of a workload.

    kind: 'fir' (y = sum c_k x_k), 'horner' (y = c0 + x(c1 + x(c2 + ...)))
        or 'matvec' (y_i = sum_j c_ij x_j).
    coeffs: decimal literals exactly as written into the source; for
        'matvec' one tuple per output row.
    frac_bits: fraction bits of every input, declared as sif(1/0/frac_bits).
    """

    name: str
    kind: str
    coeffs: tuple
    frac_bits: int
    config: Config
    vectors: int
    source: str = field(init=False)  # the .fps text, rendered once at set-up

    def __post_init__(self):
        object.__setattr__(self, "source", self._render())

    @property
    def input_names(self) -> tuple[str, ...]:
        if self.kind == "horner":
            return ("x",)
        n = len(self.coeffs[0]) if self.kind == "matvec" else len(self.coeffs)
        return tuple(f"x{k}" for k in range(n))

    @property
    def output_names(self) -> tuple[str, ...]:
        if self.kind == "matvec":
            return tuple(f"y{i}" for i in range(len(self.coeffs)))
        return ("y",)

    def _render(self) -> str:
        f = self.frac_bits
        lines = [f"input {x} : sif(1/0/{f});" for x in self.input_names]
        if self.kind == "fir":
            lines += [f"const w{k} = {c};" for k, c in enumerate(self.coeffs)]
            lines.append("output y = "
                         + " + ".join(f"w{k}*x{k}" for k in range(len(self.coeffs))) + ";")
        elif self.kind == "horner":
            lines += [f"const c{k} = {c};" for k, c in enumerate(self.coeffs)]
            expr = f"c{len(self.coeffs) - 1}"
            for k in range(len(self.coeffs) - 2, -1, -1):
                expr = f"c{k} + x*({expr})"
            lines.append(f"output y = {expr};")
        else:
            lines += [f"const a{i}{j} = {c};"
                      for i, row in enumerate(self.coeffs) for j, c in enumerate(row)]
            for i, row in enumerate(self.coeffs):
                lines.append(f"output y{i} = "
                             + " + ".join(f"a{i}{j}*x{j}" for j in range(len(row))) + ";")
        return "\n".join(lines) + "\n"

    def decode(self, raws) -> list[Fraction]:
        """Input values of one vector: raw * 2^-frac_bits."""
        return [Fraction(r, 1 << self.frac_bits) for r in raws]

    def exact(self, values) -> dict[str, Fraction]:
        """Exact outputs for decoded input values, from the coefficient lists."""
        if self.kind == "fir":
            return {"y": sum(Fraction(c) * x for c, x in zip(self.coeffs, values))}
        if self.kind == "horner":
            (x,) = values
            acc = Fraction(self.coeffs[-1])
            for c in reversed(self.coeffs[:-1]):
                acc = Fraction(c) + x * acc
            return {"y": acc}
        return {f"y{i}": sum(Fraction(c) * x for c, x in zip(row, values))
                for i, row in enumerate(self.coeffs)}


def _draw(rng: random.Random, n: int) -> tuple[str, ...]:
    """n decimal literals uniform in [-1, 1] at 3 digits, none zero."""
    out = []
    while len(out) < n:
        c = f"{rng.uniform(-1, 1):.3f}"
        if Fraction(c) != 0:
            out.append(c)
    return tuple(out)


FIR4_COEFFS = ("0.15", "0.05", "0.45", "0.35")  # demos/specs/fir4.fps

SEARCH_SEED = 2013
SIMULATE_SEED = 32
FUZZ_SEED = 2024  # the seed of acceptance criterion 06's fuzz specs


def _search() -> list[Spec]:
    rng = random.Random(SEARCH_SEED)
    cfg = Config(width=16)
    fir5 = _draw(rng, 5)
    horner8 = _draw(rng, 9)
    matvec = (_draw(rng, 3), _draw(rng, 3))
    return [Spec("fir4", "fir", FIR4_COEFFS, 15, cfg, 1000),
            Spec("fir5", "fir", fir5, 15, cfg, 1000),
            Spec("horner8", "horner", horner8, 15, cfg, 1000),
            Spec("matvec2x3", "matvec", matvec, 15, cfg, 1000)]


def _simulate() -> list[Spec]:
    rng = random.Random(SIMULATE_SEED)
    matvec = (_draw(rng, 2), _draw(rng, 2))
    return [Spec("fir4", "fir", FIR4_COEFFS, 15, Config(width=16), 20000),
            Spec("matvec2x2_w32", "matvec", matvec, 31, Config(width=32), 20000)]


def _fuzz12() -> list[Spec]:
    """Acceptance criterion 06's specs and config: 2-8 taps at W=8/16/24/32,
    k_max=1, re-association off, chain allocation on every other spec."""
    rng = random.Random(FUZZ_SEED)
    widths = [8, 16, 24, 32]
    specs = []
    for k, taps in enumerate([2, 3, 4, 5, 6, 7, 8, 3, 5, 2, 6, 8]):
        width = widths[k % 4]
        coeffs = tuple(str(round(rng.uniform(-1.2, 1.2), 3)) for _ in range(taps))
        cfg = Config(width=width, k_max=1, enable_topology_opt=False,
                     enable_chain_alloc=k % 2 == 0)
        specs.append(Spec(f"fuzz{k:02d}_fir{taps}_w{width}", "fir", coeffs,
                          min(width, 16) - 1, cfg, 1000))
    return specs


WORKLOADS = {"search": _search, "simulate": _simulate, "fuzz12": _fuzz12}

# Run once, untimed, before the first pass, so that one-time costs (lazy
# imports, numpy's first calls) do not land in it. It is in no workload.
WARMUP = Spec("warmup", "fir", ("0.5", "-0.25"), 15, Config(width=16), 50)


def build(workload: str) -> list[Spec]:
    return WORKLOADS[workload]()
