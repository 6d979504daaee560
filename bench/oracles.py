"""Correctness oracles for one spec's flow output.

Each check returns a list of problems; an empty list means it passed. None
of them uses fpsynt's own evaluation paths to produce the expected values:
exact outputs come from ``Spec.exact``, output raws are decoded with the
format the report declares, and the emitted C is compiled and run.
"""

from __future__ import annotations

import subprocess
from fractions import Fraction
from pathlib import Path

from workloads import Spec


def _scaled(raw: int, exponent: int) -> Fraction:
    return Fraction(raw << exponent) if exponent >= 0 else Fraction(raw, 1 << -exponent)


def check_soundness(spec: Spec, report: dict, bounds: dict[str, Fraction],
                    vectors, raws: list[tuple[int, ...]]) -> list[str]:
    """|fixed - exact| <= predicted bound, for every vector and output.

    ``raws`` holds one tuple of output raws per vector, in the order of
    ``spec.output_names``; ``bounds`` maps each output to its exact bound.
    """
    outputs = spec.output_names
    if tuple(report["outputs"]) != outputs:
        return [f"{spec.name}: outputs {report['outputs']} != {list(outputs)}"]
    if tuple(vectors.inputs) != spec.input_names:
        return [f"{spec.name}: inputs {list(vectors.inputs)} != {list(spec.input_names)}"]
    nodes = {rec["name"]: rec for rec in report["nodes"]}
    exps = [nodes[o]["scale"] - nodes[o]["sif"]["f"] for o in outputs]
    problems = []
    for k, (vec, row) in enumerate(zip(vectors.vectors, raws, strict=True)):
        exact = spec.exact(spec.decode(vec.raws))
        for o, raw, e in zip(outputs, row, exps):
            dev = abs(_scaled(raw, e) - exact[o])
            if dev > bounds[o]:
                problems.append(f"{spec.name}: vector {k} output {o}: |fixed - exact| = "
                                f"{float(dev):.6e} > bound {float(bounds[o]):.6e}")
                if len(problems) >= 5:
                    return problems
    return problems


def _harness(spec: Spec) -> str:
    n = len(spec.input_names)
    args = ", ".join(f"x[{k}]" for k in range(n))
    fmt = " ".join("%lld" for _ in spec.output_names)
    calls = ", ".join(f"(long long)fps_{o}({args})" for o in spec.output_names)
    return (f"\n#include <stdio.h>\n"
            f"int main(void) {{\n"
            f"    long long x[{n}];\n"
            f"    for (;;) {{\n"
            f"        for (int k = 0; k < {n}; k++)\n"
            f"            if (scanf(\"%lld\", &x[k]) != 1) return 0;\n"
            f"        printf(\"{fmt}\\n\", {calls});\n"
            f"    }}\n"
            f"}}\n")


def check_c(spec: Spec, c_source: str, vectors, raws: list[tuple[int, ...]],
            workdir: Path) -> list[str]:
    """Compile the emitted C with ``cc`` and require its outputs to equal
    ``raws`` bit for bit on every vector."""
    src = workdir / f"{spec.name}.c"
    exe = workdir / spec.name
    src.write_text(c_source + _harness(spec))
    built = subprocess.run(["cc", "-O1", "-std=c99", "-o", str(exe), str(src)],
                           capture_output=True, text=True, timeout=120)
    if built.returncode != 0:
        return [f"{spec.name}: emitted C does not compile: {built.stderr.strip()[:500]}"]
    stdin = "".join(" ".join(map(str, v.raws)) + "\n" for v in vectors.vectors)
    ran = subprocess.run([str(exe)], input=stdin, capture_output=True, text=True,
                         timeout=120)
    if ran.returncode != 0:
        return [f"{spec.name}: compiled C exited with {ran.returncode}"]
    got = [tuple(int(t) for t in line.split()) for line in ran.stdout.splitlines()]
    if len(got) != len(raws):
        return [f"{spec.name}: compiled C gave {len(got)} rows for {len(raws)} vectors"]
    problems = []
    for k, (c_row, row) in enumerate(zip(got, raws)):
        if c_row != tuple(row):
            problems.append(f"{spec.name}: vector {k}: C gives {c_row}, run_fixed gives {row}")
            if len(problems) >= 5:
                break
    return problems


def check_not_worse(spec: Spec, optimized: Fraction, unoptimized: Fraction) -> list[str]:
    """The optimized bound must not exceed the bound with every optimisation off."""
    if optimized > unoptimized:
        return [f"{spec.name}: optimized bound {float(optimized):.6e} > "
                f"unoptimized {float(unoptimized):.6e}"]
    return []


def check_identical(spec: Spec, reference: dict, current: dict) -> list[str]:
    """Artifacts, vectors and statistics of a later pass equal the first pass's."""
    return [f"{spec.name}: {key} differs from the first pass"
            for key in reference if current[key] != reference[key]]
