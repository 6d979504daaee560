"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not computed.
"""

import itertools
import shutil
import subprocess
import time
from fractions import Fraction

import numpy as np

from fpsynt.analysis import CHAIN_PLAN, GraphTable, PlanBuilder, choose_const_format
from fpsynt.codegen import emit_c
from fpsynt.config import Config
from fpsynt.core import SifFormat, decode, encode, sif_width
from fpsynt.errors import CannotFitError
from fpsynt.optimizer import (combinatorial_search, enumerate_topologies,
                              topological_optimize)
from fpsynt.parser import parse_spec
from fpsynt.pipeline import synthesize
from fpsynt.simulator import compare, generate_vectors, run_fixed_columns

from conftest import (FIR4_SRC, exact_eval, extract_c_expression,
                      interpret_c_expression, make_fir_src)

TWO_TAP_SRC = ("input x0 : sif(1/0/7);\ninput x1 : sif(1/0/7);\n"
               "const w0 = 0.3;\nconst w1 = 0.6;\n"
               "output y = w0*x0 + w1*x1;\n")


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_sif_widths():
    rows = [((1, 0, 15), 16), ((2, 3, 8), 13), ((6, 3, 0), 9)]
    got = [(sif_width(SifFormat(*sif)), want) for sif, want in rows]
    _report(1, "16-bit representation table widths",
            all(g == w for g, w in got), f"{got}")


def test_criterion_02_decode_worked_example():
    value = decode(0b00111101, SifFormat(2, 2, 4))
    _report(2, "two's-complement worked decode",
            value == Fraction(61, 16) and float(value) == 3.8125,
            f"decode=0b00111101 -> {float(value)}")


def test_criterion_03_quantized_constants():
    # the library's one quantizer: encode onto the format choose_const_format
    # picks, at W=26 and W=29 the fraction lengths 25 and 28
    a, b = (encode(v, choose_const_format(v, width))
            for v, width in ((Fraction(15, 100), 26), (Fraction(5, 100), 29)))
    _report(3, "reference C constants", (a, b) == (5033165, 13421773), f"{a}, {b}")


def test_criterion_04_fir4_accuracy():
    start = time.monotonic()
    plan = synthesize(FIR4_SRC)
    vectors = generate_vectors(plan.bindings, 90, seed=1)
    stats = compare(plan, vectors, mode="double")
    elapsed = time.monotonic() - start
    ok = (stats.max <= 2.6e-4
          and 1.3e-5 <= stats.mean <= 2.0e-4
          and stats.count == 93
          and elapsed < 1.0)
    _report(4, "FIR-4 accuracy vs double reference", ok,
            f"max={stats.max:.4e} mean={stats.mean:.4e} n={stats.count} t={elapsed:.2f}s")


def test_criterion_05_bound_soundness():
    start = time.monotonic()
    worst_ratio = 0.0

    plan = synthesize(FIR4_SRC)
    dfg, bindings = parse_spec(FIR4_SRC)
    fmts = {n: bindings.input_format(n) for n in bindings.inputs}
    vectors = generate_vectors(plan.bindings, 10_000, seed=5)
    grid = plan.info["y"].signal.grid
    raws = run_fixed_columns(plan, vectors.raws)["y"].tolist()
    sound = True
    for vec, raw in zip(vectors.vectors, raws, strict=True):
        fixed = raw * grid
        values = {n: decode(r, fmts[n]) for n, r in zip(bindings.inputs, vec.raws)}
        exact = exact_eval(dfg, bindings, values)["y"]
        dev = abs(fixed - exact)
        sound = sound and dev <= plan.cost
        worst_ratio = max(worst_ratio, float(dev / plan.cost))

    plan2 = synthesize(TWO_TAP_SRC, Config(width=8))
    dfg2, bindings2 = parse_spec(TWO_TAP_SRC)
    fmt = SifFormat(1, 0, 7)
    every = range(fmt.min_raw, fmt.max_raw + 1)
    grid2 = plan2.info["y"].signal.grid
    raws2 = run_fixed_columns(plan2, np.array(list(itertools.product(every, every))))["y"]
    for (a, b), raw in zip(itertools.product(every, every), raws2.tolist(), strict=True):
        fixed = raw * grid2
        exact = exact_eval(dfg2, bindings2,
                           {"x0": decode(a, fmt), "x1": decode(b, fmt)})["y"]
        sound = sound and abs(fixed - exact) <= plan2.cost

    elapsed = time.monotonic() - start
    _report(5, "predicted bound dominates every observation",
            sound and elapsed < 30.0,
            f"worst observed/bound={worst_ratio:.3f} t={elapsed:.1f}s")


def _fuzz_specs():
    """12 FIR specs spanning 2..8 taps and widths 8..32, seeded coefficients."""
    import random
    rng = random.Random(2024)
    specs = []
    widths = [8, 16, 24, 32]
    for k, taps in enumerate([2, 3, 4, 5, 6, 7, 8, 3, 5, 2, 6, 8]):
        width = widths[k % 4]
        f_in = min(width, 16) - 1
        coeffs = [round(rng.uniform(-1.2, 1.2), 3) for _ in range(taps)]
        specs.append((make_fir_src(coeffs, sif=(1, 0, f_in)), width))
    return specs


def test_criterion_06_overflow_freedom_fuzz():
    # this criterion hammers the simulator's range checks, so the plans only
    # need to be valid, not optimal: re-association search stays off and the
    # chain allocator alternates to cover both datapath styles
    start = time.monotonic()
    specs = _fuzz_specs()
    per_spec = 1_000_000 // len(specs) + 1
    total = 0
    for seed, (src, width) in enumerate(specs):
        cfg = Config(width=width, k_max=1, enable_topology_opt=False,
                     enable_chain_alloc=seed % 2 == 0)
        plan = synthesize(src, cfg)
        vectors = generate_vectors(plan.bindings, per_spec, seed=seed)
        # InternalOverflowError would propagate
        total += len(run_fixed_columns(plan, vectors.raws)["y"])
    elapsed = time.monotonic() - start
    _report(6, "no internal overflow over fuzzed specs",
            total >= 1_000_000 and elapsed < 60.0,
            f"{len(specs)} specs, {total} vectors, t={elapsed:.1f}s")


def test_criterion_07_search_oracle_equivalence():
    start = time.monotonic()
    cfg = Config(width=8, k_max=2)
    lines = ["output y = (a + b) + c;", "output y = a + (b + c);",
             "output y = (a * b) * c;", "output y = a * (b * c);",
             "output y = (a + b) * c;", "output y = a * (b + c);",
             "output y = (a * b) + c;", "output y = a + (b * c);",
             "output y = (a - b) + c;", "output y = (a - b) * c;"]
    ok = True
    for line in lines:
        src = "".join(f"input {n} : sif(1/0/7);\n" for n in "abc") + line + "\n"
        dfg, bindings = parse_spec(src)
        table = GraphTable(dfg, bindings, cfg)
        builder = PlanBuilder(table, ("source", dfg))
        points = builder.choice_points
        best = None
        for combo in itertools.product(range(cfg.k_max + 1), repeat=len(points)):
            try:
                cost = builder.build(dict(zip(points, combo))).cost
            except CannotFitError:
                continue
            best = cost if best is None or cost < best else best
        searched = combinatorial_search(table, ("source", dfg)).cost
        unpruned = combinatorial_search(table, ("source", dfg), prune=False).cost
        ok = ok and searched == best == unpruned
    elapsed = time.monotonic() - start
    _report(7, "search equals exhaustive enumeration", ok and elapsed < 10.0,
            f"{len(lines)} graphs, t={elapsed:.1f}s")


def test_criterion_08_topology_argmin():
    src = ("".join(f"input x{k} : sif(1/0/7);\n" for k in range(4))
           + "output y = x0 + x1 + x2 + x3;\n")
    cfg = Config(width=8, enable_chain_alloc=False)
    dfg, bindings = parse_spec(src)
    topos = enumerate_topologies(dfg)
    best = topological_optimize(dfg, bindings, cfg)
    table = GraphTable(dfg, bindings, cfg)
    shape_costs = [combinatorial_search(table, t).cost for t in topos]
    ok = len(topos) == 5 and all(best.cost <= c for c in shape_costs)
    _report(8, "re-association argmin over all five shapes", ok,
            f"shapes={len(topos)} best={float(best.cost):.3e} "
            f"baseline={float(shape_costs[0]):.3e}")


def test_criterion_09_chain_allocation_dominates():
    src = ("".join(f"input x{k} : sif(1/0/15);\n" for k in range(8))
           + "output y = " + " + ".join(f"x{k}" for k in range(8)) + ";\n")
    cfg = Config(width=16)
    dfg, bindings = parse_spec(src)
    table = GraphTable(dfg, bindings, cfg)
    chain_plan = combinatorial_search(table, CHAIN_PLAN)
    pairwise = combinatorial_search(table, ("source", dfg))
    (acc,) = chain_plan.accumulators
    ok = acc.width == 19 and chain_plan.cost <= pairwise.cost
    _report(9, "wide accumulator beats pairwise pre-scaling", ok,
            f"acc={acc.width}b chain={float(chain_plan.cost):.3e} "
            f"pairwise={float(pairwise.cost):.3e}")


def test_criterion_10_c_differential(tmp_path):
    start = time.monotonic()
    plan = synthesize(TWO_TAP_SRC, Config(width=8))
    art = emit_c(plan, "twotap")
    cc = shutil.which("cc") or shutil.which("gcc")
    mode = "compiled" if cc else "interpreted"
    if cc:
        (tmp_path / "dut.c").write_text(art.source)
        (tmp_path / "main.c").write_text("""
#include <stdint.h>
#include <stdio.h>
extern int32_t fps_y(int32_t, int32_t);
int main(void) {
    int a, b;
    for (a = -128; a <= 127; a++)
        for (b = -128; b <= 127; b++)
            printf("%d\\n", (int)fps_y((int32_t)a, (int32_t)b));
    return 0;
}
""")
        exe = tmp_path / "dut"
        subprocess.run([cc, "-O1", "-o", str(exe), str(tmp_path / "dut.c"),
                        str(tmp_path / "main.c")], check=True)
        lines = subprocess.run([str(exe)], capture_output=True, text=True,
                               check=True).stdout.split()
        outputs = iter(int(x) for x in lines)

        def c_value(a, b):
            return next(outputs)
    else:
        expr = extract_c_expression(art.source, "fps_y")

        def c_value(a, b):
            return interpret_c_expression(expr, {"x0": a, "x1": b})

    pairs = list(itertools.product(range(-128, 128), repeat=2))
    sim = run_fixed_columns(plan, np.array(pairs))["y"].tolist()
    ok = True
    cases = 0
    for (a, b), raw in zip(pairs, sim, strict=True):
        ok = ok and c_value(a, b) == raw
        cases += 1
    elapsed = time.monotonic() - start
    _report(10, "emitted C equals simulator bit-for-bit",
            ok and cases == 65536 and elapsed < 30.0,
            f"{mode}, {cases} cases, t={elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    from fpsynt.cli import main
    spec = tmp_path / "fir4.fps"
    spec.write_text(FIR4_SRC)
    outs = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        assert main(["synth", str(spec), "-o", str(outdir)]) == 0
        outs.append({name: (outdir / name).read_bytes()
                     for name in ("fir4.fps.c", "fir4.fps.vhd", "report.json")})
    _report(11, "byte-identical artifacts across reruns", outs[0] == outs[1])
