"""Bit-accurate simulation against the floating-point reference.

Mirrors the verification flow of `fpsynt simulate`: 90 uniform random
vectors plus the three canonical ones (all-zero, all-min, all-max), the
fixed-point datapath executed exactly, deviations aggregated into
min/max/mean/median, and every deviation checked against the predicted
worst-case bound.
"""

from pathlib import Path

from fpsynt import (compare, generate_vectors, run_fixed_columns, run_reference_columns,
                    synthesize)

src = (Path(__file__).parent / "specs" / "fir4.fps").read_text()
plan = synthesize(src)
vectors = generate_vectors(plan.bindings, 90, seed=1)

stats = compare(plan, vectors, mode="double")
print("fixed-point vs double reference over 93 vectors:")
for key, value in stats.as_dict().items():
    print(f"  {key:7s} {value}")
print(f"\npredicted worst-case bound: {float(plan.cost):.4e}")

# every vector at once: output raws, and the exact reference as Fractions
fixed = run_fixed_columns(plan, vectors.raws)["y"]
exact = run_reference_columns(plan, vectors.raws, "exact")["y"]
grid = plan.info["y"].signal.grid
worst = max(abs(raw * grid - ref) for raw, ref in zip(fixed.tolist(), exact))
print(f"largest exact deviation:    {float(worst):.4e} "
      f"({float(worst / plan.cost):.0%} of the bound)")
assert worst <= plan.cost
