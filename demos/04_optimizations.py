"""The three optimization passes, measured on small examples.

* combinatorial search explores extra truncation/pre-scale choices per node;
* topology enumeration re-associates addition chains (Catalan shapes) and
  picks the one with the smallest predicted bound;
* chain allocation replaces pairwise pre-scaling with one widened
  accumulator and a single final truncation.
"""

from fpsynt import (CHAIN_PLAN, Config, GraphTable, combinatorial_search,
                    enumerate_topologies, parse_spec, topological_optimize)

# a sum with one dominant operand: grouping the small terms first wins
skewed = ("input x0 : sif(1/3/4);\n"
          "input x1 : sif(1/0/7);\ninput x2 : sif(1/0/7);\ninput x3 : sif(1/0/7);\n"
          "output y = x0 + x1 + x2 + x3;\n")
cfg = Config(width=8, enable_chain_alloc=False)
dfg, bindings = parse_spec(skewed)

print("per-topology predicted bounds (4-term sum, one wide operand, W=8):")
table = GraphTable(dfg, bindings, cfg)
for label, topo in enumerate_topologies(dfg):
    plan = combinatorial_search(table, (label, topo))
    print(f"  {label:12s} bound={float(plan.cost):.4e}")
best = topological_optimize(dfg, bindings, cfg)
print(f"argmin: {best.topology} at {float(best.cost):.4e}\n")

# an 8-term sum at W=16: the widened accumulator avoids three rounds of
# pairwise pre-scaling
sum8 = ("".join(f"input x{k} : sif(1/0/15);\n" for k in range(8))
        + "output y = " + " + ".join(f"x{k}" for k in range(8)) + ";\n")
dfg8, bindings8 = parse_spec(sum8)
cfg16 = Config(width=16)
table8 = GraphTable(dfg8, bindings8, cfg16)
pairwise = combinatorial_search(table8, ("source", dfg8))
chained = combinatorial_search(table8, CHAIN_PLAN)
acc = chained.accumulators[0]
print(f"8-term sum at W=16:")
print(f"  pairwise pre-scaling bound: {float(pairwise.cost):.4e}")
print(f"  {acc.width}-bit accumulator bound: {float(chained.cost):.4e}")
