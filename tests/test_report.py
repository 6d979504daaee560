"""report.json: the direct writer against ``json.dumps`` of the report dict."""

import dataclasses
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

from fpsynt.config import Config
from fpsynt.core import Dfg, NodeKind
from fpsynt.errors import CannotFitError
from fpsynt.pipeline import synthesize
from fpsynt.report import build_report, report_json

import test_golden
from conftest import make_fir_src

ROOT = Path(__file__).resolve().parents[1]


@dataclasses.dataclass(frozen=True)
class _Stats:
    """Reads as an ``ErrorStats`` to the report, which only calls ``as_dict``."""

    min: float
    max: float
    mean: float
    median: float
    count: int

    def as_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "mean": self.mean,
                "median": self.median, "count": self.count}


def _reference(plan, stats=None) -> str:
    return json.dumps(build_report(plan, stats), indent=2, sort_keys=True) + "\n"


def _benchmark_specs() -> list:
    """The benchmark's specs, from its own ``workloads`` module, loaded
    under a name of its own (dataclasses look a module up by name)."""
    spec = importlib.util.spec_from_file_location("_bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(workloads)
        return [(s.source, s.config) for name in workloads.WORKLOADS
                for s in workloads.build(name)]
    finally:
        del sys.modules[spec.name]


def _random_spec(rng: random.Random) -> str:
    """2-5 inputs of mixed formats, 1-4 constants (negative, tiny, past 1,
    powers of two), and 1-2 outputs of sums, differences and products."""
    inputs = [f"x{k}" for k in range(rng.randint(2, 5))]
    consts = [f"c{k}" for k in range(rng.randint(1, 4))]
    lines = [f"input {x} : sif(1/{rng.randint(0, 3)}/{rng.randint(2, 12)});" for x in inputs]
    for c in consts:
        value = rng.choice([f"{rng.uniform(-1.9, 1.9):.3f}", f"-{rng.randint(1, 9)}e-5", "0.5",
                            "-0.25", f"{rng.randint(1, 3)}.75", "0.1"])
        lines.append(f"const {c} = {value};")
    for k in range(rng.randint(1, 2)):
        terms = []
        for _ in range(rng.randint(2, 5)):
            term = rng.choice(inputs)
            if rng.random() < 0.7:
                term = f"{rng.choice(consts)}*{term}"
            terms.append(term)
        expr = terms[0] + "".join(f" {rng.choice('+-')} {t}" for t in terms[1:])
        lines.append(f"output y{k} = {expr};")
    return "\n".join(lines) + "\n"


def _random_stats(rng: random.Random):
    if rng.random() < 0.3:
        return None
    values = sorted(rng.choice([0.0, 5e-324, 1e-300, rng.random(), rng.uniform(0, 1e-6)])
                    for _ in range(3))
    return _Stats(values[0], values[2], (values[0] + values[2]) / 2, values[1],
                  rng.randint(1, 20003))


@pytest.mark.parametrize("name", sorted(test_golden.GOLDEN))
def test_report_json_is_json_dumps_on_the_golden_specs(name):
    src, cfg = test_golden.GOLDEN[name][:2]
    plan = synthesize(src, cfg)
    assert report_json(plan) == _reference(plan)
    stats = _Stats(0.0, 1.5e-06, 4.2e-07, 3.0517578125e-05, 1003)
    assert report_json(plan, stats) == _reference(plan, stats)


def test_report_json_is_json_dumps_on_the_benchmark_specs():
    specs = _benchmark_specs()
    assert len(specs) == 18
    for src, cfg in specs:
        plan = synthesize(src, cfg)
        assert report_json(plan) == _reference(plan)


def test_report_json_is_json_dumps_on_random_plans():
    """200 random plans, with and without stats, hold SHR labels in their
    operands, CONST raws and chain accumulators among them."""
    rng = random.Random(2033)
    seen = {"shr": 0, "const": 0, "accumulator": 0, "stats": 0}
    plans = 0
    while plans < 200:
        cfg = Config(width=rng.choice([8, 12, 16, 24, 32]), k_max=rng.randint(0, 2),
                     enable_topology_opt=rng.random() < 0.5,
                     enable_chain_alloc=rng.random() < 0.7)
        try:
            plan = synthesize(_random_spec(rng), cfg)
        except CannotFitError:
            continue
        stats = _random_stats(rng)
        assert report_json(plan, stats) == _reference(plan, stats)
        plans += 1
        kinds = {n.kind for n in plan.graph.nodes}
        seen["shr"] += NodeKind.SHR in kinds
        seen["const"] += NodeKind.CONST in kinds
        seen["accumulator"] += bool(plan.accumulators)
        seen["stats"] += stats is not None
    assert min(seen.values()) >= 20, seen


def test_report_json_strings_are_escaped_as_json_does():
    """Node ids reach the report verbatim; a hand-built name with quotes,
    a backslash and a non-ASCII letter is escaped as ``json.dumps`` does."""
    plan = synthesize(make_fir_src(["0.5", "-0.25"]), Config(width=16))
    graph = plan.graph
    renamed = {"x0": 'x"0\\é', "w1": "w\t1"}
    nodes = tuple(dataclasses.replace(n, id=renamed.get(n.id, n.id),
                                      operands=tuple(renamed.get(o, o) for o in n.operands))
                  for n in graph.nodes)
    info = {renamed.get(k, k): v for k, v in plan.info.items()}
    raws = {renamed.get(k, k): v for k, v in plan.const_raws.items()}
    odd = dataclasses.replace(plan, graph=Dfg(nodes), info=info, const_raws=raws)
    assert report_json(odd) == _reference(odd)
    assert '"x\\"0\\\\\\u00e9"' in report_json(odd)
