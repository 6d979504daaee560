"""Tests of the benchmark itself: its specs parse, its oracles reject
corrupted results, and its printed result carries every metric that
BENCHMARK.json names.

    python3 -m pytest bench
"""

import json
import math
import shutil
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from fpsynt import (emit_c, generate_vectors, parse_spec, report_json,  # noqa: E402
                    run_fixed, synthesize, validate_formats)

ALL_SPECS = [(w, s) for w in workloads.WORKLOADS for s in workloads.build(w)]
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _fir4(vectors=20):
    return replace(workloads.build("search")[0], vectors=vectors)


@pytest.mark.parametrize("workload,spec", ALL_SPECS, ids=[f"{w}-{s.name}" for w, s in ALL_SPECS])
def test_generated_specs_parse(workload, spec):
    dfg, bindings = parse_spec(spec.source)
    assert tuple(bindings.inputs) == spec.input_names
    assert tuple(dfg.output_ids) == spec.output_names
    assert not [d for d in validate_formats(bindings, spec.config.width)
                if d.kind in ("invalid", "cannot-fit")]


def test_fir4_is_the_demo_spec():
    demo = (ROOT / "demos" / "specs" / "fir4.fps").read_text()
    assert parse_spec(workloads.build("search")[0].source) == parse_spec(demo)


def test_exact_evaluators():
    fir4 = _fir4()
    assert fir4.exact(fir4.decode([1 << 14, 0, 0, 0])) == {"y": Fraction(15, 200)}
    horner = workloads.build("search")[2]
    x = Fraction(1, 2)
    want = sum(Fraction(c) * x ** k for k, c in enumerate(horner.coeffs))
    assert horner.exact([x]) == {"y": want}
    matvec = workloads.build("search")[3]
    got = matvec.exact([Fraction(1), Fraction(0), Fraction(0)])
    assert got == {"y0": Fraction(matvec.coeffs[0][0]), "y1": Fraction(matvec.coeffs[1][0])}


@pytest.fixture(scope="module")
def fir4_flow():
    spec = _fir4()
    plan = synthesize(spec.source, spec.config)
    vectors = generate_vectors(plan.bindings, spec.vectors, seed=3)
    raws = [(run_fixed(plan, v)["y"][0],) for v in vectors.vectors]
    report = json.loads(report_json(plan))
    return spec, plan, vectors, raws, report


def test_soundness_oracle_rejects_a_raw_off_by_more_than_the_bound(fir4_flow):
    spec, plan, vectors, raws, report = fir4_flow
    bounds = {"y": plan.info["y"].err}
    assert oracles.check_soundness(spec, report, bounds, vectors, raws) == []
    (out,) = [n for n in report["nodes"] if n["name"] == "y"]
    lsb = Fraction(2) ** (out["scale"] - out["sif"]["f"])
    off = math.ceil(2 * bounds["y"] / lsb) + 1
    bad = list(raws)
    bad[7] = (raws[7][0] + off,)
    problems = oracles.check_soundness(spec, report, bounds, vectors, bad)
    assert len(problems) == 1 and "vector 7" in problems[0]


@needs_cc
def test_c_oracle_rejects_an_output_one_lsb_off(fir4_flow, tmp_path):
    spec, plan, vectors, raws, _ = fir4_flow
    c = emit_c(plan, name=spec.name).source
    assert oracles.check_c(spec, c, vectors, raws, tmp_path) == []
    corrupted = c.replace("return (", "return 1 + (", 1)
    assert corrupted != c
    problems = oracles.check_c(spec, corrupted, vectors, raws, tmp_path)
    assert problems and "vector 0" in problems[0]


def test_bound_and_identity_oracles_reject_changes():
    spec = _fir4()
    assert oracles.check_not_worse(spec, Fraction(1, 4), Fraction(1, 2)) == []
    assert oracles.check_not_worse(spec, Fraction(1, 2), Fraction(1, 4))
    first = {"c": "int32_t y;", "report": "{}"}
    assert oracles.check_identical(spec, first, dict(first)) == []
    assert oracles.check_identical(spec, first, {"c": "int32_t y; ", "report": "{}"})


def test_speedometer_scales_by_the_chunks_sampled_in_the_interval():
    meter = speed.Speedometer()
    meter.times = [float(t) for t in range(20)]
    meter.chunks = [speed.REF_CHUNK_S * 2] * 10 + [speed.REF_CHUNK_S / 2] * 10
    a, b = (0.0, 0.0), (9.0, 0.5)
    assert meter.elapsed(a, b) == 8.5
    assert meter.seconds(a, b) == pytest.approx(4.25)
    assert meter.seconds((10.0, 0.5), (19.0, 0.5)) == pytest.approx(18.0)
    # too few samples inside: the MIN_SAMPLES nearest to the middle count
    assert meter.factor((2.0, 0.0), (2.0, 0.0)) == pytest.approx(0.5)


def test_speedometer_samples_while_armed():
    meter = speed.Speedometer()
    meter.start()
    try:
        a = meter.mark()
        while speed.clock() - a[0] < 0.3:
            sum(range(1000))
        b = meter.mark()
    finally:
        meter.stop()
    assert len(meter.chunks) >= speed.MIN_SAMPLES
    assert all(c > 0 for c in meter.chunks)
    assert 0 < b[1] - a[1] < meter.elapsed(a, b)


@needs_cc
@pytest.mark.parametrize("trace", [0, 1])
def test_result_carries_every_benchmark_metric(trace, monkeypatch, tmp_path, capsys):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = declared["per_layer" if trace else "end_to_end"]
    tiny = _fir4(vectors=5)
    monkeypatch.setitem(workloads.WORKLOADS, "search", lambda: [tiny])
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "search", "--seed", "0", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + trace
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
