"""fpsynt benchmark: compile time, simulation rate and datapath quality.

    python3 bench/run.py --workload search|simulate|fuzz12 --seed N --seconds S --trace 0|1

Run from the root of a checkout; fpsynt is imported from ``src/``. Each
pass runs the ``fpsynt simulate`` flow once per spec of the workload,
through the public API: synthesize -> emit_c + emit_vhdl -> report_json ->
generate_vectors -> compare. One spec's flow in one pass is one operation.
Passes repeat until ``--seconds`` have elapsed; every run makes at least one
whole pass (two with ``--trace 1``: one untraced, one traced).

After each pass, outside the timed region, every operation is checked (see
oracles.py): the first pass against the exact values, the compiled C and
the unoptimized bound, later passes for byte-identical artifacts. An
operation that raises or fails a check counts as failed; a failed check
also makes ``correct`` false. Metrics come from the passes in which no
operation raised.

With ``--trace 0`` the end-to-end metrics are printed, each the median
over passes. Their times are CPU seconds of the thread that runs the flow,
scaled to a reference machine speed that is sampled all through the run
(see speed.py). With ``--trace 1`` passes alternate untraced and traced,
and the per-layer metrics of the traced passes are printed in CPU seconds
(without the sampling, not scaled), together with the ratio of the scaled
flow times of traced and untraced passes. The last line of stdout is one
JSON object; result and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path[:0] = [str(BENCH), str(SRC)]
# fpsynt makes no BLAS calls; one BLAS thread keeps numpy from starting
# idle workers that would share the machine with the measured thread.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
try:
    import fpsynt
    from fpsynt import simulator
except ImportError as e:
    sys.exit(f"bench: cannot import fpsynt from {SRC}: {e}")
if Path(fpsynt.__file__).resolve().parent != SRC / "fpsynt":
    sys.exit(f"bench: imported fpsynt from {fpsynt.__file__}, not from {SRC}")

import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

# Timings are CPU seconds of the thread that runs the flow (speed.clock). On
# a shared VM the host takes the vCPU away for a varying share of wall time
# (steal time, 10-20% over minutes on a shared 2-vCPU VM), which wall-clock
# timings include and CPU time does not. The flow is single-threaded and
# does no I/O, so on an unshared machine the two agree.

SETUP_PROBES = 8  # before the passes, and as many again after them
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "workloads.build(sys.argv[3]); print(repr(time.thread_time()), flush=True)")

END_TO_END = {
    "setup_s": "s",
    "flow_s": "s",
    "synth_s": "s",
    "sim_vectors_per_s": "vectors/s",
    "bound_bits": "bits",
    "datapath_bits": "bits",
    "datapath_ops": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "parser.parse_s": "s",
    "parser.validate_s": "s",
    "parser.source_nodes": "count",
    "optimizer.enumerate_s": "s",
    "optimizer.topologies": "count",
    "optimizer.search_s": "s",
    "optimizer.searches": "count",
    "optimizer.chain_s": "s",
    "analysis.steps": "count",
    "analysis.step_s": "s",
    "analysis.step_fail_ratio": "ratio",
    "analysis.plans_finished": "count",
    "analysis.finish_s": "s",
    "analysis.check_s": "s",
    "pipeline.synthesize_s": "s",
    "codegen.emit_c_s": "s",
    "codegen.c_bytes": "bytes",
    "codegen.emit_vhdl_s": "s",
    "codegen.vhdl_bytes": "bytes",
    "report.json_s": "s",
    "report.json_bytes": "bytes",
    "simulator.generate_us": "us/vector",
    "simulator.compare_us": "us/vector",
    "simulator.run_fixed_us": "us/vector",
    "simulator.run_reference_us": "us/vector",
    "simulator.vectors": "count",
    "trace.flow_ratio": "ratio",
}

DATAPATH_KINDS = ("mul", "add", "shr", "trunc")


def probe_setup(workload: str) -> list[float]:
    """CPU time of each of SETUP_PROBES fresh processes' main thread from its
    start to ready (fpsynt imported, specs built). It is not scaled to the
    reference speed: set-up is mostly loading modules, which does not follow
    the calibration chunk's speed."""
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run([sys.executable, "-c", PROBE, str(BENCH), str(SRC), workload],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode != 0:
            raise RuntimeError(f"setup probe exited with {probe.returncode}: {probe.stderr}")
        times.append(float(probe.stdout))
    return times


def run_op(spec, seed: int, meter: speed.Speedometer) -> dict:
    """One spec's flow, as ``fpsynt simulate`` runs it, with a mark between
    stages: synthesize, emit (C, VHDL, report), simulate."""
    m0 = meter.mark()
    plan = fpsynt.synthesize(spec.source, spec.config)
    m1 = meter.mark()
    c = fpsynt.emit_c(plan, name=spec.name).source
    vhdl = fpsynt.emit_vhdl(plan, name=spec.name).source
    report = fpsynt.report_json(plan)
    m2 = meter.mark()
    vectors = fpsynt.generate_vectors(plan.bindings, spec.vectors, seed, plan.config.quantize)
    stats = fpsynt.compare(plan, vectors, mode="double")
    m3 = meter.mark()
    return {"plan": plan, "c": c, "vhdl": vhdl, "report": report, "vectors": vectors,
            "stats": stats, "marks": (m0, m1, m2, m3)}


def full_check(spec, op: dict, workdir: Path) -> list[str]:
    """Exact soundness, compiled-C equality and optimized <= unoptimized."""
    plan = op["plan"]
    if tuple(plan.output_ids) != spec.output_names:
        return [f"{spec.name}: outputs {plan.output_ids} != {spec.output_names}"]
    vectors = op["vectors"]
    raws = []
    for vec in vectors.vectors:
        fixed = simulator.run_fixed(plan, vec)
        raws.append(tuple(fixed[o][0] for o in spec.output_names))
    bounds = {o: plan.info[o].err for o in spec.output_names}
    problems = oracles.check_soundness(spec, json.loads(op["report"]), bounds, vectors, raws)
    problems += oracles.check_c(spec, op["c"], vectors, raws, workdir)
    unoptimized = fpsynt.synthesize(spec.source, replace(
        spec.config, k_max=0, enable_topology_opt=False, enable_chain_alloc=False))
    problems += oracles.check_not_worse(spec, plan.cost, unoptimized.cost)
    return problems


def pass_metrics(ops: list[dict], seconds) -> dict[str, float]:
    """The end-to-end metrics of one pass; ``seconds(a, b)`` is the time
    from mark ``a`` to mark ``b``."""
    reports = [json.loads(op["report"]) for op in ops]
    nodes = [node for r in reports for node in r["nodes"]]
    vectors = sum(len(op["vectors"]) for op in ops)
    marks = [op["marks"] for op in ops]
    return {
        "flow_s": sum(seconds(m[0], m[3]) for m in marks),
        "synth_s": sum(seconds(m[0], m[1]) for m in marks),
        "sim_vectors_per_s": vectors / sum(seconds(m[2], m[3]) for m in marks),
        "bound_bits": statistics.fmean(-math.log2(r["predicted_bound"]) for r in reports),
        "datapath_bits": sum(node["width"] for node in nodes),
        "datapath_ops": sum(node["kind"] in DATAPATH_KINDS for node in nodes),
    }


def layer_metrics(tracer, ops: list[dict]) -> dict[str, float]:
    vectors = sum(len(op["vectors"]) for op in ops)
    steps = tracer.calls("analysis.step")
    per_vector = 1e6 / vectors
    return {
        "parser.parse_s": tracer.self_s("parser.parse"),
        "parser.validate_s": tracer.self_s("parser.validate"),
        "parser.source_nodes": tracer.counts.get("parser.source_nodes", 0),
        "optimizer.enumerate_s": tracer.self_s("optimizer.enumerate"),
        "optimizer.topologies": tracer.counts.get("optimizer.topologies", 0),
        "optimizer.search_s": tracer.self_s("optimizer.search"),
        "optimizer.searches": tracer.calls("optimizer.search"),
        "optimizer.chain_s": tracer.self_s("optimizer.chain"),
        "analysis.steps": steps,
        "analysis.step_s": tracer.self_s("analysis.step"),
        "analysis.step_fail_ratio": tracer.fails("analysis.step") / steps if steps else 0.0,
        "analysis.plans_finished": tracer.calls("analysis.finish"),
        "analysis.finish_s": tracer.self_s("analysis.finish"),
        "analysis.check_s": tracer.self_s("analysis.check"),
        "pipeline.synthesize_s": tracer.self_s("pipeline.synthesize"),
        "codegen.emit_c_s": tracer.self_s("codegen.emit_c"),
        "codegen.c_bytes": sum(len(op["c"].encode()) for op in ops),
        "codegen.emit_vhdl_s": tracer.self_s("codegen.emit_vhdl"),
        "codegen.vhdl_bytes": sum(len(op["vhdl"].encode()) for op in ops),
        "report.json_s": tracer.self_s("report.json"),
        "report.json_bytes": sum(len(op["report"].encode()) for op in ops),
        "simulator.generate_us": tracer.self_s("simulator.generate") * per_vector,
        "simulator.compare_us": tracer.self_s("simulator.compare") * per_vector,
        "simulator.run_fixed_us": tracer.self_s("simulator.run_fixed") * per_vector,
        "simulator.run_reference_us": tracer.self_s("simulator.run_reference") * per_vector,
        "simulator.vectors": vectors,
    }


def run(specs, seed: int, seconds: float, workdir: Path, tracer: Tracer | None = None) -> dict:
    """Run whole passes over ``specs`` for ``seconds``; with a tracer, every
    second pass is traced. Returns the result object with the medians in
    ``values`` (``setup_s`` is the caller's)."""
    trace = tracer is not None
    meter = speed.Speedometer()
    if trace:
        tracer.clock = meter.net_clock
    warm = fpsynt.synthesize(workloads.WARMUP.source, workloads.WARMUP.config)
    fpsynt.compare(warm, fpsynt.generate_vectors(warm.bindings, workloads.WARMUP.vectors, seed,
                                                 warm.config.quantize))
    references: list[dict | None] = [None] * len(specs)
    untraced: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    correct = True
    start = time.perf_counter()
    n_pass = 0
    while True:
        tracing = trace and n_pass % 2 == 1
        if tracing:
            tracer.reset_totals()
            tracer.install()
        meter.start()
        ops: list[dict | None] = []
        try:
            for i, spec in enumerate(specs):
                attempted += 1
                try:
                    ops.append(run_op(spec, seed * 100 + i, meter))
                except Exception:
                    traceback.print_exc()
                    failed += 1
                    ops.append(None)
        finally:
            meter.stop()
            if tracing:
                tracer.uninstall()
        if n_pass == 0:
            # before the oracles first run: their own memory is not the flow's
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for i, (spec, op) in enumerate(zip(specs, ops)):
            if op is None:
                continue
            current = {key: op[key] for key in ("c", "vhdl", "report", "vectors", "stats")}
            try:
                if references[i] is None:
                    problems = full_check(spec, op, workdir)
                    references[i] = current
                else:
                    problems = oracles.check_identical(spec, references[i], current)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            if problems:
                print("\n".join(problems), file=sys.stderr)
                failed += 1
                correct = False

        if all(op is not None for op in ops):
            metrics = pass_metrics(ops, meter.seconds)
            if tracing:
                metrics.update(layer_metrics(tracer, ops))
                traced.append(metrics)
            else:
                untraced.append(metrics)
        n_pass += 1
        if time.perf_counter() - start >= seconds and n_pass >= (2 if trace else 1):
            break

    if not untraced or (trace and not traced):
        raise RuntimeError("every pass had an operation that raised")
    if trace:
        values = {name: statistics.median(m[name] for m in traced)
                  for name in PER_LAYER if name != "trace.flow_ratio"}
        values["trace.flow_ratio"] = (statistics.median(m["flow_s"] for m in traced)
                                      / statistics.median(m["flow_s"] for m in untraced))
    else:
        values = {name: statistics.median(m[name] for m in untraced)
                  for name in untraced[0]}
        values["peak_rss_mb"] = peak_rss_mb
    return {"correct": correct, "attempted": attempted, "failed": failed, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    # probes on both sides of the passes meet more of the machine's states
    setup_times = probe_setup(args.workload) if not args.trace else []
    specs = workloads.build(args.workload)
    tracer = Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        result = run(specs, args.seed, args.seconds, Path(tmp), tracer)

    values = result.pop("values")
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        values["setup_s"] = statistics.median(setup_times + probe_setup(args.workload))
    result["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"trace-{stem}.json")
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
