"""Command line driver.

    fpsynt synth <spec.fps> [--width N] [--emit c,vhdl] [--opt comb,topo,chain]
                            [--quantize round|trunc] [-o DIR]
    fpsynt simulate <spec.fps> [--vectors FILE | --random N --seed S] [synth flags]

Exit codes: 0 ok, 1 parse/validation error, usage error or bad option
value (such as --random outside 1 to MAX_RANDOM_VECTORS = 10^7, which
bounds the memory of the vector matrix), simulate without numpy, a plan
that fails check_plan (PlanCheckError, a planner bug), or a RecursionError
(``internal error: recursion too deep``), 2 cannot-fit, 3 I/O error or
out of memory (a MemoryError), 4 malformed vector file. Set
FPSYNT_LOG=debug|info|warning for logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .codegen import emit_c, emit_vhdl
from .config import Config
from .core import Quantize
from .errors import CannotFitError, EmitError, FpsyntError, SpecError, VectorError
from .pipeline import synthesize
from .report import report_json, summary_table

EXIT_OK = 0
EXIT_SPEC = 1
EXIT_CANNOT_FIT = 2
EXIT_IO = 3
EXIT_VECTORS = 4

# generate_vectors holds all N vectors at once, about 180 bytes each on
# FIR-4, so 10^7 of them take about 2 GB
MAX_RANDOM_VECTORS = 10_000_000


def _setup_logging():
    # a level's name maps to its number; any other value (even a module
    # constant such as BASIC_FORMAT) maps to a string and falls back to warning
    level = logging.getLevelName(os.environ.get("FPSYNT_LOG", "warning").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(name)s: %(levelname)s: %(message)s")


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a SpecError, which main reports in one
    ``fpsynt:`` line and exit 1, in place of argparse's usage text and exit 2."""

    def error(self, message):
        raise SpecError(message)


def _add_synth_flags(p: argparse.ArgumentParser):
    p.add_argument("spec", help=".fps source file")
    p.add_argument("--width", type=int, default=16, help="datapath word width (default 16)")
    p.add_argument("--emit", default="c,vhdl",
                   help="comma list of targets: c, vhdl, none (default c,vhdl)")
    p.add_argument("--opt", default="comb,topo,chain",
                   help="enabled optimizations: comb, topo, chain (default all)")
    p.add_argument("--quantize", choices=["round", "trunc"], default="round")
    p.add_argument("-o", "--outdir", default=".", help="output directory")


def _config_from(args) -> Config:
    opts = {o.strip() for o in args.opt.split(",") if o.strip()}
    unknown = opts - {"comb", "topo", "chain", "none"}
    if unknown:
        raise SpecError(f"unknown --opt values: {', '.join(sorted(unknown))}")
    try:
        return Config(width=args.width,
                      quantize=Quantize.ROUND if args.quantize == "round" else Quantize.TRUNC,
                      k_max=Config.k_max if "comb" in opts else 0,
                      enable_topology_opt="topo" in opts,
                      enable_chain_alloc="chain" in opts)
    except ValueError as e:
        raise SpecError(str(e)) from None


def _emit_targets(args) -> set[str]:
    targets = {t.strip() for t in args.emit.split(",") if t.strip()}
    unknown = targets - {"c", "vhdl", "none"}
    if unknown:
        raise SpecError(f"unknown --emit targets: {', '.join(sorted(unknown))}")
    return targets - {"none"}


def _synthesize_from_file(args):
    try:
        # read as UTF-8, not utf-8-sig, so an error's offset counts a byte-order mark
        source = Path(args.spec).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SpecError(f"{args.spec}: not UTF-8 at byte {e.start}") from None
    config = _config_from(args)
    return synthesize(source, config)


def _write_outputs(args, plan, stats=None) -> Path:
    outdir = Path(args.outdir)
    stem = Path(args.spec).stem
    artifacts = []
    targets = _emit_targets(args)
    if "c" in targets:
        artifacts.append(emit_c(plan, name=stem))
    if "vhdl" in targets:
        artifacts.append(emit_vhdl(plan, name=stem))
    outdir.mkdir(parents=True, exist_ok=True)
    for art in artifacts:
        (outdir / art.suggested_name).write_text(art.source)
    report_path = outdir / "report.json"
    report_path.write_text(report_json(plan, stats))
    return report_path


def cmd_synth(args) -> int:
    plan = _synthesize_from_file(args)
    _write_outputs(args, plan)
    print(summary_table(plan), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    # imported here, so that the synth command never loads numpy
    try:
        from .simulator import compare, generate_vectors, load_vectors_csv
    except ImportError as e:
        raise SpecError(f"simulate needs numpy: {e}") from None

    if not args.vectors:
        if args.random < 1:
            raise SpecError(f"--random must be >= 1, got {args.random}")
        if args.random > MAX_RANDOM_VECTORS:
            raise SpecError(f"--random must be <= {MAX_RANDOM_VECTORS}, got {args.random}")
        if args.seed < 0:
            raise SpecError(f"--seed must be >= 0, got {args.seed}")
    plan = _synthesize_from_file(args)
    if args.vectors:
        vecset = load_vectors_csv(args.vectors, plan.bindings, plan.config.quantize)
    else:
        vecset = generate_vectors(plan.bindings, args.random, args.seed,
                                  plan.config.quantize)
    stats = compare(plan, vecset, mode="double")
    _write_outputs(args, plan, stats)
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    _setup_logging()
    parser = _Parser(
        prog="fpsynt",
        description="fixed-point datapath synthesis with overflow control and "
                    "minimized worst-case arithmetic error")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="synthesize a datapath and emit code")
    _add_synth_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_sim = sub.add_parser("simulate",
                           help="synthesize, run bit-accurate simulation, report error stats")
    _add_synth_flags(p_sim)
    p_sim.add_argument("--vectors", help="CSV vector file (header = input names)")
    p_sim.add_argument("--random", type=int, default=90,
                       help="random vector count when no file is given "
                            f"(default 90, at most {MAX_RANDOM_VECTORS})")
    p_sim.add_argument("--seed", type=int, default=1, help="RNG seed (default 1)")
    p_sim.set_defaults(func=cmd_simulate)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SpecError as e:
        print(f"fpsynt: {e}", file=sys.stderr)
        return EXIT_SPEC
    except CannotFitError as e:
        print(f"fpsynt: cannot fit: {e}", file=sys.stderr)
        return EXIT_CANNOT_FIT
    except VectorError as e:
        print(f"fpsynt: bad vectors: {e}", file=sys.stderr)
        return EXIT_VECTORS
    except EmitError as e:
        print(f"fpsynt: {e}", file=sys.stderr)
        return EXIT_CANNOT_FIT
    except OSError as e:
        print(f"fpsynt: {e}", file=sys.stderr)
        return EXIT_IO
    except FpsyntError as e:  # pragma: no cover - safety net
        print(f"fpsynt: {e}", file=sys.stderr)
        return EXIT_SPEC
    except MemoryError:
        print("fpsynt: out of memory", file=sys.stderr)
        return EXIT_IO
    except RecursionError:
        print("fpsynt: internal error: recursion too deep", file=sys.stderr)
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
