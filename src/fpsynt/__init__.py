"""fpsynt: automated synthesis of overflow-free fixed-point datapaths.

Compile a real-valued multiply-add dataflow description into a fixed-point
implementation with a minimized worst-case error bound, emit C and VHDL, and
validate the result bit-accurately against a floating-point reference.

The simulator's names (``compare``, ``generate_vectors``, ``ErrorStats``
and the rest of ``_SIMULATOR_NAMES``) load ``fpsynt.simulator``, and with
it numpy, on first use, so synthesis, emission and reports run without
numpy.
"""

__version__ = "0.1.0"

from .analysis import (CHAIN_PLAN, AccumulatorInfo, ErrorBound, GraphTable,
                       Interval, NodeInfo, Plan, check_plan,
                       choose_const_format, infer_product_format,
                       mul_error_bound, plan_add, plan_truncate)
from .codegen import EmittedArtifact, emit_c, emit_vhdl
from .config import Config
from .core import (Dfg, Node, NodeKind, Quantize, ScaledSignal, SifFormat,
                   decode, encode, find_chains, sif_width, topo_order)
from .errors import (CannotFitError, CycleError, EmitError, FpsyntError,
                     InternalOverflowError, MalformedRawError, ParseError,
                     PlanCheckError, RangeError, SpecError, ValidationError,
                     VectorError)
from .optimizer import (combinatorial_search, enumerate_topologies,
                        topological_optimize)
from .parser import Bindings, parse_spec, pretty_print, validate_formats
from .pipeline import synthesize
from .report import build_report, report_json, summary_table

_SIMULATOR_NAMES = ("ErrorStats", "TestVector", "VectorSet", "compare",
                    "generate_vectors", "load_vectors_csv", "run_fixed",
                    "run_fixed_columns", "run_reference_columns",
                    "save_vectors_csv")


def __getattr__(name):
    if name not in _SIMULATOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import simulator
    # stored, so later lookups are plain reads; a name a caller has already
    # set (a tracer's wrapper, say) is kept
    for n in _SIMULATOR_NAMES:
        globals().setdefault(n, getattr(simulator, n))
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(_SIMULATOR_NAMES))
