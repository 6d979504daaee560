"""End-to-end synthesis: parse, validate, analyze, optimize."""

from __future__ import annotations

from .analysis import Plan, check_plan
from .config import Config
from .errors import CannotFitError, ValidationError
from .optimizer import topological_optimize
from .parser import parse_spec, validate_formats


def synthesize(source: str, config: Config | None = None) -> Plan:
    """Compile .fps source into a fully fixed synthesis plan.

    Raises ParseError/ValidationError for bad input, CannotFitError when no
    overflow-free datapath exists at the configured word width, and
    PlanCheckError if the plan breaks an analysis invariant.
    """
    config = config or Config()
    dfg, bindings = parse_spec(source)
    diags = validate_formats(bindings, config.width)
    invalid = [d for d in diags if d.kind == "invalid"]
    unfit = [d for d in diags if d.kind == "cannot-fit"]
    if invalid:
        raise ValidationError("; ".join(str(d) for d in invalid))
    if unfit:
        raise CannotFitError("; ".join(str(d) for d in unfit))
    plan = topological_optimize(dfg, bindings, config)
    check_plan(plan)
    return plan
