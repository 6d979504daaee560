"""Synthesis configuration shared by the analyzer, optimizer and CLI."""

from __future__ import annotations

from dataclasses import dataclass

from .core import Quantize

MIN_WIDTH = 4
MAX_WIDTH = 64
# addition chains up to this many terms are re-associated exhaustively
# (Catalan(n-1) shapes); longer ones try only the balanced tree
N_MAX_TOPOLOGIES = 6


@dataclass(frozen=True)
class Config:
    """Knobs for one synthesis run.

    width: datapath word width W; persisted signals must fit it (full-width
        products may reach 2*W before the mandatory truncation).
    k_max: extra right-shift / extra-truncation candidates explored per node;
        0 turns the combinatorial search off (one candidate per node).
    enable_topology_opt: re-associate addition chains, exhaustively up to
        ``N_MAX_TOPOLOGIES`` terms (``as_dict``'s ``n_max_topologies``).
    enable_chain_alloc: try each addition chain on one accumulator of at
        most ``MAX_WIDTH`` bits (``as_dict``'s ``accumulator_width_limit``).
    """

    width: int = 16
    quantize: Quantize = Quantize.ROUND
    k_max: int = 3
    enable_topology_opt: bool = True
    enable_chain_alloc: bool = True

    def __post_init__(self):
        if not MIN_WIDTH <= self.width <= MAX_WIDTH:
            raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {self.width}")
        if self.k_max < 0:
            raise ValueError("k_max must be >= 0")

    def as_dict(self) -> dict:
        return {
            "width": self.width,
            "quantize": self.quantize.value,
            "k_max": self.k_max,
            "n_max_topologies": N_MAX_TOPOLOGIES,
            "enable_topology_opt": self.enable_topology_opt,
            "enable_chain_alloc": self.enable_chain_alloc,
            "accumulator_width_limit": MAX_WIDTH,
        }
