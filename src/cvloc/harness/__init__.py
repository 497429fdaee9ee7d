"""Experiment harness: numeric self-checks, batch runners, and the CLI."""

from .checks import NumericsReport, check_numerics
from .runner import load_config, run_bounds, run_eval, run_localize

__all__ = ["NumericsReport", "check_numerics", "load_config", "run_bounds", "run_eval",
           "run_localize"]
