"""The experiment suite regenerating the paper's tables and figures."""

from .common import ExperimentOutput, make_config
from .suite import EXPERIMENTS, render_experiments_md, run_suite

__all__ = [
    "ExperimentOutput",
    "make_config",
    "EXPERIMENTS",
    "render_experiments_md",
    "run_suite",
]
