"""vecop: allocates vehicle-originated processing demand across vehicle,
edge, and cloud processors to minimize weighted power plus maximum service
delay, with an exact solver, an independent evaluator, and a sweep harness."""

# cli is left out: `python -m vecop.cli` would find it imported already, and
# runpy warns about that. `from vecop import cli` still works.
from . import delaymodel, formulation, harness, linkmodel, lp_io, powermodel, scenario, solver

__all__ = [
    "delaymodel",
    "formulation",
    "harness",
    "linkmodel",
    "lp_io",
    "powermodel",
    "scenario",
    "solver",
]

__version__ = "0.1.0"
