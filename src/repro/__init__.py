"""Full-stack reproduction of *Design and Implementation of MPI-Native
GPU-Initiated MPI Partitioned Communication* (SC 2024).

Top-level convenience imports::

    from repro import World, ONE_NODE, PAPER_TESTBED

See README.md for the architecture overview, DESIGN.md for the system
inventory and substitution rationale, and EXPERIMENTS.md for paper-vs-
measured results.
"""

from repro.hw.params import ONE_NODE, PAPER_TESTBED, GH200Params

__version__ = "1.0.0"

__all__ = [
    "GH200Params",
    "ONE_NODE",
    "PAPER_TESTBED",
    "RankCtx",
    "World",
    "__version__",
]


def __getattr__(name: str):
    # ``World`` and ``RankCtx`` resolve on first access (PEP 562), so that
    # importing one subpackage does not load the whole MPI stack
    # (DESIGN.md §15, import boundaries).
    if name not in ("RankCtx", "World"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.mpi import world

    return getattr(world, name)
