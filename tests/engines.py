"""Engine variants shared by the differential tests."""

from repro.sim.engine import SimulationEngine


class GenericPathEngine(SimulationEngine):
    """The engine with its hit-streak fast path off.

    Every CPU event goes through the generic ``_dispatch`` /
    ``_try_access`` handlers, the reference the fast path must match bit
    for bit -- on results and on every observation tap.
    """

    _hit_streaks = False
