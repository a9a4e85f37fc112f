"""Trace representation: the interface between workloads, the prefetch
insertion pass, and the multiprocessor simulator.

A :class:`~repro.trace.events.TraceEvent` stream per CPU plays the role of
the MPTrace address traces in the paper.  Events carry byte addresses,
read/write direction, and the number of instruction cycles executed since
the previous event (the *gap*), which is what prefetch-distance placement
and execution-time accounting consume.
"""
