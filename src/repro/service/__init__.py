"""Simulation-as-a-service: frozen run contracts + asyncio HTTP API.

The service layer (DESIGN.md §5h) turns the experiment runner into a
front door: :class:`~repro.service.contracts.ScenarioSpec` requests
dedup by the same content key the disk cache and ledger use, an asyncio
:class:`~repro.service.scheduler.RunScheduler` batches them through the
telemetered fleet runner, and
:class:`~repro.service.api.ReproService` serves submit/status/result/
metrics over dependency-free HTTP (``repro serve``).
"""
