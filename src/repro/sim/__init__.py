"""Discrete-event simulation engine underpinning the PROACT reproduction."""

from repro.sim.engine import Engine
from repro.sim.events import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    AllOf,
    Event,
    Timeout,
)
from repro.sim.process import Process
from repro.sim.resources import Request, Resource
from repro.sim.trace import NULL_TRACER, IntervalStats, TraceRecord, Tracer

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "AllOf",
    "Process",
    "Resource",
    "Request",
    "Tracer",
    "TraceRecord",
    "NULL_TRACER",
    "IntervalStats",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
]
