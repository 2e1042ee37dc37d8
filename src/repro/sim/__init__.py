"""Discrete-event simulation of mapped M-task programs."""

from .engine import Simulator
from .executor import SimulationOptions, simulate
from .trace import ExecutionTrace, TraceEntry

__all__ = [
    "Simulator",
    "simulate",
    "SimulationOptions",
    "ExecutionTrace",
    "TraceEntry",
]
