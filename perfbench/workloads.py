"""The benchmark's workloads by name, and why each one exists."""

from __future__ import annotations

from wl_pipeline import DagScale, OdePipeline
from wl_runtime import RuntimeStep
from wl_serve import ServeMix

WORKLOADS = {
    OdePipeline.name: OdePipeline,
    DagScale.name: DagScale,
    ServeMix.name: ServeMix,
    RuntimeStep.name: RuntimeStep,
}
