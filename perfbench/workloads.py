"""Benchmark workloads: named run configurations and their seeded variants.

Every workload runs at 64^3 with step 0.001 and curves exported (the CLI
defaults), seeding every 4th lattice node. Seed 0 is the configuration as
written; any other seed draws the field coefficients uniformly from a narrow
band around their defaults, so the program sees a different but comparable
field and the benchmark sees comparable work. The band keeps
``2 * step * max|v|`` far below the lattice spacing, so the ghost-margin
check accepts every draw.
"""

from __future__ import annotations

import random
from dataclasses import replace

from diffadvect.config import RunConfig
from diffadvect.field import AnalyticField

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "toroidal-gllma": dict(field="toroidal", grid=(4, 2, 2), scheduler="gllma",
                           aabb_scale=0.5, max_iterations=200),
    "abc-oracle": dict(field="abc", grid=(1, 1, 1), scheduler="none",
                       aabb_scale=1.0, max_iterations=1000),
    "jets-queued": dict(field="jets", grid=(4, 2, 2), scheduler="lma",
                        aabb_scale=1.0, particles_per_round=64, max_iterations=100),
    # Tiny configuration for the benchmark's own tests; not a measured workload.
    "smoke": dict(field="toroidal", resolution=(32, 32, 32), grid=(2, 2, 1),
                  scheduler="gllma", aabb_scale=0.5, max_iterations=20),
}

# Coefficients a non-zero seed varies, with the relative half-width of the band.
SEEDED_COEFFICIENTS = {
    "toroidal": {"kappa": 0.005},
    "abc": {"A": 0.005, "B": 0.005, "C": 0.005},
    "jets": {"w0": 0.005},
}


def config_for(workload: str, seed: int) -> RunConfig:
    """The run configuration of ``workload`` at ``seed``."""
    spec = dict(resolution=(64, 64, 64), stride=(4, 4, 4), step=0.001, export_curves=True)
    spec.update(WORKLOADS[workload])
    config = RunConfig(**spec)
    if seed == 0:
        return config
    rng = random.Random(seed)
    defaults = AnalyticField(config.field).params
    params = {
        name: defaults[name] * (1.0 + rng.uniform(-width, width))
        for name, width in SEEDED_COEFFICIENTS[config.field].items()
    }
    return replace(config, field_params=params)


def oracle_config(config: RunConfig) -> RunConfig:
    """The one-rank, unbalanced run of the same inputs, whose curves are the truth."""
    return replace(config, grid=(1, 1, 1), nodes=None, scheduler="none",
                   particles_per_round=RunConfig().particles_per_round)
