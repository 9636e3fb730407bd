"""Run configuration: flat key-value files, overrides, validation, provenance.

The file format is one ``key = value`` per line with ``#`` comments, chosen
so configurations diff cleanly. :data:`SETTINGS` is the one list of settable
keys: the command-line front end exposes each as a long flag, and file lines,
``--set`` items and flags all apply through :func:`apply_settings`. The canonical
serialization of a config (sorted ``key = value`` lines) is hashed into the
run's provenance so outputs can name the exact configuration that made them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field, replace

from .balance import SCHEDULERS
from .errors import ConfigError
from .field import FIELD_KINDS, AnalyticField, seed_axes
from .topology import most_cubic_dims

_MAX_ITER_CAP = 1000
# Largest edge-padded field lattice a run may rasterize: (rx+2)(ry+2)(rz+2)
# nodes of three float64 each, plus one bounded slab of temporaries while it
# is evaluated. A larger lattice is rejected before anything is allocated.
LATTICE_CAP_BYTES = 1 << 30
# Largest curve log one round may reserve with curves exported: every
# selected particle may append max_iterations vertices of an xyz float32
# triplet, 12 B.
ROUND_BUFFER_CAP_BYTES = 1 << 29
# Largest particle table a run may seed: seeds x SEED_BYTES, the peak resident
# bytes per seed. A run of 2,097,152 seeds (abc, 128^3, stride 1, 2x2x2 gllma,
# 1 iteration, curves off, on a 2-CPU Xeon with Python 3.11 and numpy 2.4)
# peaked at 254.4 MiB in a fresh process, against 110.7 MiB at stride 2 and
# 84.9 MiB at stride 8 (262,144 and 4,096 seeds): 82 and 85 B per seed, for
# a 48 B table row. Building the simulator peaks at 196 MiB, seeding's
# columns filled in home order; round 1's compaction, the table's surviving
# rows gathered a column at a time in the order of one stable argsort, sets
# the peak.
# The 2 GiB cap admits 17.9M seeds.
SEED_TABLE_CAP_BYTES = 1 << 31
SEED_BYTES = 120
# Most ranks a run may simulate: 16^3, 256 times the largest sweep's 16. Each
# rank costs work every round: a 72-byte rounds-table row and its share of
# the whole-grid array operations, the balancing decision included. With 4,096
# ranks (toroidal, 64^3 lattice, aabb 0.5, stride 4, 200 iterations, curves
# off, on a 2-CPU Xeon with Python 3.11 and numpy 2.4) ten rounds took
# 0.09-0.14 s with ``none``, about 2-3.3 us per rank-round, and 0.13-0.15 s
# with ``gllma``, about 3.1-3.7 us, of which ``balance.plan_transfers`` takes
# 0.6-1.3 us. It also bounds the factoring of ``nodes``, which is linear in the
# count.
RANK_CAP = 4096


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    vals = [int(p) for p in parts] * (3 if len(parts) == 1 else 1)
    if len(vals) != 3:
        raise ValueError(f"expected 1 or 3 integers, got {text!r}")
    return tuple(vals)


def _parse_bool(text: str) -> bool:
    v = text.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


@dataclass
class RunConfig:
    field: str = "abc"
    field_params: dict = dc_field(default_factory=dict)
    resolution: tuple = (64, 64, 64)
    grid: tuple | None = None
    nodes: int | None = None
    scheduler: str = "none"
    aabb_scale: float = 1.0
    stride: tuple = (8, 8, 8)
    step: float = 0.001
    max_iterations: int = 1000
    particles_per_round: int = 50_000
    alpha: float | None = None
    output: str | None = None
    export_curves: bool = True

    def grid_dims(self) -> tuple[int, int, int]:
        if self.grid is not None:
            return tuple(self.grid)
        if self.nodes is not None:
            return most_cubic_dims(self.nodes)
        return (1, 1, 1)

    def validate(self) -> list[str]:
        """Collect every validation problem; empty list means valid."""
        errors = []
        if self.field not in FIELD_KINDS:
            errors.append(f"field: unknown kind {self.field!r}; expected one of {FIELD_KINDS}")
        else:
            try:
                AnalyticField(self.field, dict(self.field_params))
            except ConfigError as exc:
                errors.append(f"field params: {exc}")
        lattice_bytes = math.prod(r + 2 for r in self.resolution) * 24
        if len(self.resolution) != 3 or any(r < 2 for r in self.resolution):
            errors.append(f"resolution: needs three axes of >= 2 voxels, got {self.resolution}")
        elif lattice_bytes > LATTICE_CAP_BYTES:
            errors.append(f"resolution: the padded field lattice needs {lattice_bytes / 2**30:.3g} GiB, "
                          f"above the {LATTICE_CAP_BYTES / 2**30:g} GiB cap")
        if self.grid is not None:
            if len(self.grid) != 3 or any(d < 1 for d in self.grid):
                errors.append(f"grid: dims must be three integers >= 1, got {self.grid}")
            elif math.prod(self.grid) > RANK_CAP:
                errors.append(f"grid: {math.prod(self.grid)} ranks exceed the cap of {RANK_CAP}")
            if self.nodes is not None and self.nodes != math.prod(self.grid):
                errors.append(f"grid {self.grid} and nodes {self.nodes} disagree")
        elif self.nodes is not None and self.nodes < 1:
            errors.append(f"nodes: must be >= 1, got {self.nodes}")
        if self.nodes is not None and self.nodes > RANK_CAP:
            errors.append(f"nodes: {self.nodes} ranks exceed the cap of {RANK_CAP}")
        dims = None
        if not any(e.startswith(("resolution", "nodes")) for e in errors):
            dims = self.grid_dims()
            if any(r < d for r, d in zip(self.resolution, dims)):
                errors.append(f"resolution {self.resolution} smaller than grid {dims} on some axis")
        if self.scheduler not in SCHEDULERS:
            errors.append(f"scheduler: unknown token {self.scheduler!r}; expected one of {SCHEDULERS}")
        if not (0.0 < self.aabb_scale <= 1.0):
            errors.append(f"aabb_scale: must be in (0, 1], got {self.aabb_scale}")
        if len(self.stride) != 3 or any(s < 1 for s in self.stride):
            errors.append(f"stride: must be three integers >= 1, got {self.stride}")
        if not (math.isfinite(self.step) and self.step > 0.0):
            errors.append(f"step: must be positive and finite, got {self.step}")
        if not (1 <= self.max_iterations <= _MAX_ITER_CAP):
            errors.append(f"max_iterations: must be in [1, {_MAX_ITER_CAP}], got {self.max_iterations}")
        if self.particles_per_round < 1:
            errors.append(f"particles_per_round: must be >= 1, got {self.particles_per_round}")
        if self.alpha is not None and not (0.0 < self.alpha <= 1.0):
            errors.append(f"alpha: must be in (0, 1], got {self.alpha}")
        if not any(e.startswith(("resolution:", "aabb_scale", "stride")) for e in errors):  # axes capped, seedable
            need = self.seed_table_bytes()
            if need > SEED_TABLE_CAP_BYTES:
                errors.append(
                    f"seeds: {self.seed_count():,} seeds need about {need / 2**30:.3g} GiB "
                    f"(seeds x {SEED_BYTES} B), above the {SEED_TABLE_CAP_BYTES / 2**30:g} GiB cap; "
                    f"raise stride, or lower aabb_scale or resolution")
        inputs = ("resolution", "grid", "nodes", "aabb_scale", "stride", "max_iterations", "particles_per_round")
        if self.export_curves and dims is not None and not any(e.startswith(inputs) for e in errors):
            need = self.round_buffer_bytes()
            if need > ROUND_BUFFER_CAP_BYTES:
                errors.append(
                    f"export_curves: a round's curve log needs up to {need / 2**30:.3g} GiB "
                    f"(min(seeds, ranks x particles_per_round) x max_iterations x 12 B), above the "
                    f"{ROUND_BUFFER_CAP_BYTES / 2**30:g} GiB cap; lower particles_per_round or "
                    f"max_iterations, raise stride, or set export_curves = false")
        return errors

    def seed_count(self) -> int:
        """The particles the run seeds, counted without seeding."""
        return math.prod(len(a) for a in seed_axes(self.resolution, self.aabb_scale, self.stride))

    def seed_table_bytes(self) -> int:
        """The run's peak bytes for its particle table, at the measured :data:`SEED_BYTES` per seed."""
        return self.seed_count() * SEED_BYTES

    def round_buffer_bytes(self) -> int:
        """Upper bound on one round's curve log, computed without seeding."""
        selected = min(self.seed_count(), math.prod(self.grid_dims()) * self.particles_per_round)
        return selected * self.max_iterations * 12

    def require_valid(self) -> "RunConfig":
        errors = self.validate()
        if errors:
            raise ConfigError("invalid configuration", errors=errors)
        return self

    def to_dict(self) -> dict:
        return {
            "field": self.field,
            "field_params": {k: float(v) for k, v in sorted(self.field_params.items())},
            "resolution": list(self.resolution),
            "grid": list(self.grid_dims()),
            "scheduler": self.scheduler,
            "aabb_scale": float(self.aabb_scale),
            "stride": list(self.stride),
            "step": float(self.step),
            "max_iterations": int(self.max_iterations),
            "particles_per_round": int(self.particles_per_round),
            "alpha": None if self.alpha is None else float(self.alpha),
            "export_curves": bool(self.export_curves),
        }

    def canonical_text(self) -> str:
        """Deterministic ``key = value`` serialization (output dir excluded)."""
        d = self.to_dict()
        lines = []
        for key in sorted(d):
            if key == "field_params":
                for name, value in d[key].items():
                    lines.append(f"param.{name} = {value!r}")
            else:
                value = d[key]
                if value is None:
                    continue
                if isinstance(value, list):
                    lines.append(f"{key} = {','.join(str(v) for v in value)}")
                else:
                    lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:16]


# The settable keys, each with the parser of its text value. Every source of
# settings (file lines, ``--set`` items, command-line flags) goes through this
# table; ``param.<name>`` keys set field coefficients.
SETTINGS = {
    "field": str.strip,
    "resolution": _parse_triple,
    "grid": _parse_triple,
    "nodes": int,
    "scheduler": str.strip,
    "aabb_scale": float,
    "stride": _parse_triple,
    "step": float,
    "max_iterations": int,
    "particles_per_round": int,
    "alpha": float,
    "output": str.strip,
    "export_curves": _parse_bool,
}


def apply_setting(config: RunConfig, key: str, value: str) -> RunConfig:
    """Apply one ``key = value`` setting; raises :class:`ConfigError`."""
    key = key.strip()
    try:
        if key.startswith("param."):
            return replace(config, field_params={**config.field_params, key[len("param."):]: float(value)})
        if key in SETTINGS:
            return replace(config, **{key: SETTINGS[key](value)})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc
    raise ConfigError(f"unknown configuration key {key!r}")


def setting_item(where: str, text: str) -> tuple:
    """The ``(where, key, value)`` item of one ``key = value`` text; ``value`` is None without ``=``."""
    key, eq, value = text.partition("=")
    return where, key, value.strip() if eq else None


def apply_settings(config: RunConfig, items) -> tuple[RunConfig, list[str]]:
    """Apply ``(where, key, value)`` items in order.

    Returns the resulting config and one problem per bad item, prefixed by
    its ``where``; a bad item leaves the config as it was.
    """
    problems = []
    for where, key, value in items:
        if value is None:
            problems.append(f"{where}: expected 'key = value', got {key.strip()!r}")
            continue
        try:
            config = apply_setting(config, key, value)
        except ConfigError as exc:
            problems.append(f"{where}: {exc}")
    return config, problems


def config_items(text: str) -> list[tuple]:
    """The ``(where, key, value)`` items of flat ``key = value`` lines; ``#`` starts a comment."""
    lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), start=1))
    return [setting_item(f"line {n}", line) for n, line in lines if line]


def parse_config_text(text: str) -> RunConfig:
    """Parse flat ``key = value`` lines, raising one error that lists every bad line."""
    config, problems = apply_settings(RunConfig(), config_items(text))
    if problems:
        raise ConfigError("invalid configuration file", errors=problems)
    return config


def load_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
