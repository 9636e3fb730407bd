"""Run configuration: flat key-value files, overrides, validation, provenance.

The file format is one ``key = value`` per line with ``#`` comments, chosen
so configurations diff cleanly. Every key is also exposed as a long CLI flag
by the command-line front end; flags override the file. The canonical
serialization of a config (sorted ``key = value`` lines) is hashed into the
run's provenance so outputs can name the exact configuration that made them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field as dc_field, replace

from .balance import SCHEDULERS
from .errors import ConfigError
from .field import FIELD_KINDS
from .topology import most_cubic_dims

_MAX_ITER_CAP = 1000
# Largest edge-padded field lattice a run may rasterize: (rx+2)(ry+2)(rz+2)
# nodes of three float64 each, plus one bounded slab of temporaries while it
# is evaluated. A larger lattice is rejected before anything is allocated.
LATTICE_CAP_BYTES = 1 << 30
# Largest curve log one round may reserve with curves exported: every
# selected particle may append max_iterations vertices of an xyz float64
# triplet plus an int64 row.
ROUND_BUFFER_CAP_BYTES = 1 << 29


def _parse_triple(text) -> tuple[int, int, int]:
    if isinstance(text, (tuple, list)):
        vals = [int(v) for v in text]
    else:
        parts = str(text).split(",")
        if len(parts) == 1:
            vals = [int(parts[0])] * 3
        else:
            vals = [int(p) for p in parts]
    if len(vals) != 3:
        raise ValueError(f"expected 1 or 3 integers, got {text!r}")
    return tuple(vals)


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    v = str(text).strip().lower()
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
                from .field import AnalyticField
                AnalyticField(self.field, dict(self.field_params))
            except ConfigError as exc:
                errors.append(f"field params: {exc}")
        lattice_bytes = math.prod(r + 2 for r in self.resolution) * 24
        if any(r < 2 for r in self.resolution):
            errors.append(f"resolution: every axis needs >= 2 voxels, got {self.resolution}")
        elif lattice_bytes > LATTICE_CAP_BYTES:
            errors.append(f"resolution: the padded field lattice needs {lattice_bytes / 2**30:.3g} GiB, "
                          f"above the {LATTICE_CAP_BYTES / 2**30:g} GiB cap")
        if self.grid is not None:
            if any(d < 1 for d in self.grid):
                errors.append(f"grid: dims must be >= 1, got {self.grid}")
            if self.nodes is not None and self.nodes != self.grid[0] * self.grid[1] * self.grid[2]:
                errors.append(f"grid {self.grid} and nodes {self.nodes} disagree")
        elif self.nodes is not None and self.nodes < 1:
            errors.append(f"nodes: must be >= 1, got {self.nodes}")
        dims = None
        if not any(e.startswith(("resolution", "nodes")) for e in errors):
            # factoring is linear in the node count, so bound it before factoring
            if self.grid is None and self.nodes is not None and self.nodes > math.prod(self.resolution):
                errors.append(f"nodes: {self.nodes} ranks exceed the {math.prod(self.resolution)} voxels")
            else:
                dims = self.grid_dims()
                if any(r < d for r, d in zip(self.resolution, dims)):
                    errors.append(f"resolution {self.resolution} smaller than grid {dims} on some axis")
        if self.scheduler not in SCHEDULERS:
            errors.append(f"scheduler: unknown token {self.scheduler!r}; expected one of {SCHEDULERS}")
        if not (0.0 < self.aabb_scale <= 1.0):
            errors.append(f"aabb_scale: must be in (0, 1], got {self.aabb_scale}")
        if any(s < 1 for s in self.stride):
            errors.append(f"stride: must be >= 1 per axis, got {self.stride}")
        if not (math.isfinite(self.step) and self.step > 0.0):
            errors.append(f"step: must be positive and finite, got {self.step}")
        if not (1 <= self.max_iterations <= _MAX_ITER_CAP):
            errors.append(f"max_iterations: must be in [1, {_MAX_ITER_CAP}], got {self.max_iterations}")
        if self.particles_per_round < 1:
            errors.append(f"particles_per_round: must be >= 1, got {self.particles_per_round}")
        if self.alpha is not None and not (0.0 < self.alpha <= 1.0):
            errors.append(f"alpha: must be in (0, 1], got {self.alpha}")
        inputs = ("resolution", "grid", "nodes", "aabb_scale", "stride", "max_iterations", "particles_per_round")
        if self.export_curves and dims is not None and not any(e.startswith(inputs) for e in errors):
            need = self.round_buffer_bytes()
            if need > ROUND_BUFFER_CAP_BYTES:
                errors.append(
                    f"export_curves: a round's curve log needs up to {need / 2**30:.3g} GiB "
                    f"(min(seeds, ranks x particles_per_round) x max_iterations x 32 B), above the "
                    f"{ROUND_BUFFER_CAP_BYTES / 2**30:g} GiB cap; lower particles_per_round or "
                    f"max_iterations, raise stride, or set export_curves = false")
        return errors

    def round_buffer_bytes(self) -> int:
        """Upper bound on one round's curve log, computed without seeding."""
        from .runtime import seed_axes
        seeds = math.prod(len(a) for a in seed_axes(self.resolution, self.aabb_scale, self.stride))
        selected = min(seeds, math.prod(self.grid_dims()) * self.particles_per_round)
        return selected * self.max_iterations * 32

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


_SETTERS = {
    "field": lambda c, v: replace(c, field=str(v).strip()),
    "resolution": lambda c, v: replace(c, resolution=_parse_triple(v)),
    "grid": lambda c, v: replace(c, grid=_parse_triple(v)),
    "nodes": lambda c, v: replace(c, nodes=int(v)),
    "scheduler": lambda c, v: replace(c, scheduler=str(v).strip()),
    "aabb_scale": lambda c, v: replace(c, aabb_scale=float(v)),
    "stride": lambda c, v: replace(c, stride=_parse_triple(v)),
    "step": lambda c, v: replace(c, step=float(v)),
    "max_iterations": lambda c, v: replace(c, max_iterations=int(v)),
    "particles_per_round": lambda c, v: replace(c, particles_per_round=int(v)),
    "alpha": lambda c, v: replace(c, alpha=float(v)),
    "output": lambda c, v: replace(c, output=str(v).strip()),
    "export_curves": lambda c, v: replace(c, export_curves=_parse_bool(v)),
}


def apply_setting(config: RunConfig, key: str, value) -> RunConfig:
    """Apply one ``key = value`` setting; raises :class:`ConfigError`."""
    key = key.strip()
    if key.startswith("param."):
        name = key[len("param."):]
        try:
            params = dict(config.field_params)
            params[name] = float(value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from exc
        return replace(config, field_params=params)
    setter = _SETTERS.get(key)
    if setter is None:
        raise ConfigError(f"unknown configuration key {key!r}")
    try:
        return setter(config, value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}") from exc


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    config = base if base is not None else RunConfig()
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, value = line.split("=", 1)
        try:
            config = apply_setting(config, key, value.strip())
        except ConfigError as exc:
            errors.append(f"line {lineno}: {exc}")
    if errors:
        raise ConfigError("invalid configuration file", errors=errors)
    return config


def load_config_file(path, base: RunConfig | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)
