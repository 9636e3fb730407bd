"""Analytic vector fields, voxel-brick rasterization, and trilinear sampling.

Three closed-form stand-in fields are provided, one per qualitative load
pattern of interest:

* ``abc``      -- chaotic trajectories spread over the whole domain,
* ``jets``     -- long domain-spanning trajectories (a 3D double gyre with
                  weak vertical transport),
* ``toroidal`` -- orbital trajectories concentrated around a central ring.

All fields are defined on the unit cube ``[0, 1]^3`` and are pure: the same
point always evaluates to the same vector, bit-exactly.

The voxel lattice has ``resolution`` nodes per axis at positions
``i * spacing`` with ``spacing = 1 / (resolution - 1)``. It is rasterized
once, slab by slab, into an array padded with one edge-replicated ghost
node per side (:func:`rasterize_global`). A :class:`Block` is core bounds
over that one shared array, for one extent or one per particle row; it
samples a one-cell ghost layer around its core and copies nothing. Throughout this module "g-space"
means position divided by spacing, i.e. fractional node coordinates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConfigError, DomainError, OutOfBlockError

FIELD_KINDS = ("abc", "jets", "toroidal")

_DEFAULT_PARAMS = {
    "abc": {"A": math.sqrt(3.0), "B": math.sqrt(2.0), "C": 1.0},
    "jets": {"w0": 0.3},
    "toroidal": {"R0": 0.25, "kappa": 0.5},
}

# Guard against division blow-ups on the torus axis / ring core.
_EPS = 1e-6


@dataclass(frozen=True)
class AnalyticField:
    """A closed-form vector field on the unit cube.

    ``params`` holds the named scalar coefficients of the chosen ``kind``;
    unspecified ones take the defaults from ``_DEFAULT_PARAMS``.
    """

    kind: str
    params: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"unknown field kind {self.kind!r}; expected one of {FIELD_KINDS}")
        merged = dict(_DEFAULT_PARAMS[self.kind])
        for key, value in self.params.items():
            if key not in merged:
                raise ConfigError(f"field {self.kind!r} has no parameter {key!r}")
            merged[key] = float(value)
            if not math.isfinite(merged[key]):
                raise ConfigError(f"field {self.kind!r} parameter {key!r} must be finite, got {value}")
        object.__setattr__(self, "params", merged)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the field at ``points`` of shape ``(..., 3)``.

        No domain check is performed here; use :func:`evaluate_field` for the
        checked single-point entry point.
        """
        pts = np.asarray(points, dtype=np.float64)
        x, y, z = pts[..., 0], pts[..., 1], pts[..., 2]
        p = self.params
        if self.kind == "abc":
            qx, qy, qz = 2.0 * np.pi * x, 2.0 * np.pi * y, 2.0 * np.pi * z
            vx = p["A"] * np.sin(qz) + p["C"] * np.cos(qy)
            vy = p["B"] * np.sin(qx) + p["A"] * np.cos(qz)
            vz = p["C"] * np.sin(qy) + p["B"] * np.cos(qx)
        elif self.kind == "jets":
            vx = -np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            vy = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            vz = p["w0"] * np.sin(np.pi * z) * np.sin(np.pi * x)
        else:  # toroidal
            dx, dy, dz = x - 0.5, y - 0.5, z - 0.5
            rho = np.maximum(np.sqrt(dx * dx + dy * dy), _EPS)
            r = np.sqrt((rho - p["R0"]) ** 2 + dz * dz)
            rs = np.maximum(r, _EPS)
            k = p["kappa"]
            vx = -dy / rho + k * (-dz * dx / rho) / rs
            vy = dx / rho + k * (-dz * dy / rho) / rs
            vz = k * (rho - p["R0"]) / rs
        return np.stack([vx, vy, vz], axis=-1)


def evaluate_field(field: AnalyticField, point) -> np.ndarray:
    """Evaluate ``field`` at a single point inside ``[0, 1]^3``.

    Raises :class:`DomainError` for points outside the unit cube.
    """
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ConfigError(f"expected a 3-vector point, got shape {p.shape}")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise DomainError(f"point {p.tolist()} outside the [0,1]^3 domain")
    return field.evaluate(p[np.newaxis, :])[0]


def _check_resolution(resolution) -> tuple[int, int, int]:
    res = tuple(int(r) for r in resolution)
    if len(res) != 3 or any(r < 2 for r in res):
        raise ConfigError(f"resolution must be three integers >= 2, got {resolution}")
    return res


def lattice_spacing(resolution) -> np.ndarray:
    """Domain units per voxel: ``1 / (resolution - 1)`` per axis."""
    res = _check_resolution(resolution)
    return 1.0 / (np.asarray(res, dtype=np.float64) - 1.0)


# Lattice nodes evaluated at once: a 64^3 lattice is one slab, and a larger
# one holds at most this many nodes' temporaries beside the padded lattice.
_SLAB_NODES = 1 << 18


def rasterize_global(field: AnalyticField, resolution, *, padded: bool = False) -> np.ndarray:
    """Evaluate ``field`` on the full voxel lattice.

    Returns a read-only array of shape ``(rx, ry, rz, 3)`` indexed
    ``[ix, iy, iz]``, or with ``padded`` the lattice with one edge-replicated
    ghost node per side (see :func:`pad_lattice`). The field is evaluated in
    slabs of whole x-planes straight into the padded array, so rasterizing
    holds one lattice plus one slab's temporaries. A non-finite value in
    any slab is a :class:`ConfigError`. One shared global
    rasterization keeps every block's ghost layer bit-identical to its
    neighbor's core by construction.
    """
    res = _check_resolution(resolution)
    spacing = lattice_spacing(res)
    rx, ry, rz = res
    ax = [np.arange(r, dtype=np.float64) * spacing[a] for a, r in enumerate(res)]
    planes = max(1, _SLAB_NODES // (ry * rz))
    lattice = None
    for x0 in range(0, rx, planes):
        n = min(planes, rx - x0)
        pts = np.empty((n, ry, rz, 3), dtype=np.float64)
        pts[..., 0] = ax[0][x0:x0 + n, np.newaxis, np.newaxis]
        pts[..., 1] = ax[1][:, np.newaxis]
        pts[..., 2] = ax[2]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported just below
            values = field.evaluate(pts.reshape(-1, 3)).reshape(n, ry, rz, 3)
        del pts
        if not np.isfinite(values).all():
            raise ConfigError(f"field params: the {field.kind} field is not finite on the lattice")
        if lattice is None:  # allocated once the first slab's temporaries are freed
            lattice = np.empty((rx + 2, ry + 2, rz + 2, 3), dtype=np.float64)
        lattice[1 + x0:1 + x0 + n, 1:-1, 1:-1] = values
    _fill_ghosts(lattice)
    return lattice if padded else lattice[1:-1, 1:-1, 1:-1]


def _fill_ghosts(lattice: np.ndarray) -> None:
    """Copy each face's edge nodes into its ghost layer, one axis after another, then seal."""
    for axis in range(3):
        faces = np.moveaxis(lattice, axis, 0)
        faces[0] = faces[1]
        faces[-1] = faces[-2]
    lattice.setflags(write=False)


def pad_lattice(global_data: np.ndarray) -> np.ndarray:
    """The lattice with one edge-replicated ghost node per side, read-only.

    Entry ``[i + 1, j + 1, k + 1]`` holds node ``(i, j, k)`` clamped to the
    lattice, so every block's ghost layer is a slice of this one array.
    """
    rx, ry, rz, _ = global_data.shape
    padded = np.empty((rx + 2, ry + 2, rz + 2, 3), dtype=np.float64)
    padded[1:-1, 1:-1, 1:-1] = global_data
    _fill_ghosts(padded)
    return padded


@dataclass(frozen=True)
class Block:
    """Core bounds over the one shared, edge-padded lattice.

    ``origin`` and ``core_dims`` (int64) are either one extent's ``(3,)``
    bounds or per-row ``(n, 3)`` bounds that pair with the rows of every
    point array passed in. A row's core is the half-open g-space box
    ``[origin, origin + core_dims)``; it samples one ghost cell beyond, up to
    and including ``origin + core_dims``. Nothing is copied per block.
    """

    lattice: np.ndarray     # pad_lattice result, shared by every block
    spacing: np.ndarray
    origin: np.ndarray
    core_dims: np.ndarray

    @property
    def data(self) -> np.ndarray:
        """One extent's ghost-padded brick, as a view of the shared lattice."""
        (ox, oy, oz), (nx, ny, nz) = self.origin, self.core_dims
        return self.lattice[ox:ox + nx + 2, oy:oy + ny + 2, oz:oz + nz + 2]

    def select(self, rows) -> "Block":
        """The bounds of ``rows`` only; a single extent serves every row."""
        if self.origin.ndim == 1:
            return self
        return Block(self.lattice, self.spacing, self.origin[rows], self.core_dims[rows])

    def core_bounds(self):
        """g-space ``(lo, hi)`` of the core; ``hi`` is excluded."""
        return self.origin, self.origin + self.core_dims

    def sample_bounds(self):
        """g-space ``(lo, hi)`` of the sampling extent; ``hi`` is included."""
        return self.origin - 1, self.origin + self.core_dims

    def to_g(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) / self.spacing

    def samplable_mask(self, points: np.ndarray) -> np.ndarray:
        """True where a point lies inside the ghost-padded sampling extent."""
        g = self.to_g(points)
        lo, hi = self.sample_bounds()
        return np.all((g >= lo) & (g <= hi), axis=-1)

    def owned_mask(self, points: np.ndarray) -> np.ndarray:
        """True where a point lies in this block's half-open core region."""
        g = self.to_g(points)
        lo, hi = self.core_bounds()
        return np.all((g >= lo) & (g < hi), axis=-1)

    def sample_clamped(self, points: np.ndarray) -> np.ndarray:
        """Trilinear interpolation with cell indices clipped to the block.

        No validity checking: callers track which rows are inside the
        sampling extent themselves (clipped garbage rows stay finite and are
        discarded lane-locally, so they cannot contaminate valid rows).
        """
        g = self.to_g(points)
        lo, hi = self.sample_bounds()
        # Clamp to the last valid cell so g == hi lands weight 1 on the top node.
        cell = np.clip(np.floor(g).astype(np.int64), lo, hi - 1)
        frac = g - cell
        _, pny, pnz, _ = self.lattice.shape
        sx, sy = pny * pnz, pnz  # flat strides of the x and y axes
        flat = cell[..., 0] * sx + cell[..., 1] * sy + cell[..., 2]
        # Corner offsets in x-major order; the ghost layer shifts node (i, j, k) by one per axis.
        offs = (sx + sy + 1) + np.array([0, 1, sy, sy + 1, sx, sx + 1, sx + sy, sx + sy + 1])
        c = self.lattice.reshape(-1, 3)[flat[..., np.newaxis] + offs]  # (..., 8, 3)
        fx = frac[..., 0, np.newaxis]
        fy = frac[..., 1, np.newaxis]
        fz = frac[..., 2, np.newaxis]
        c00 = (1.0 - fz) * c[..., 0, :] + fz * c[..., 1, :]
        c01 = (1.0 - fz) * c[..., 2, :] + fz * c[..., 3, :]
        c10 = (1.0 - fz) * c[..., 4, :] + fz * c[..., 5, :]
        c11 = (1.0 - fz) * c[..., 6, :] + fz * c[..., 7, :]
        c0 = (1.0 - fy) * c00 + fy * c01
        c1 = (1.0 - fy) * c10 + fy * c11
        return (1.0 - fx) * c0 + fx * c1

    def sample(self, points: np.ndarray) -> np.ndarray:
        """Checked trilinear sampling; raises :class:`OutOfBlockError`."""
        pts = np.asarray(points, dtype=np.float64)
        if not np.all(self.samplable_mask(pts)):
            raise OutOfBlockError(
                f"point(s) outside block origin={self.origin} core={self.core_dims} sampling extent"
            )
        return self.sample_clamped(pts)


def rasterize_block(
    field: AnalyticField,
    global_resolution,
    origin_voxel,
    core_dims,
    *,
    global_data: np.ndarray | None = None,
) -> Block:
    """One ghost-padded block: its extent over the edge-padded lattice.

    ``global_data`` is an unpadded :func:`rasterize_global` result; without
    it the lattice is rasterized here. A block's ghost layer is its
    neighbors' core nodes by construction.
    """
    res = _check_resolution(global_resolution)
    origin = np.array([int(v) for v in origin_voxel], dtype=np.int64)
    core = np.array([int(v) for v in core_dims], dtype=np.int64)
    if np.any(core < 1):
        raise ConfigError(f"core_dims must be >= 1 per axis, got {tuple(core)}")
    if np.any(origin < 0) or np.any(origin + core > res):
        raise ConfigError(f"block origin={tuple(origin)} core={tuple(core)} exceeds resolution {res}")
    lattice = rasterize_global(field, res, padded=True) if global_data is None else pad_lattice(global_data)
    return Block(lattice, lattice_spacing(res), origin, core)


def sample_trilinear(block: Block, point) -> np.ndarray:
    """Sample ``block`` at a single point; the operation-level entry point."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ConfigError(f"expected a 3-vector point, got shape {p.shape}")
    return block.sample(p[np.newaxis, :])[0]


def export_block(block: Block, data_path, sidecar_path=None) -> None:
    """Debug export: flat little-endian float32 triplets, x-fastest order.

    Writes a small JSON sidecar (``<data_path>.json`` by default) with the
    dims, origin and spacing needed to reinterpret the raw stream.
    """
    data_path = str(data_path)
    if sidecar_path is None:
        sidecar_path = data_path + ".json"
    # data is [ix, iy, iz]; x-fastest flat order wants z slowest.
    flat = np.transpose(block.data, (2, 1, 0, 3)).astype("<f4").ravel()
    flat.tofile(data_path)
    sidecar = {
        "dims": [int(n) + 2 for n in block.core_dims],
        "core_dims": [int(n) for n in block.core_dims],
        "origin_voxel": [int(o) for o in block.origin],
        "ghost": 1,
        "spacing": [float(s) for s in block.spacing],
        "order": "x-fastest",
        "dtype": "<f4",
    }
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
