"""Analytic vector fields, voxel-brick rasterization, and trilinear sampling.

Three closed-form stand-in fields are provided, one per qualitative load
pattern of interest:

* ``abc``      -- chaotic trajectories spread over the whole domain,
* ``jets``     -- long domain-spanning trajectories (a 3D double gyre with
                  weak vertical transport),
* ``toroidal`` -- orbital trajectories concentrated around a central ring.

All fields are defined on the unit cube ``[0, 1]^3`` and are pure: the same
point always evaluates to the same vector, bit-exactly.

This module owns the geometry of the one voxel lattice. It has
``resolution`` nodes per axis at positions ``i * spacing`` with ``spacing =
1 / (resolution - 1)`` (:func:`lattice_spacing`); the run seeds particles on
its nodes (:func:`seed_axes`). It is rasterized once into an array padded
with one edge-replicated ghost node per side (:func:`rasterize_global`): the
toroidal field in one compiled pass over the nodes, ``rk4_toroidal`` in
``rk4.c``, and the others in cache-sized slabs of whole x-planes on
broadcast axis vectors. The values' max|v|, for the step's ghost-margin
check and for finiteness, is taken as they are written, so no later pass
reads the lattice to validate it.
A :class:`Block` is core bounds over that one shared array, for one extent
or one per rank; it samples a one-cell ghost layer around its core and
copies nothing.
Throughout this module "g-space" means position divided by spacing, i.e.
fractional node coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, InvariantError, OutOfBlockError

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

    def components(self, x, y, z) -> tuple:
        """The field's ``(vx, vy, vz)`` at coordinates that broadcast together.

        Each operation runs on the broadcast shape of its own operands. No
        domain check; :func:`evaluate_field` is the checked single-point entry.
        """
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
        else:  # toroidal; rk4.c's rk4_toroidal rasterizes it, with the same operations
            dx, dy, dz = x - 0.5, y - 0.5, z - 0.5
            rho = np.maximum(np.sqrt(dx * dx + dy * dy), _EPS)
            rs = np.maximum(np.sqrt((rho - p["R0"]) ** 2 + dz * dz), _EPS)
            k = p["kappa"]
            vx = -dy / rho + k * (-dz * dx / rho) / rs
            vy = dx / rho + k * (-dz * dy / rho) / rs
            vz = k * (rho - p["R0"]) / rs
        return vx, vy, vz

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """The field at ``points`` of shape ``(..., 3)``: :meth:`components`, stacked."""
        pts = np.asarray(points, dtype=np.float64)
        return np.stack(self.components(pts[..., 0], pts[..., 1], pts[..., 2]), axis=-1)


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


def seed_axes(resolution, aabb_scale: float, stride) -> list[np.ndarray]:
    """Per axis, the indices of the seeding lattice nodes.

    They are every ``stride``-th node, anchored at node 0, whose position
    lies in the axis-aligned box of side ``aabb_scale`` centered at 0.5.
    """
    lo, hi = 0.5 - aabb_scale / 2.0, 0.5 + aabb_scale / 2.0
    axes = []
    for r, s, h in zip(resolution, stride, lattice_spacing(resolution)):
        idx = np.arange(0, r, s, dtype=np.int64)
        pos = idx * h
        axes.append(idx[(pos >= lo) & (pos <= hi)])
    return axes


# Lattice nodes evaluated at once, so a 64^3 lattice is 4 slabs and each
# full-shape temporary of a slab is 512 KiB, where one slab of the whole
# lattice would add 0.9 of the padded lattice to the peak (tracemalloc).
_SLAB_NODES = 1 << 16


def rasterize_global(field: AnalyticField, resolution, *, padded: bool = False,
                     step: float | None = None) -> np.ndarray:
    """Evaluate ``field`` on the full voxel lattice.

    Returns a read-only array of shape ``(rx, ry, rz, 3)`` indexed
    ``[ix, iy, iz]``, or with ``padded`` the lattice with one edge-replicated
    ghost node per side: entry ``[i + 1, j + 1, k + 1]`` holds node
    ``(i, j, k)`` clamped to the lattice. The padded array is allocated
    first. The toroidal :class:`AnalyticField` is written into it in one
    pass over the nodes, by the kernel library's ``rk4_toroidal``, with the
    operations of :meth:`~AnalyticField.components` in their order, so the
    bytes are numpy's. Any other field is written in slabs of whole
    x-planes, each evaluating :meth:`~AnalyticField.components` on the
    broadcast axes ``(n, 1, 1)``, ``(1, ry, 1)`` and ``(1, 1, rz)``, so a
    component that depends on fewer axes is a vector or plane until it is
    written. Either way the values' max|v| is taken as they are written, and
    a value that is not finite is a :class:`ConfigError`.
    Given an RK4 ``step``, stage points must stay within one ghost cell of a
    block's core, so a handed-off step is computable by some rank, and half a
    cell inside the hull-side sampling bounds, so every block exit crosses an
    inner face: ``2 * step * max|v|`` above the smallest spacing is a
    :class:`ConfigError`. One shared global rasterization keeps every
    block's ghost layer bit-identical to its neighbor's core by construction.
    """
    res = _check_resolution(resolution)
    spacing = lattice_spacing(res)
    rx, ry, rz = res
    lattice = np.empty((rx + 2, ry + 2, rz + 2, 3), dtype=np.float64)
    if isinstance(field, AnalyticField) and field.kind == "toroidal":
        from .advect import KERNEL  # here, since advect imports this module

        p = field.params
        vmax = KERNEL.rk4_toroidal(rx, ry, rz, spacing.ctypes, p["R0"], p["kappa"], _EPS, lattice.ctypes)
    else:
        ax = [np.arange(r, dtype=np.float64) * spacing[a] for a, r in enumerate(res)]
        planes, vmax = max(1, _SLAB_NODES // (ry * rz)), 0.0
        for x0 in range(0, rx, planes):
            n = min(planes, rx - x0)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported just below
                values = field.components(ax[0][x0:x0 + n, np.newaxis, np.newaxis], ax[1][:, np.newaxis], ax[2])
            for d, v in enumerate(values):
                vmax = float(np.max((vmax, np.max(v), -np.min(v))))  # a NaN, once reached, stays
                lattice[1 + x0:1 + x0 + n, 1:-1, 1:-1, d] = v
            del values, v  # so that the next slab's temporaries reuse this slab's memory
    if not math.isfinite(vmax):
        raise ConfigError(f"field params: the {field.kind} field is not finite on the lattice")
    if step is not None and 2.0 * step * vmax > float(spacing.min()):
        raise ConfigError(f"step {step} too large for ghost margin: 2*h*max|v| = "
                          f"{2 * step * vmax:.3g} exceeds min spacing {spacing.min():.3g}")
    for axis in range(3):  # copy each face's edge nodes into its ghost layer, one axis after another
        faces = np.moveaxis(lattice, axis, 0)
        faces[0], faces[-1] = faces[1], faces[-2]
    lattice.setflags(write=False)
    return lattice if padded else lattice[1:-1, 1:-1, 1:-1]


@dataclass(frozen=True)
class Block:
    """Core bounds over the one shared, edge-padded lattice.

    ``origin`` and ``core_dims`` (int64) are one extent's ``(3,)`` bounds or a
    ``(ranks, 3)`` table read at each particle's home. An extent's core is the
    half-open g-space box ``[origin, origin + core_dims)``, sampled one ghost
    cell beyond, up to and including ``origin + core_dims``. Nothing is copied.
    """

    lattice: np.ndarray     # the padded rasterize_global result, shared by every block
    spacing: np.ndarray
    origin: np.ndarray
    core_dims: np.ndarray

    @cached_property
    def kernel_table(self) -> tuple:
        """The RK4 kernel's ``lattice, sx, sy, spacing, origin, core`` arguments, as ``ctypes`` views that hold
        their arrays alive: checked, once, that the lattice is a C-contiguous ``(x, y, z, 3)`` float64 array
        holding each core and its ghost layer."""
        lattice = self.lattice
        origin, core = (np.ascontiguousarray(a, dtype=np.int64).reshape(-1, 3) for a in (self.origin, self.core_dims))
        if not (lattice.dtype == np.float64 and lattice.flags.c_contiguous and lattice.ndim == 4
                and lattice.shape[3] == 3 and origin.shape == core.shape and (origin >= 0).all() and (core >= 1).all()
                and (origin + core <= np.array(lattice.shape[:3]) - 2).all()):
            raise InvariantError("block bounds outside a C-contiguous (x, y, z, 3) float64 padded lattice")
        spacing = np.ascontiguousarray(self.spacing, dtype=np.float64).reshape(3)
        _, py, pz, _ = lattice.shape
        return lattice.ctypes, py * pz, pz, spacing.ctypes, origin.ctypes, core.ctypes

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

    ``global_data`` is an unpadded :func:`rasterize_global` result, padded
    here with one edge-replicated ghost node per side; without it the padded
    lattice is rasterized here. Either way the lattice is read-only, and a
    block's ghost layer is its neighbors' core nodes by construction.
    """
    res = _check_resolution(global_resolution)
    origin = np.array([int(v) for v in origin_voxel], dtype=np.int64)
    core = np.array([int(v) for v in core_dims], dtype=np.int64)
    if np.any(core < 1):
        raise ConfigError(f"core_dims must be >= 1 per axis, got {tuple(core)}")
    if np.any(origin < 0) or np.any(origin + core > res):
        raise ConfigError(f"block origin={tuple(origin)} core={tuple(core)} exceeds resolution {res}")
    if global_data is None:
        lattice = rasterize_global(field, res, padded=True)
    else:
        lattice = np.pad(global_data, ((1, 1), (1, 1), (1, 1), (0, 0)), mode="edge")
        lattice.setflags(write=False)
    return Block(lattice, lattice_spacing(res), origin, core)


def sample_trilinear(block: Block, point) -> np.ndarray:
    """Sample ``block`` at a single point; the operation-level entry point."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,):
        raise ConfigError(f"expected a 3-vector point, got shape {p.shape}")
    return block.sample(p[np.newaxis, :])[0]
