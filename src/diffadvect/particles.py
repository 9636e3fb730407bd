"""Struct-of-arrays particle storage.

A :class:`ParticleSet` is a table of particle rows. ``home`` is the rank
whose block a particle samples and whose queue holds it between rounds.
Row order is queue order: the simulator keeps its table in ``home`` order,
so each rank's queue is one run of rows, head first. A loan lasts one round
and never moves its row, so the table records none. A round advances its
selected rows in place; compacting and concatenating keep the rows' order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass
class ParticleSet:
    ids: np.ndarray
    pos: np.ndarray
    remaining: np.ndarray
    home: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @staticmethod
    def empty() -> "ParticleSet":
        return ParticleSet.make([], np.empty((0, 3)), [], [])

    @staticmethod
    def make(ids, pos, remaining, home) -> "ParticleSet":
        """A table of C-contiguous columns, as the kernel, which advances them in place, requires."""
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        return ParticleSet(
            ids=ids,
            pos=np.ascontiguousarray(pos, dtype=np.float64).reshape(ids.shape[0], 3),
            remaining=np.ascontiguousarray(remaining, dtype=np.int64),
            home=np.ascontiguousarray(home, dtype=np.int64),
        )

    def _columns(self):
        return (getattr(self, f.name) for f in fields(self))

    def compact(self, index) -> None:
        """Keep rows ``index`` in place, a column at a time, so one old column is alive beside the new."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name)[index])


def concat_particles(parts: list[ParticleSet]) -> ParticleSet:
    parts = [p for p in parts if len(p)]
    if not parts:
        return ParticleSet.empty()
    return ParticleSet(*(np.concatenate(columns) for columns in zip(*(p._columns() for p in parts))))
