"""Struct-of-arrays particle storage.

Queues are ordinary numpy arrays kept in FIFO order; slicing and
concatenation preserve order, which the runtime relies on for determinism.
A particle held by a rank other than its ``home`` is on loan from its home.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return ParticleSet(
            ids=np.empty(0, dtype=np.int64),
            pos=np.empty((0, 3), dtype=np.float64),
            remaining=np.empty(0, dtype=np.int64),
            home=np.empty(0, dtype=np.int64),
        )

    @staticmethod
    def make(ids, pos, remaining, home) -> "ParticleSet":
        ids = np.asarray(ids, dtype=np.int64)
        n = ids.shape[0]
        return ParticleSet(
            ids=ids,
            pos=np.asarray(pos, dtype=np.float64).reshape(n, 3),
            remaining=np.asarray(remaining, dtype=np.int64),
            home=np.asarray(home, dtype=np.int64),
        )

    def select(self, index) -> "ParticleSet":
        return ParticleSet(
            ids=self.ids[index],
            pos=self.pos[index],
            remaining=self.remaining[index],
            home=self.home[index],
        )

    def copy(self) -> "ParticleSet":
        return ParticleSet(
            ids=self.ids.copy(),
            pos=self.pos.copy(),
            remaining=self.remaining.copy(),
            home=self.home.copy(),
        )


def concat_particles(parts: list[ParticleSet]) -> ParticleSet:
    parts = [p for p in parts if len(p)]
    if not parts:
        return ParticleSet.empty()
    return ParticleSet(
        ids=np.concatenate([p.ids for p in parts]),
        pos=np.concatenate([p.pos for p in parts]),
        remaining=np.concatenate([p.remaining for p in parts]),
        home=np.concatenate([p.home for p in parts]),
    )
