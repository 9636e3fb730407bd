"""Test helpers over particle tables."""

from diffadvect.particles import ParticleSet


def subset(p, index):
    """Rows ``index`` of the table ``p``, gathered into a new table."""
    return ParticleSet(*(column[index] for column in (p.ids, p.pos, p.remaining, p.home)))
