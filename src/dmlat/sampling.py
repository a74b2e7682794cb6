"""The batched kernel behind the sampled half-space checks.

The bullet and glueing samplers draw points of a complex box, one draw being
``rng.uniform(-radius, radius, 4)``. One call ``rng.uniform(-radius, radius,
(m, 4))`` yields the same numbers in the same order as m such draws, so the
kernel evaluates chunks of at most CHUNK draws at once and still replays the
per-draw random stream, draw for draw: a report depends only on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dmlat.arithmetic import HermitianForm3, hermitian_eval, read_only

CHUNK = 8192


@dataclass(frozen=True, eq=False)
class Bullet:
    """One half-space equivalence of a sampled check.

    It reads im(phase * x[coord - 1]) at the point x of chart ``chart``,
    negated unless ``im_leq``, against |plain @ p|^2 - |mapped @ p|^2 at the
    point p of chart ``dist_chart``, where plain and mapped are normals n as
    rows n* H. The rows are made read-only, so that a cached table of
    bullets can be shared; bullets compare by identity, not by their rows.
    """

    chart: int
    phase: complex
    coord: int
    im_leq: bool
    dist_chart: int
    plain: np.ndarray
    mapped: np.ndarray

    def __post_init__(self) -> None:
        read_only(self.plain)
        read_only(self.mapped)


def affine_points(r: np.ndarray) -> np.ndarray:
    """The points (r0 + i r1, r2 + i r3, 1), one per column of a (4, m) array."""
    return np.vstack([r[0] + 1j * r[1], r[2] + 1j * r[3],
                      np.ones(r.shape[1], dtype=complex)])


def ball_draws(h: HermitianForm3, radius: float, seed: int, cap: int,
               maps: tuple[np.ndarray, ...] = ()):
    """Yield the draws inside the ball, chunk by chunk, in draw order.

    At most ``cap`` draws are made from ``default_rng(seed)``, in chunks of at
    most CHUNK. A draw is kept when its Hermitian norm is positive (checked
    by ``hermitian_eval`` on every draw of the chunk) and its image under
    each matrix of ``maps`` has a third coordinate of modulus at least 1e-9.
    Each chunk yields the charts of the kept draws: the points as a (3, k)
    array, then their images under ``maps``, scaled to third coordinate 1.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, cap, CHUNK):
        r = rng.uniform(-radius, radius, (min(CHUNK, cap - start), 4))
        z = affine_points(r.T)
        z = z[:, hermitian_eval(h, z) > 0]
        images = [m @ z for m in maps]
        keep = np.ones(z.shape[1], dtype=bool)
        for image in images:
            keep &= np.abs(image[2]) >= 1e-9
        yield (z[:, keep], *(im[:, keep] / im[2, keep] for im in images))


def first_decisive(im: np.ndarray, dist: np.ndarray, neutral: float,
                   need: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Sign agreement of im and dist over each bullet's first decisive draws.

    Row b of the (bullets, draws) arrays holds bullet b's values on
    successive draws. A draw is decisive for a bullet when neither |im| nor
    |dist| is within ``neutral``; a bullet reads its draws in order until it
    has ``need[b]`` decisive ones. Returns, per bullet, the decisive draws
    used and how many of them have im and dist of the same sign, and the
    largest max(|im|, |dist|) over the neutral draws read by any bullet
    (0.0 if none).
    """
    decisive = ~((np.abs(im) <= neutral) | (np.abs(dist) <= neutral))
    read = np.cumsum(decisive, axis=1) - decisive < need[:, None]
    taken = decisive & read
    near = np.maximum(np.abs(im), np.abs(dist))[read & ~decisive]
    return (taken.sum(axis=1), (taken & ((im < 0) == (dist < 0))).sum(axis=1),
            float(near.max(initial=0.0)))


def bullet_agreement(draws, bullets: tuple[Bullet, ...], n_samples: int,
                     neutral: float):
    """Each bullet's sign agreement over its first n_samples decisive draws.

    ``draws`` yields chunks of charts, as ``ball_draws`` does; chart k of a
    chunk is the k-th array it yields. Reading stops once every bullet is
    done. Returns the agreement fractions (0.0 for a bullet with no
    decisive draw), the samples used and the near-zero maximum.
    """
    used = np.zeros(len(bullets), dtype=int)
    agree = np.zeros(len(bullets), dtype=int)
    near = 0.0
    for charts in draws:
        im = np.array([(b.phase * charts[b.chart][b.coord - 1]).imag
                       * (1 if b.im_leq else -1) for b in bullets])
        dist = np.array([np.abs(b.plain @ charts[b.dist_chart]) ** 2
                         - np.abs(b.mapped @ charts[b.dist_chart]) ** 2
                         for b in bullets])
        u, a, n = first_decisive(im, dist, neutral, n_samples - used)
        used += u
        agree += a
        near = max(near, n)
        if used.min() >= n_samples:
            break
    return (tuple(int(a) / int(u) if u else 0.0 for a, u in zip(agree, used)),
            tuple(int(u) for u in used), near)
