"""The batched kernel behind the sampled half-space checks.

The bullet and glueing samplers draw points of a complex box, one draw being
``rng.uniform(-radius, radius, 4)``. One call ``rng.uniform(-radius, radius,
(m, 4))`` yields the same numbers in the same order as m such draws, and so
does ``fill_uniform`` into an (m, 4) buffer, bit for bit. The kernel fills
one buffer of at most CHUNK draws per call, chunk after chunk, and still
replays the per-draw random stream, draw for draw: a report depends only on
the seed.

Every sampler keeps only the draws inside the ball of the configuration's
area form, which is real diagonal. ``ball_filter`` reads that form once per
sampler call; its filter runs on the raw real draws, so only the kept
draws, copied out of the buffer, become complex points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dmlat.arithmetic import HermitianForm3, no_finite_point

CHUNK = 8192


class NotRealDiagonal(ValueError):
    """A Hermitian form handed to ``ball_filter`` is not real diagonal."""


@dataclass(frozen=True, eq=False)
class Bullet:
    """One half-space equivalence of a sampled check.

    It reads im(phase * x[coord - 1]) at the point x of chart ``chart``,
    negated unless ``im_leq``, against |plain @ p|^2 - |mapped @ p|^2 at the
    point p of chart ``dist_chart``, where plain and mapped are polars n as
    read-only rows n* H / sqrt|n* H n| (``polyhedron._polar_row``), so that a
    cached table of bullets can be shared; bullets compare by identity.
    """

    chart: int
    phase: complex
    coord: int
    im_leq: bool
    dist_chart: int
    plain: np.ndarray
    mapped: np.ndarray


@dataclass(frozen=True)
class BulletReport:
    """Sampled agreement of the bullets of one check, in table order.

    ``max_near_zero_discrepancy`` is the largest max(|im|, |dist|) over the
    neutral draws read (``first_decisive``). ``samples_used`` below
    ``samples_requested`` means the draw cap was reached; ``all_agree``
    reads the agreement alone, not the shortfall.
    """

    per_bullet_agreement: tuple[float, ...]
    samples_used: tuple[int, ...]
    max_near_zero_discrepancy: float
    samples_requested: int

    @property
    def all_agree(self) -> bool:
        return all(a == 1.0 for a in self.per_bullet_agreement)


def box_radius(vertices) -> float:
    """Half-width of a sampling box: 1.5x the cloud of the finite vertices."""
    return 1.5 * max(np.max(np.abs(v[:2])) for v in vertices if not no_finite_point(v))


def affine_points(r: np.ndarray) -> np.ndarray:
    """The points (r0 + i r1, r2 + i r3, 1), one per column of a (4, m) array."""
    return np.vstack([r[0] + 1j * r[1], r[2] + 1j * r[3],
                      np.ones(r.shape[1], dtype=complex)])


def fill_uniform(rng: np.random.Generator, radius: float,
                 buf: np.ndarray) -> np.ndarray:
    """Fill the float64 array buf with ``rng.uniform(-radius, radius, buf.shape)``.

    numpy computes uniform(low, high) as low + (high - low) u, with u from
    ``rng.random()``; here high - low is 2 radius, and (2 radius u) - radius
    is the same sum, so the numbers are equal bit for bit and no array is
    allocated. Returns buf.
    """
    rng.random(out=buf)
    buf *= 2 * radius
    buf -= radius
    return buf


def ball_filter(h: HermitianForm3, m: int):
    """The draws in the ball of h, copied out of (4, k) arrays of draws, k <= m.

    For h = diag(d0, d1, d2), real, the point (r0 + i r1, r2 + i r3, 1) has
    norm d0 (r0^2 + r1^2) + d1 (r2^2 + r3^2) + d2, and lies in the ball when
    that is positive. The form is read here, once; any other form raises
    ``NotRealDiagonal``. The returned filter sums row by row in scratch rows
    of length m allocated here, and returns the kept columns, in order, as
    a new array, never a view of its argument.
    """
    d = h.matrix.diagonal().real
    if np.any(h.matrix != np.diag(d)):
        raise NotRealDiagonal("the ball test needs a real diagonal form")
    scratch = np.empty((3, m))

    def in_ball(r: np.ndarray) -> np.ndarray:
        s0, s1, square = scratch[:, :r.shape[1]]
        np.square(r[0], out=s0)
        s0 += np.square(r[1], out=square)
        s0 *= d[0]
        np.square(r[2], out=s1)
        s1 += np.square(r[3], out=square)
        s1 *= d[1]
        s0 += s1
        # take() gathers the kept columns several times faster than r[:, keep].
        return r.take(np.flatnonzero(s0 > -d[2]), axis=1)
    return in_ball


def ball_draws(h: HermitianForm3, radius: float, seed: int, cap: int,
               maps: tuple[np.ndarray, ...] = ()):
    """Yield the draws inside the ball, chunk by chunk, in draw order.

    At most ``cap`` draws are made from ``default_rng(seed)``, in chunks of at
    most CHUNK, each filled into the same (CHUNK, 4) buffer (a leading slice
    of it for a partial last chunk). The form is read once, before any draw
    (``ball_filter``). A draw is kept when it lies in the ball and its image
    under each matrix of ``maps`` has a third coordinate of modulus at least
    1e-9. Each chunk yields the charts of the kept draws, none a view of the
    buffer: the points as a (3, k) array, then their images under ``maps``,
    scaled to third coordinate 1.
    """
    size = min(CHUNK, cap)
    in_ball = ball_filter(h, size)
    rng = np.random.default_rng(seed)
    buf = np.empty((size, 4))
    for start in range(0, cap, CHUNK):
        z = affine_points(in_ball(fill_uniform(rng, radius, buf[:cap - start]).T))
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
