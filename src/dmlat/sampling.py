"""The batched kernel behind the sampled half-space checks.

The bullet and glueing samplers draw points of a complex box, one draw being
``rng.uniform(-radius, radius, 4)``. One call ``rng.uniform(-radius, radius,
(m, 4))`` yields the same numbers in the same order as m such draws, so the
kernel evaluates chunks of at most CHUNK draws at once and still replays the
per-draw random stream, draw for draw: a report depends only on the seed.

Every sampler keeps only the draws inside the ball of the configuration's
area form, which is real diagonal. ``near_ball`` screens the raw real draws
against that form first, with a few real array operations and a margin far
above rounding; only its survivors become complex points and meet the exact
test ``hermitian_eval(h, z) > 0``. The screen drops no draw that the exact
test keeps, so the kept draws, their order and the reports are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dmlat.arithmetic import HermitianForm3, hermitian_eval, no_finite_point, read_only

CHUNK = 8192


class NotRealDiagonal(ValueError):
    """A Hermitian form handed to ``near_ball`` is not real diagonal."""


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


def near_ball(h: HermitianForm3, r: np.ndarray) -> np.ndarray:
    """Which draws may lie in the ball of h, for the columns of a (4, m) array.

    For h = diag(d0, d1, d2), real, the point (r0 + i r1, r2 + i r3, 1) has
    norm v = d0 s0 + d1 s1 + d2, where s0 = r0^2 + r1^2 and s1 = r2^2 + r3^2.
    A column passes when v > -1e-9 (|d0| s0 + |d1| s1 + |d2|), tested as
    e0 s0 + e1 s1 + e2 > 0 with e = d + 1e-9 |d|. The margin is far above the
    rounding of either sum, so every draw with ``hermitian_eval(h, z) > 0``
    passes. A dropped draw is never handed to ``hermitian_eval``, and no
    ``NonRealResult`` check is lost with it: for a real diagonal h the
    imaginary part of z* h z is pure rounding, of the order of 1e-16 times
    the terms of v, far below the check's 1e-12 floor on the samplers'
    boxes. Any other form raises ``NotRealDiagonal``.
    """
    d = h.matrix.diagonal().real
    if np.any(h.matrix != np.diag(d)):
        raise NotRealDiagonal("the ball screen needs a real diagonal form")
    e = d + 1e-9 * np.abs(d)
    # Row by row and in place: a fresh (4, m) temporary per batch costs more
    # in new memory pages than the sums themselves.
    s0 = np.square(r[0])
    s0 += np.square(r[1])
    s0 *= e[0]
    s1 = np.square(r[2])
    s1 += np.square(r[3])
    s1 *= e[1]
    s0 += s1
    return s0 > -e[2]


def ball_draws(h: HermitianForm3, radius: float, seed: int, cap: int,
               maps: tuple[np.ndarray, ...] = ()):
    """Yield the draws inside the ball, chunk by chunk, in draw order.

    At most ``cap`` draws are made from ``default_rng(seed)``, in chunks of at
    most CHUNK. A draw is kept when its Hermitian norm is positive and its
    image under each matrix of ``maps`` has a third coordinate of modulus at
    least 1e-9. The norm is screened on the raw draws by ``near_ball``, then
    checked by ``hermitian_eval`` on every draw that passed the screen; the
    screen drops only draws outside the ball, so the kept draws are those
    that ``hermitian_eval`` keeps of the whole chunk. Each chunk yields the
    charts of the kept draws: the points as a (3, k) array, then their
    images under ``maps``, scaled to third coordinate 1.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, cap, CHUNK):
        r = rng.uniform(-radius, radius, (min(CHUNK, cap - start), 4)).T
        z = affine_points(r.take(np.flatnonzero(near_ball(h, r)), axis=1))
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
