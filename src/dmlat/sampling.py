"""The batched kernel behind the sampled checks: one generator of draws.

Every sampler draws points of C^2 and keeps those inside the ball of the
configuration's area form diag(d0, d1, d2), given as its three reals
(``moves.hermitian_form``). ``ball_batches`` is the
one generator that seeds, draws a batch (``fill_sectors``), keeps the draws
in the ball (``ball_filter``) and stops at the draw cap, so a report depends
only on the seed. Its one proposal draws arg z1 and arg z2 uniform in two
arcs and (|z1|, |z2|) uniform by area inside the ball: the whole circle for
the bullet samplers (``ball_draws``), D's z-sectors for the domain sampler
of ``tessellate``. No draw is dropped for a chart image at infinity: every
chart map a sampler applies is an isometry onto a ball, which sends the
closed ball to finite points.
"""

from __future__ import annotations

import math

import numpy as np

from dmlat.arithmetic import DRAWS_PER_SAMPLE
from dmlat.record import Record

# The draws of one batch. All of them but boundary rounding land in the ball;
# the arrays a sampler computes from the draws a batch keeps stay small.
BATCH = 1024
# The arcs of the bullet samplers: arg z1 and arg z2 anywhere on the circle.
FULL_ARCS = ((-math.pi, math.pi), (-math.pi, math.pi))


class Bullet(Record, eq=False):
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


class BulletReport(Record):
    """Sampled agreement of the bullets of one check, in table order.

    ``max_near_zero_discrepancy`` is the largest max(|im|, |dist|) over the
    neutral draws read (``first_decisive``). ``samples_used`` below
    ``samples_requested`` means the draw cap was reached, and ``all_agree``
    is then False whatever the agreement.
    """

    per_bullet_agreement: tuple[float, ...]
    samples_used: tuple[int, ...]
    max_near_zero_discrepancy: float
    samples_requested: int

    @property
    def all_agree(self) -> bool:
        return (min(self.samples_used) == self.samples_requested
                and all(a == 1.0 for a in self.per_bullet_agreement))


def affine_points(r: np.ndarray) -> np.ndarray:
    """The points (r0 + i r1, r2 + i r3, 1), one per column of a (4, m) array."""
    return np.vstack([r[0] + 1j * r[1], r[2] + 1j * r[3],
                      np.ones(r.shape[1], dtype=complex)])


def ball_bounds(d: np.ndarray) -> np.ndarray:
    """The bounds of |z1| and |z2| on the ball of the form d = (d0, d1, d2).

    A point of the ball has d0 |z1|^2 + d1 |z2|^2 > -d2 with d0, d1 < 0, so
    |z_i| < sqrt(-d2 / d_i); the points with the other coordinate 0 come
    arbitrarily close to the bound.
    """
    return np.sqrt(-d[2] / d[:2])


def ball_filter(d: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The draws of the (4, k) array r in the ball of d, in order, as a new array.

    For the form d = (d0, d1, d2), the point (r0 + i r1, r2 + i r3, 1) has
    norm d0 (r0^2 + r1^2) + d1 (r2^2 + r3^2) + d2, and lies in the ball when
    that is positive.
    """
    keep = (r[0] ** 2 + r[1] ** 2) * d[0] + (r[2] ** 2 + r[3] ** 2) * d[1] > -d[2]
    # take() gathers the kept columns several times faster than r[:, keep].
    return r.take(np.flatnonzero(keep), axis=1)


def fill_sectors(rng: np.random.Generator, arcs: tuple[tuple[float, float], ...],
                 bounds: np.ndarray) -> np.ndarray:
    """One (4, BATCH) batch of draws uniform in the ball's sectors.

    Column j is the point (r0 + i r1, r2 + i r3, 1) with arg z_i uniform in
    the arc ``arcs[i]`` = (lo, hi) and |z_i|^2 = t_i bounds[i]^2, where
    (t1, t2) is uniform in the triangle t1 + t2 < 1. For the bounds of
    ``ball_bounds`` that triangle is the ball, so the draws are uniform by
    area in ball and sectors. Row 2i of ``rng.uniform`` on [-1, 1) gives the
    argument and row 2i + 1 the modulus. The square of (t1, t2) they give is
    folded onto the triangle by the point reflection t -> 1 - t where
    t1 + t2 > 1, which keeps the law uniform.
    """
    u = rng.uniform(-1.0, 1.0, (4, BATCH))
    # t_i = (u_i + 1) / 2 with u_i in row 2i + 1, so t1 + t2 > 1 where
    # u1 + u2 > 0, and 1 - t_i = (1 - u_i) / 2: the fold negates u, exactly.
    moduli = np.where(u[1::2].sum(axis=0) > 0, -u[1::2], u[1::2])
    rows = []
    for (lo, hi), bound, arg, modulus in zip(arcs, bounds, u[::2], moduli):
        arg = arg * ((hi - lo) / 2) + (hi + lo) / 2
        radius = np.sqrt((modulus + 1.0) * (bound ** 2 / 2))
        rows += [radius * np.cos(arg), radius * np.sin(arg)]
    return np.array(rows)


def ball_batches(d: np.ndarray, arcs: tuple[tuple[float, float], ...],
                 seed: int, n: int):
    """Yield the draws inside the ball of the form d, batch by batch, in draw order.

    A batch is the (4, BATCH) array of ``fill_sectors`` from
    ``default_rng(seed)``: arg z1 and arg z2 uniform in the two ``arcs``,
    (|z1|, |z2|) uniform by area inside the ball (``ball_bounds``).
    The draw cap, for a caller that asks for n samples, is DRAWS_PER_SAMPLE
    n draws rounded up to whole batches, so that a seed gives one stream
    whatever n is. A batch yields its draws in the ball (``ball_filter``) as
    a (4, k) array. An n below 1 raises ``ValueError`` before the first draw.
    """
    if n < 1:
        raise ValueError(f"a sampler asks for at least 1 sample, not {n}")
    bounds = ball_bounds(d)
    rng = np.random.default_rng(seed)
    for _ in range(-(-DRAWS_PER_SAMPLE * n // BATCH)):
        yield ball_filter(d, fill_sectors(rng, arcs, bounds))


def ball_draws(d: np.ndarray, seed: int, n: int,
               maps: tuple[np.ndarray, ...]):
    """The points of the ball, uniform, for a sampler that asks for n samples.

    Each batch of ``ball_batches`` on ``FULL_ARCS`` yields its draws as a
    (3, k) array of points (``affine_points``), then their images under each
    matrix of ``maps``, scaled to third coordinate 1. Every map a sampler
    passes is an isometry onto a ball, so no image of a point of the ball is
    at infinity.
    """
    for r in ball_batches(d, FULL_ARCS, seed, n):
        z = affine_points(r)
        images = [m @ z for m in maps]
        yield (z, *(image / image[2] for image in images))


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
                     neutral: float) -> BulletReport:
    """Each bullet's sign agreement over its first n_samples decisive draws.

    ``draws`` yields chunks of charts, as ``ball_draws`` does; chart k of a
    chunk is the k-th array it yields. Reading stops once every bullet is
    done. Returns the report: the agreement fractions (0.0 for a bullet
    with no decisive draw), the samples used and the near-zero maximum.
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
    return BulletReport(
        tuple(int(a) / int(u) if u else 0.0 for a, u in zip(agree, used)),
        tuple(int(u) for u in used), near, n_samples)
