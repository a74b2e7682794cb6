"""The 13-signature catalog, derived parameters and degeneracy classification.

Every order k', l, l' and d is derived here, exactly, as an ``ExtOrder``,
and an angle q*pi is a ``PiRational`` q. The module imports no numpy and
no other module of the package but ``dmlat.record``.

``DerivedParams.degenerate`` is the one degeneracy rule of the group-level
data: a named order k', l, l' or d that is not positive finite is degenerate.
It decides the orbit rows that ``dmlat.verification.apply_degenerations``
deletes, and so the collapsed ridges, which are the ridges those rows name,
and the cycle orders that are skipped. A chart of the polyhedron reads the
same orders from its own angles (``dmlat.polyhedron.collapsed_vertices``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from dmlat.record import Record

# A PiRational is a reduced rational q representing the angle q*pi.
# Fraction already enforces the reduced-form invariant.
PiRational = Fraction

# The thirteen (p, k, p') rows, in canonical order.
_CATALOG_ROWS: tuple[tuple[int, int, int], ...] = (
    (6, 6, 3),
    (10, 10, 5),
    (12, 12, 6),
    (18, 18, 9),
    (4, 4, 3),
    (4, 4, 5),
    (4, 4, 6),
    (3, 3, 4),
    (3, 3, 3),
    (2, 6, 6),
    (2, 4, 3),
    (2, 3, 3),
    (3, 4, 4),
)


class NonIntegerOrder(ValueError):
    """A derived reciprocal is a non-integer rational, so not a valid order."""


class ExtOrder(Record):
    """Order of a map: a nonzero integer (sign meaningful) or infinity.

    ``value`` is None for the infinite order, else of type int (not bool).
    """

    value: int | None

    def __post_init__(self) -> None:
        if self.value is not None and type(self.value) is not int:
            raise TypeError(f"an order is an int or None, not {self.value!r}")
        if self.value == 0:
            raise ValueError("order magnitude must be >= 1")

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def is_positive(self) -> bool:
        return self.value is not None and self.value > 0

    @property
    def is_negative(self) -> bool:
        return self.value is not None and self.value < 0

    @property
    def status(self) -> str:
        """The sign class: "positive-finite", "negative" or "infinite"."""
        if self.is_infinite:
            return "infinite"
        return "positive-finite" if self.is_positive else "negative"

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)

    def to_json(self) -> int | str:
        return "inf" if self.value is None else self.value


class LatticeSignature(Record):
    """An integer triple (p, k, p'); non-catalog triples are flagged.

    An entry that is not an int, a bool among them, raises ``TypeError``.
    """

    p: int
    k: int
    p_prime: int

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, (self.p, self.k, self.p_prime)):
            if type(value) is not int:
                raise TypeError(f"LatticeSignature.{name} is an int, not {value!r}")

    @property
    def in_catalog(self) -> bool:
        return (self.p, self.k, self.p_prime) in _CATALOG_ROWS

    def __str__(self) -> str:
        return f"({self.p},{self.k},{self.p_prime})"


class DerivedParams(Record):
    """Angles (as multiples of pi) and extended-integer orders for a triple."""

    alpha: PiRational
    theta: PiRational
    phi: PiRational
    k_prime: ExtOrder
    l: ExtOrder
    l_prime: ExtOrder
    d: ExtOrder

    @property
    def named_orders(self) -> dict[str, ExtOrder]:
        """k', l, l' and d, keyed by their order symbols."""
        return {"k'": self.k_prime, "l": self.l, "l'": self.l_prime, "d": self.d}

    @property
    def degenerate(self) -> dict[str, ExtOrder]:
        """The named orders that are not positive finite, in the same order."""
        return {name: order for name, order in self.named_orders.items()
                if not order.is_positive}


def catalog() -> list[LatticeSignature]:
    """All 13 signatures in canonical order."""
    return [LatticeSignature(*row) for row in _CATALOG_ROWS]


def _reciprocal(q: Fraction) -> ExtOrder:
    """Exact reciprocal of a pi-rational, as an extended-integer order."""
    if q == 0:
        return ExtOrder(None)
    r = 1 / q
    if r.denominator != 1:
        raise NonIntegerOrder(f"reciprocal of {q} is not an integer")
    return ExtOrder(r.numerator)


@cache
def derive_params(sig: LatticeSignature) -> DerivedParams:
    """Exact rational computation of alpha, theta, phi, k', l, l', d, made
    once per signature."""
    if min(sig.p, sig.k, sig.p_prime) < 2:
        raise ValueError("p, k, p' must all be >= 2")
    theta = Fraction(1, sig.p)
    phi = Fraction(1, sig.k)
    alpha = Fraction(1, 2) + Fraction(1, sig.p_prime)
    return DerivedParams(
        alpha=alpha,
        theta=theta,
        phi=phi,
        k_prime=_reciprocal(1 + theta + phi - 2 * alpha),
        l=_reciprocal(alpha - theta - phi),
        l_prime=_reciprocal(1 - alpha - phi),
        d=_reciprocal(1 - alpha - theta),
    )


class AngleOutOfRange(ValueError):
    """A cone angle fell outside the open interval (0, 2*pi)."""


def cone_angles(sig: LatticeSignature) -> tuple[PiRational, ...]:
    """The five cone angles, as multiples of pi, for a signature.

    The tuple is (2(pi+phi-alpha), 2 alpha, 2 beta, 2(pi+theta-beta),
    2(pi-theta-phi)) with beta = alpha; the angle deficits sum to 4*pi.
    """
    params = derive_params(sig)
    a, t, f = params.alpha, params.theta, params.phi
    angles = (2 * (1 + f - a), 2 * a, 2 * a, 2 * (1 + t - a), 2 * (1 - t - f))
    for ang in angles:
        if not (0 < ang < 2):
            raise AngleOutOfRange(f"cone angle {ang}*pi out of (0, 2*pi)")
    if sum(2 - ang for ang in angles) != 4:
        raise AngleOutOfRange("cone angle deficits do not sum to 4*pi")
    return angles

