"""The 13-signature catalog, derived parameters and degeneracy classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from dmlat.arithmetic import ExtOrder, PiRational

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


@dataclass(frozen=True)
class LatticeSignature:
    """An integer triple (p, k, p'); non-catalog triples are flagged."""

    p: int
    k: int
    p_prime: int

    @property
    def in_catalog(self) -> bool:
        return (self.p, self.k, self.p_prime) in _CATALOG_ROWS

    def __str__(self) -> str:
        return f"({self.p},{self.k},{self.p_prime})"


@dataclass(frozen=True)
class DerivedParams:
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


@dataclass(frozen=True)
class DegeneracyReport:
    """Per-parameter status and the ridge collapses those statuses imply."""

    k_prime: str
    l: str
    l_prime: str
    d: str
    collapsed_ridges: tuple[str, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)


def catalog() -> list[LatticeSignature]:
    """All 13 signatures in canonical order."""
    return [LatticeSignature(*row) for row in _CATALOG_ROWS]


def _reciprocal(q: Fraction) -> ExtOrder:
    """Exact reciprocal of a pi-rational, as an extended-integer order."""
    if q == 0:
        return ExtOrder.infinite()
    r = 1 / q
    if r.denominator != 1:
        raise NonIntegerOrder(f"reciprocal of {q} is not an integer")
    return ExtOrder.finite(r.numerator)


def derive_params(sig: LatticeSignature) -> DerivedParams:
    """Exact rational computation of alpha, theta, phi, k', l, l', d."""
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


def _status(order: ExtOrder) -> str:
    if order.is_infinite:
        return "infinite"
    return "positive-finite" if order.is_positive else "negative"


# Reference collapse table, used only as a cross-check (see classify notes).
_REFERENCE_DEGENERATE: dict[tuple[int, int, int], frozenset[str]] = {
    (4, 4, 6): frozenset(),
    (4, 4, 5): frozenset(),
    (3, 4, 4): frozenset({"l'", "d"}),
    (2, 4, 3): frozenset({"l'", "d"}),
    (3, 3, 4): frozenset({"l'", "d"}),
    (2, 6, 6): frozenset({"l", "d"}),
    (2, 3, 3): frozenset({"l", "l'", "d"}),
    (3, 3, 3): frozenset({"k'", "l'", "d"}),
    (4, 4, 3): frozenset({"k'", "l'", "d"}),
    (6, 6, 3): frozenset({"k'", "l'", "d"}),
}

_RIDGES_BY_PARAM: dict[str, tuple[str, ...]] = {
    "d": ("F(Q,Q^-1)",),
    "l": ("F(K,R'0^-1)", "F(K^-1,R'0)"),
    "l'": ("F(A'0,R'2^-1)", "F(R'2,R'1^-1)", "F(A'0^-1,R'1)"),
    "k'": ("F(A'0,A'0^-1)",),
}


def classify_degeneracies(params: DerivedParams, sig: LatticeSignature) -> DegeneracyReport:
    """Which ridges collapse, read off the parameter signs alone.

    A parameter that is negative or infinite triggers its ridge collapses.
    The reference lattice-to-degeneracy table is consulted only to report
    discrepancies, never to decide.
    """
    statuses = {name: _status(order) for name, order in params.named_orders.items()}
    degenerate = {name for name, st in statuses.items() if st != "positive-finite"}
    ridges: list[str] = []
    for name in ("d", "l", "l'", "k'"):
        if name in degenerate:
            ridges.extend(_RIDGES_BY_PARAM[name])
    notes: list[str] = []
    reference = _REFERENCE_DEGENERATE.get((sig.p, sig.k, sig.p_prime))
    if reference is None:
        notes.append(
            f"signature {sig} is absent from the reference collapse table; "
            f"classified from parameter signs as {sorted(degenerate)}"
        )
    elif reference != frozenset(degenerate):
        notes.append(
            f"reference collapse table lists {sorted(reference)} for {sig} "
            f"but parameter signs give {sorted(degenerate)}"
        )
    return DegeneracyReport(
        k_prime=statuses["k'"],
        l=statuses["l"],
        l_prime=statuses["l'"],
        d=statuses["d"],
        collapsed_ridges=tuple(ridges),
        notes=tuple(notes),
    )
