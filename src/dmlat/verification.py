"""Group-level checks: presentation, cycle orders, stabilisers, volumes.

The presentation comes from the Poincaré polyhedron theorem, so its relations
are the cycle conditions of the glued domain. One table of cycle
transformations and one of cycle identities drive both the relation and the
cycle reports, and ``group_checks`` evaluates each equation once.

The orbifold Euler characteristic is an exact alternating sum of reciprocal
stabiliser orders over a 44-row orbit table. Each degenerate order
(``DerivedParams.degenerate``: negative or infinite) deletes every row whose
order names it, and a negative one adds its merged vertex row; the ridges of
the deleted dim-2 rows are the collapsed ridges. The same rule skips the
cycle orders it names. Volumes are (8 pi^2 / 3) times the Euler
characteristic.
"""

from __future__ import annotations

import re
from functools import cache, reduce
from fractions import Fraction
from operator import mul, sub

import numpy as np

from dmlat.arithmetic import (
    DEFAULT_MAX_ORDER, DEFAULT_TOL, TESSELLATE_NEUTRAL, VANISHING_TOL,
    ExceededBound,
    projective_equal,
    projective_order,
    read_only,
)
from dmlat.catalog import DerivedParams, LatticeSignature, derive_params
from dmlat.domain import (
    _SECTORS, DomainD, MalformedWord, _pairing_words, _sector_angles, _word, build_domain,
    vertices_D,
)
from dmlat.moves import hermitian_form
from dmlat.polyhedron import PreconditionFailed, _normal_at, _polar_row, arc_side, in_arcs
from dmlat.record import Record
from dmlat.sampling import affine_points, ball_batches


class UnsupportedDegeneracy(ValueError):
    """A degeneration pattern outside the implemented rules (negative l)."""


class HashCollisionAmbiguity(RuntimeError):
    """Two group elements are too close to separate at the tolerance."""


class MalformedOrder(ValueError):
    """A symbolic order expression outside the order grammar."""


class OrbitRow(Record):
    """One orbit of facets: its dimension, label and symbolic order."""

    dim: int
    label: str
    stabilizer: str
    order_expr: str


def base_orbit_table() -> list[OrbitRow]:
    """The 44 orbits of facets with their stabiliser orders, generic case."""
    dim0 = [
        ("v1,v2", "<A1,R'1>", "kp"),
        ("v3,v4", "<Q^2,R'1>", "pd"),
        ("v16,v5", "<Q^2,R'0>", "p'd"),
        ("v6,v10", "<R'0K,R'1>", "pl"),
        ("v7,v11", "<R'0K,A'0>", "k'l"),
        ("v8,v9,v17,v24", "<QK^-1,R'0K>", "kl"),
        ("v18,v14,v20,v22,v23,v12", "<A'0R'2R'1,A1>", "l'k"),
        ("v19,v13,v21", "<A'0R'2R'1,R'0>", "p'l'"),
        ("v0", "<R'0,A'0>", "k'p'"),
    ]
    dim1 = [
        ("g_{1,3},g_{2,4}", "<R'1>", "p"),
        ("g_{1,6},g_{2,10}", "<R'1>", "p"),
        ("g_{1,12},g_{2,23},g_{2,14},g_{1,18}", "<A1>", "k"),
        ("g_{3,5},g_{4,16},g_{4,5},g_{3,16}", "<Q^2>", "d"),
        ("g_{3,6},g_{4,10}", "<R'1>", "p"),
        ("g_{5,13},g_{16,19},g_{16,21}", "<R'0>", "p'"),
        ("g_{6,8},g_{10,24},g_{9,10},g_{6,17}", "<R'0K>", "l"),
        ("g_{7,8},g_{11,24},g_{9,11},g_{7,17}", "<R'0K>", "l"),
        ("g_{7,11}", "<K>", "2k'"),
        ("g_{7,15},g_{11,15}", "<A'0>", "k'"),
        ("g_{8,14},g_{22,24},g_{17,20},g_{9,18},g_{23,8},g_{9,12}", "<A1>", "k"),
        ("g_{12,13},g_{21,22},g_{18,19},g_{21,23},g_{19,20},g_{13,14}",
         "<R'1A'0R'2>", "l'"),
        ("g_{12,14},g_{22,23},g_{18,20}", "<R'2^-1K>", "2l'"),
        ("g_{15,19},g_{15,21}", "<R'0>", "p'"),
    ]
    dim2 = [
        ("F(K,Q),F(K^-1,Q^-1)", "<A1>", "k"),
        ("F(Q,Q^-1)", "<Q>", "2d"),
        ("F(K,R'0^-1),F(K^-1,R'0)", "<KR'0>", "l"),
        ("F(R'0,R'0^-1)", "<R'0>", "p'"),
        ("F(A'0,R'2^-1),F(R'2,R'1^-1),F(A'0^-1,R'1)", "<R'1A'0R'2>", "l'"),
        ("F(R'1,R'1^-1)", "<R'1>", "p"),
        ("F(R'2,R'2^-1)", "<R'2>", "p"),
        ("F(A'0,A'0^-1)", "<A'0>", "k'"),
        ("F(K,R'1),F(K,R'1^-1),F(K^-1,R'2^-1),F(K^-1,R'2)", "1", "1"),
        ("F(R'1,Q),F(R'2,Q^-1),F(R'2^-1,Q^-1),F(R'1^-1,Q)", "1", "1"),
        ("F(A'0,R'0),F(A'0^-1,R'0),F(A'0^-1,R'0^-1),F(A'0,R'0^-1)", "1", "1"),
        ("F(K,K^-1),F(K^-1,A'0),F(K,A'0^-1)", "1", "1"),
        ("F(R'1,R'0^-1),F(R'1^-1,Q^-1),F(Q,R'0)", "1", "1"),
        ("F(R'0^-1,Q^-1),F(Q,R'2),F(R'2^-1,R'0)", "1", "1"),
    ]
    dim3 = [
        ("S(K),S(K^-1)", "1", "1"),
        ("S(Q),S(Q^-1)", "1", "1"),
        ("S(R'2),S(R'2^-1)", "1", "1"),
        ("S(R'1),S(R'1^-1)", "1", "1"),
        ("S(R'0),S(R'0^-1)", "1", "1"),
        ("S(A'0),S(A'0^-1)", "1", "1"),
    ]
    return [OrbitRow(dim, *row) for dim, rows in enumerate((dim0, dim1, dim2, dim3))
            for row in rows] + [OrbitRow(4, "D", "1", "1")]


def _orders(sig: LatticeSignature, params: DerivedParams) -> dict[str, int | None]:
    """The value of every order symbol: an int, or None for infinity."""
    return {"p": sig.p, "k": sig.k, "p'": sig.p_prime,
            **{name: order.value for name, order in params.named_orders.items()}}


# An order other than "1": an optional factor 2, a product of symbols such as
# "kp" or "p'l'", and an optional square, as in "2k'^2".
_ORDER = re.compile(r"(2?)((?:[pkld]'?)+)(\^2)?")
_SYMBOL = re.compile(r"[pkld]'?")


def order_value(expr: str, sig: LatticeSignature, params: DerivedParams):
    """Evaluate a symbolic order to an exact rational, or None for infinity.

    The expression is "1" or matches ``_ORDER``, and only a single symbol
    can be squared; any other text raises ``MalformedOrder``.
    """
    if expr == "1":
        return Fraction(1)
    match = _ORDER.fullmatch(expr)
    if not match:
        raise MalformedOrder(f"not an order expression: {expr!r}")
    two, body, squared = match.groups()
    symbols = _SYMBOL.findall(body)
    if squared:
        if len(symbols) != 1:
            raise MalformedOrder(f"{expr!r}: only a single symbol can be squared")
        symbols *= 2
    orders = _orders(sig, params)
    if unknown := [s for s in symbols if s not in orders]:
        raise MalformedOrder(f"unknown order symbol {unknown[0]!r}")
    values = [orders[s] for s in symbols]
    return None if None in values else reduce(mul, values, Fraction(2 if two else 1))


# The row a negative parameter adds once its rows are deleted: the coalesced
# vertex, with a doubled-square stabiliser.
_MERGED_ROWS = {
    "d": OrbitRow(0, "v(3,4,5,16)", "<R'1,R'0>", "2d^2"),
    "l'": OrbitRow(0, "v(12..14),v(18..20),v(21..23)", "<R'0,A1>", "2l'^2"),
    "k'": OrbitRow(0, "v(0,7,11)", "<R'0,K>", "2k'^2"),
}


def apply_degenerations(
    rows: list[OrbitRow], params: DerivedParams
) -> tuple[list[OrbitRow], tuple[str, ...], list[OrbitRow]]:
    """Delete and merge orbit rows for parameters that are not positive finite.

    Returns (modified rows, applied rule names, deleted rows in table order).
    Each order of ``params.degenerate`` deletes every row whose order names
    its symbol; a negative one then adds its merged row from ``_MERGED_ROWS``
    at the front. The rules apply in the order l, d, l', k'.
    """
    if params.l.is_negative:
        raise UnsupportedDegeneracy("negative l is outside the supported range")
    degenerate = params.degenerate
    out: list[OrbitRow] = []
    deleted: list[OrbitRow] = []
    for row in rows:
        named = degenerate.keys() & _SYMBOL.findall(row.order_expr)
        (deleted if named else out).append(row)
    applied: list[str] = []
    for name in ("l", "d", "l'", "k'"):
        if (order := degenerate.get(name)) is None:
            continue
        applied.append(f"{name} {order.status}")
        if order.is_negative and name in _MERGED_ROWS:
            out.insert(0, _MERGED_ROWS[name])
    return out, tuple(applied), deleted


_RIDGE = re.compile(r"F\([^)]*\)")


def collapsed_ridges(params: DerivedParams) -> tuple[str, ...]:
    """The ridges of the dim-2 rows that ``apply_degenerations`` deletes."""
    deleted = apply_degenerations(base_orbit_table(), params)[2]
    return tuple(ridge for row in deleted if row.dim == 2
                 for ridge in _RIDGE.findall(row.label))


class EulerReport(Record):
    """Exact Euler characteristic, volume coefficient and rule audit trail."""

    signature: LatticeSignature
    chi: Fraction
    volume_coeff: Fraction
    applied_rules: tuple[str, ...]
    row_count: int


def euler_characteristic(sig: LatticeSignature) -> EulerReport:
    """Exact orbifold Euler characteristic via the modified orbit table.

    Every surviving row has a positive finite order: ``apply_degenerations``
    deletes each row that names a degenerate order.
    """
    params = derive_params(sig)
    rows, applied, _ = apply_degenerations(base_orbit_table(), params)
    chi = sum((Fraction((-1) ** row.dim) / order_value(row.order_expr, sig, params)
               for row in rows), Fraction(0))
    return EulerReport(sig, chi, Fraction(8, 3) * chi, applied, len(rows))


def triangle_group_order(a, b) -> Fraction:
    """Order of the (2, a, b) triangle group, 4ab/(2a + 2b - ab)."""
    a, b = Fraction(a), Fraction(b)
    return 4 * a * b / (2 * a + 2 * b - a * b)


# Weights c of the BFS bucket key |<c, m>|: fixed, of unit Frobenius norm,
# with distinct moduli and incommensurate phases, so that elements related
# by a diagonal or permutation symmetry of a stabiliser group get different
# keys. ||c||_1 = 2.67 (see stabilizer_bfs for the probe bound).
_KEY_WEIGHTS = (np.arange(1, 10) * np.exp(2j * np.pi * 0.6180339887
                                          * np.arange(1, 10))).reshape(3, 3)
_KEY_WEIGHTS /= np.linalg.norm(_KEY_WEIGHTS)
_KEY_SCALE = 1e5  # buckets of width 1e-5 in |<c, m>|
# The key of a unit row m is rint(|m @ _KEY_ROW|) = round(|<c, m>| * 1e5).
_KEY_ROW = read_only(_KEY_WEIGHTS.conj().ravel() * _KEY_SCALE)
# The identity's unit row, the same row as a bucket member, and its key.
_IDENTITY_ROW = read_only(np.eye(3, dtype=complex).reshape(1, 9) / np.sqrt(3))
_IDENTITY_MEMBER = tuple(_IDENTITY_ROW[0].tolist())
_IDENTITY_KEY = float(np.rint(abs(_IDENTITY_ROW[0] @ _KEY_ROW)))


class MalformedGenerator(ValueError):
    """BFS generators that are not finite, invertible 3x3 matrices."""


def stabilizer_bfs(generators, max_size: int = 10000) -> int:
    """Order of the group generated by the matrices, as projective maps.

    One breadth-first closure over right cosets, run twice. The first run
    closes {1} under the first generator a and its inverse, giving H = <a>.
    With more generators, the second closes H under all of them and their
    inverses, one right coset H y at a time. The order is the number of
    elements registered. Only coset representatives are looked up: a group
    of n elements costs 2n/|H| lookups per generator instead of 2n.

    A level multiplies the frontier's cosets H y by every step s in one
    batched product, which gives each coset H y s whole, led by y s. Only
    y s is looked up. If it is found, its coset is registered already; if
    not, the whole coset is registered and y s joins the next frontier. Its
    other members skip the lookup because a right coset that misses a
    union of right cosets is disjoint from it. Two products of one level
    can lie in one coset, so the later one is looked up after the earlier
    one has registered, and is found. With H = {1}, as in the first run,
    this is the plain BFS over elements.

    H is closed symmetrically, by a and a^-1 on one frontier, so that each
    element of H is a product of at most |H|/2 factors and carries the
    rounding error of the plain BFS. Powers of a taken one factor at a time,
    or by doubling, carry more: on one order-36 group of the catalog, with
    a of order 18, a^18 taken one factor at a time misses the identity by
    7e-10, against a ``DEFAULT_TOL`` of 1e-9.

    Each representative remembers the step that produced it, and the next
    level skips the product with that step's inverse: it is the parent,
    whose coset is registered, so no level's new cosets change.

    Elements are deduplicated projectively. A unit-norm m goes into the
    bucket round(|<c, m>| * 1e5), where c is the fixed weight matrix
    ``_KEY_WEIGHTS``. The key ignores phase, because |<c, lam m>| =
    |<c, m>| whenever |lam| = 1. Unlike the sum of entry moduli, it also
    separates elements that differ only in the phases of their entries,
    such as the elements of a diagonal cyclic group.

    Probe bound: if m and n are unit-norm and lam n lies within d of m
    entrywise, |<c, m>| and |<c, n>| differ by at most ||c||_1 d < 3 d.
    Probing buckets key-1, key and key+1 therefore finds every element
    within 10 tol of m while 30 tol < 1e-5, where tol is ``DEFAULT_TOL``:
    on the pre-scaled row, ||_KEY_ROW||_1 * 10 tol is below one bucket.

    A product is compared with the members of those three buckets in that
    order, each bucket in registration order. The distance is the largest
    entry of |m - lam n| after optimal phase alignment, computed on Python
    complex lists, which is cheaper than a numpy call per pair on 3x3
    matrices. The scan stops at the first member within tol. A member
    neither within tol nor beyond 10x tol raises HashCollisionAmbiguity
    rather than guessing. That can fire on the lookup of any product, in
    either run, and nowhere else. A coset member h y s within 10 tol of a
    registered h' z would put y s near the registered h^-1 h' z, within
    10 tol times the conditioning of h, so such a near-collision shows at
    the lookup of y s as long as h is well conditioned.

    Each registration adds its coset to the count. A count above
    ``max_size`` raises ExceededBound at once, in either run.

    Cost. Most groups of an oracle pass are small and cyclic, so the fixed
    cost of a call and of a level outweighs the group arithmetic. A call
    converts the generators with one ``np.array`` and inverts them with one
    stacked ``np.linalg.inv``. The identity's unit row, bucket member and
    key (``_IDENTITY_ROW``, ``_IDENTITY_MEMBER``, ``_IDENTITY_KEY``) and the
    key row conj(c) * 1e5 (``_KEY_ROW``) are built once, at import. A level
    is one matrix product of all the frontier's coset members, 3 rows each,
    with the steps side by side: one BLAS call, where a batched product of
    3x3 matrices costs one call per pair. Its rows are then normalised in
    place by one ``einsum`` of their squared real and imaginary parts,
    keyed by one product rint(|m @ _KEY_ROW|), and turned into lists by
    one ``tolist`` each of rows and keys. The keys stay floats: they are
    integers far below 2^53, so key-1, key and key+1 are exact. The parent
    skip, the bucket scan and the registration run inline in the level
    loop.

    Refusals, before the first level: ``max_size`` outside 1..10000 raises
    ValueError; generators that are not a sequence of 3x3 matrices, have a
    non-finite entry, or are singular (no finite inverse) raise
    MalformedGenerator. A non-finite entry would otherwise put NaN keys in
    the buckets, where no lookup finds them.
    """
    if not 1 <= max_size <= 10000:
        raise ValueError(f"max_size must lie in 1..10000, not {max_size}")
    try:
        gens = np.array(list(generators) or np.empty((0, 3, 3)), dtype=complex)
    except (TypeError, ValueError) as err:
        raise MalformedGenerator(f"not a sequence of 3x3 matrices: {err}") from None
    if gens.shape[1:] != (3, 3):
        raise MalformedGenerator(f"not a sequence of 3x3 matrices: shape {gens.shape}")
    if not np.isfinite(gens).all():
        raise MalformedGenerator("a generator has a non-finite entry")
    try:
        inverses = np.linalg.inv(gens)
    except np.linalg.LinAlgError:
        raise MalformedGenerator("a generator is singular") from None
    if not np.isfinite(inverses).all():
        raise MalformedGenerator("a generator is singular: its inverse overflows")
    steps = np.concatenate([gens, inverses])
    tol, wide, zero = DEFAULT_TOL, 10 * DEFAULT_TOL, VANISHING_TOL
    key_row, conj = _KEY_ROW, complex.conjugate
    seen = {_IDENTITY_KEY: [_IDENTITY_MEMBER]}
    get, count, levels = seen.get, 1, [_IDENTITY_ROW]
    # The first run closes {1} under a and a^-1, steps[0] and steps[len(gens)];
    # the second closes H under all the steps.
    for factors in (steps[::len(gens)], steps) if len(gens) > 1 else (steps,):
        # The frontier holds one coset a row, H y as |H| rows of 9 entries;
        # the first is H itself. ``right`` is the steps side by side, so one
        # product multiplies every member of every coset by every step.
        frontier = np.concatenate(levels).reshape(1, -1)
        size, n_steps = frontier.shape[1] // 9, len(factors)
        right = factors.transpose(1, 0, 2).reshape(3, -1)
        # factors[back[j]] takes frontier[j] to its parent; 1 has none
        back = [-1]
        while len(frontier):
            flat = (frontier.reshape(-1, 3) @ right).reshape(
                len(frontier), size, 3, n_steps, 3).transpose(0, 3, 1, 2, 4).reshape(-1, 9)
            real = flat.view(float)  # the same entries as real and imaginary parts
            real /= np.sqrt(np.einsum("ij,ij->i", real, real))[:, None]
            rows, keys = flat.tolist(), np.rint(np.abs(flat @ key_row)).tolist()
            fresh = []
            for j, lead in enumerate(range(0, len(rows), size)):
                if j % n_steps == back[j // n_steps]:
                    continue
                row, key = rows[lead], keys[lead]
                for other in (*get(key - 1, ()), *get(key, ()), *get(key + 1, ())):
                    inner = sum(map(mul, row, map(conj, other)))
                    modulus = abs(inner)
                    if modulus < zero:
                        dist = max(map(abs, row)) + max(map(abs, other))
                    else:
                        lam = inner / modulus
                        dist = max(map(abs, map(sub, row, map(lam.__mul__, other))))
                    if tol < dist < wide:
                        raise HashCollisionAmbiguity(
                            "two elements differ by less than 10x the tolerance"
                        )
                    if dist <= tol:
                        break
                else:
                    count += size
                    if count > max_size:
                        raise ExceededBound(f"group exceeds max_size = {max_size}")
                    for k in range(lead, lead + size):
                        seen.setdefault(keys[k], []).append(rows[k])
                    fresh.append(j)
            frontier = flat.reshape(-1, 9 * size)[fresh]
            levels.append(frontier)
            back = [(j + n_steps // 2) % n_steps for j in fresh]
    return count


def stabilizer_generators(stabilizer: str, words: dict[str, np.ndarray]):
    """Matrices for a stabiliser word string like "<Q^2,R'1>".

    The string is "1" or "<w1,...>" with every name in ``words``; any other
    string raises ``MalformedWord``.
    """
    if stabilizer == "1":
        return [np.eye(3, dtype=complex)]
    match = re.fullmatch(r"<(.+)>", stabilizer)
    names = match[1].split(",") if match else None
    if names is None or not words.keys() >= set(names):
        raise MalformedWord(f"not a stabiliser of words in the table: {stabilizer!r}")
    return [words[name] for name in names]


class CheckEntry(Record):
    name: str
    status: str  # "pass", "fail", "skipped"
    detail: str = ""


class CheckReport(Record):
    signature: LatticeSignature
    entries: tuple[CheckEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.status != "fail" for e in self.entries)


# The cycle transformations of D in the order of the cycle rows: the place of
# the relation among the relation rows, the relation, the transformation, ell
# and the order symbol m. The transformation has order ell * m, which is the
# relation's exponent; (A'0R'2R'1)^l' is measured on its conjugate R'1A'0R'2.
_CYCLE_ORDERS = (
    (4, "(Q^-1K)^k", "Q^-1K", 1, "k"),
    (2, "R'0^p'", "R'0", 1, "p'"),
    (1, "R'2^p", "R'2", 1, "p"),
    (7, "Q^2d", "Q", 2, "d"),
    (3, "A'0^k'", "A'0", 1, "k'"),
    (6, "(A'0R'2R'1)^l'", "R'1A'0R'2", 1, "l'"),
    (0, "R'1^p", "R'1", 1, "p"),
    (5, "(R'0K)^l", "R'0K", 1, "l"),
)

# The cycle identities of D in the order of the cycle rows: the place of the
# relation, the relation lhs = rhs as evaluated, and the cycle word = id.
_CYCLE_IDENTITIES = (
    (8, "Q = R'1R'0", "R'0Q^-1R'1"),
    (9, "Q = R'0R'2", "R'2Q^-1R'0"),
    (13, "R'2K = KR'1", "R'1K^-1R'2^-1K"),
    (10, "Q = R'2^-1QR'1", "R'1^-1Q^-1R'2Q"),
    (11, "R'0^-1A'0R'0 = A'0", "A'0R'0^-1A'0^-1R'0"),
    (12, "A'0 = K^-2", "KA'0K"),
)

# The braid relations, which close the presentation: the name of the relation
# and lhs = rhs as evaluated. br2((R'1R'0A1)^-2,R'0) is evaluated as R'0
# commuting with (R'1R'0A1)^2, which is equivalent.
_BRAIDS = (
    ("br4(R'1,R'0)", "R'1R'0R'1R'0 = R'0R'1R'0R'1"),
    ("br2((R'1R'0A1)^-2,R'0)", "R'1R'0A1R'1R'0A1R'0 = R'0R'1R'0A1R'1R'0A1"),
    ("br2(A1,R'1)", "A1R'1 = R'1A1"),
)


def _holds(equation: str, w: dict[str, np.ndarray], tol: float) -> bool:
    """Whether the two words of "lhs = rhs" are projectively equal."""
    lhs, rhs = equation.split(" = ")
    return projective_equal(_word(lhs, w), _word(rhs, w), tol)


def group_checks(
    sig: LatticeSignature, tol: float = DEFAULT_TOL, max_order: int = DEFAULT_MAX_ORDER
) -> tuple[CheckReport, CheckReport]:
    """The relation report and the cycle report, each equation evaluated once.

    Each cycle order and cycle identity is also a relation, and its one
    result goes into both reports; an order whose symbol is degenerate
    (``DerivedParams.degenerate``) is skipped. The relations add the braids
    (``_BRAIDS``); the cycles add (R'2^-1K)^2 = (R'1A'0R'2)^-1 and the
    pointwise fix of F(Q,Q^-1) by Q^2, skipped when d is degenerate.
    """
    dom = build_domain(sig)
    w = _pairing_words(dom)
    orders, degenerate = _orders(sig, dom.params), dom.params.degenerate
    relations: dict[int, CheckEntry] = {}
    cycles: list[CheckEntry] = []
    for place, relation, word, ell, sym in _CYCLE_ORDERS:
        m = orders[sym]
        if sym in degenerate:
            exponent, value = ("inf", "inf") if m is None else (ell * m, m)
            relations[place] = CheckEntry(
                relation, "skipped", f"exponent {exponent} not positive finite")
            cycles.append(CheckEntry(
                word, "skipped", f"{sym} = {value} not positive finite"))
            continue
        try:
            order = projective_order(_word(word, w), max_order, tol)
            status = "pass" if order == ell * m else "fail"
            detail = f"order {order}"
        except ExceededBound:
            status, detail = "fail", f"order >= {max_order}"
        relations[place] = CheckEntry(relation, status, detail)
        cycles.append(CheckEntry(word, status, detail))

    # (R'2^-1 K)^2 equals the inverse cycle transformation of R'1 A'0 R'2.
    ok = _holds("R'2^-1KR'2^-1K = R'2^-1A'0^-1R'1^-1", w, tol)
    cycles.append(CheckEntry("(R'2^-1K)^2 = (R'1A'0R'2)^-1", "pass" if ok else "fail"))

    for place, relation, word in _CYCLE_IDENTITIES:
        ok = _holds(relation, w, tol)
        relations[place] = CheckEntry(relation, "pass" if ok else "fail")
        cycles.append(CheckEntry(word + " = id", "pass" if ok else "fail"))

    # Q^2 fixes the triple-line ridge of Q pointwise (surviving vertices).
    if "d" not in degenerate:
        vd = vertices_D(dom)
        fixed = all(projective_equal(w["Q^2"] @ vd.coords[lab], vd.coords[lab], tol)
                    for lab in ("v3", "v4", "v5") if lab not in vd.collapsed)
        cycles.append(CheckEntry("Q^2 fixes F(Q,Q^-1) pointwise",
                                 "pass" if fixed else "fail"))
    else:
        cycles.append(CheckEntry("Q^2 fixes F(Q,Q^-1) pointwise",
                                 "skipped", "ridge collapsed"))

    entries = [relations[place] for place in sorted(relations)]
    for name, equation in _BRAIDS:
        entries.append(CheckEntry(name, "pass" if _holds(equation, w, tol) else "fail"))
    return CheckReport(sig, tuple(entries)), CheckReport(sig, tuple(cycles))


def check_relations(sig: LatticeSignature) -> CheckReport:
    """The presentation relations: the first report of ``group_checks``."""
    return group_checks(sig)[0]


def cycle_orders(sig: LatticeSignature) -> CheckReport:
    """The cycle conditions of D: the second report of ``group_checks``."""
    return group_checks(sig)[1]


# Reference sign rows for the Lagrangian ridge: the word that maps D's points
# ("id" for D itself) and the expected signs at the sides (column of
# ``_SECTORS``, end) z1 hi, z1 lo, z2 lo and z2 hi, that is of (im z1,
# im e^{i phi} z1, im e^{i theta} z2, im e^{-i theta} z2).
_LAGRANGIAN_SIDES = ((0, "hi"), (0, "lo"), (1, "lo"), (1, "hi"))
_LAGRANGIAN_SIGNS = (
    ("id", (-1, 1, 1, -1)),
    ("R'1^-1", (-1, 1, -1, -1)),
    ("K^-1", (-1, -1, 1, -1)),
    ("R'1^-1K^-1", (-1, -1, -1, -1)),
)


class TessellationReport(Record):
    """The per-copy agreement rows of ``tessellation_sign_table``.

    ``samples_used`` below ``samples_requested`` means the draw cap was
    reached, and ``all_match`` is then False whatever the rows read.
    """

    signature: LatticeSignature
    ridge: str
    rows: tuple[tuple[str, float], ...]
    samples_used: int
    samples_requested: int

    @property
    def all_match(self) -> bool:
        return (self.samples_used == self.samples_requested
                and all(frac == 1.0 for _, frac in self.rows))


def _sample_domain_points(dom: DomainD, n: int, seed: int) -> np.ndarray:
    """Up to n interior points of the glued domain, the columns of a (3, k) array.

    The draws are the batches of ``sampling.ball_batches`` on the first two
    arcs of ``dom.sectors``: arg z1 and arg z2 uniform in them, (|z1|, |z2|)
    uniform by area inside the ball, up to the draw cap for n. A draw in the
    ball is kept, in draw order, when its z, w and y images, the one stacked
    map (I; w_of_z; y_of_z) applied to it, lie in all six arcs, without
    slack (``polyhedron.in_arcs``): the kept points are uniform on D.
    Both maps are isometries onto balls, so no image of a point of the ball
    is at infinity. Drawing stops at the batch that brings the count to n.
    """
    maps = np.vstack([np.eye(3), dom.w_of_z, dom.y_of_z])
    batches = ball_batches(hermitian_form(dom.c3), dom.sectors[:2], seed, n)
    chunks, count = [np.zeros((3, 0), dtype=complex)], 0
    for r in batches:
        z = affine_points(r)
        chunks.append(z[:, in_arcs(maps @ z, dom.sectors, 0.0)])
        count += chunks[-1].shape[1]
        if count >= n:
            break
    return np.concatenate(chunks, axis=1)[:, :n]


@cache
def _giraud_copies(dom: DomainD) -> tuple[tuple, ...]:
    """The copies of D around F(K,K^-1), built once per domain, read-only.

    A copy is its name, the pairing that maps D onto it, and the rows n* H
    of its own L_*0 normal and of the other two copies' normals.
    """
    h = hermitian_form(dom.c3)
    n0 = _normal_at(dom.c3, "L_*0")
    w = _pairing_words(dom)
    k, ki = _word("K", w), _word("K^-1", w)
    rows = [_polar_row(n0, h, "L_*0"), _polar_row(k @ n0, h, "K(n0)"),
            _polar_row(ki @ n0, h, "K^-1(n0)")]
    copies = (("id", np.eye(3, dtype=complex)), ("K", k), ("K^-1", ki))
    return tuple((name, read_only(m), rows[i], tuple(rows[:i] + rows[i + 1:]))
                 for i, (name, m) in enumerate(copies))


def tessellation_sign_table(
    sig: LatticeSignature,
    ridge_id: str = "F(K,R'1)",
    n_samples: int = 500,
    seed: int = 7,
) -> TessellationReport:
    """Sampled check of the tessellation sign pattern around a ridge.

    Supports the Lagrangian ridge F(K,R'1) (four sign rows) and the Giraud
    ridge F(K,K^-1) (three pairwise-separating distance conditions); any
    other ridge raises ``ValueError`` on every signature, before the domain
    is built. Both supported ridges are in orbit rows of order 1, which no
    degeneration deletes (``collapsed_ridges``). A Lagrangian row's name is
    the word, in ``_pairing_words``, of the copy of D it tests; the Giraud
    copies are built once per domain (``_giraud_copies``). The points are
    drawn anew on every call.
    """
    if ridge_id not in ("F(K,R'1)", "F(K,K^-1)"):
        raise ValueError(f"unsupported ridge {ridge_id}")
    dom = build_domain(sig)
    if dom.kneg_flag:
        raise PreconditionFailed("sampling requires the generic regime")
    points = _sample_domain_points(dom, n_samples, seed)
    if ridge_id == "F(K,R'1)":
        w, angles = _pairing_words(dom), _sector_angles(dom)
        phases = [arc_side(_SECTORS, angles, column, end)[1]
                  for column, end in _LAGRANGIAN_SIDES]
        rows = []
        for name, signs in _LAGRANGIAN_SIGNS:
            image = points if name == "id" else _word(name, w) @ points
            image = image / image[2]
            im = (np.array(phases)[:, None] * image[[0, 0, 1, 1]]).imag
            decisive = ~(np.abs(im) <= TESSELLATE_NEUTRAL)
            good = decisive & ((im > 0) == (np.array(signs) > 0)[:, None])
            total = decisive.sum()
            rows.append((name, float(good.sum() / total) if total else 0.0))
        return TessellationReport(sig, ridge_id, tuple(rows), points.shape[1],
                                  n_samples)
    # The Giraud ridge F(K,K^-1).
    rows = []
    for name, m, own, others in _giraud_copies(dom):
        image = m @ points
        d_own = np.abs(own @ image)
        diff = np.array([np.abs(other @ image) - d_own for other in others])
        decisive = ~(np.abs(diff) <= TESSELLATE_NEUTRAL)
        counted = decisive.any(axis=0)
        good = counted & ~(decisive & ~(diff > 0)).any(axis=0)
        total = counted.sum()
        rows.append((name, float(good.sum() / total) if total else 0.0))
    return TessellationReport(sig, ridge_id, tuple(rows), points.shape[1],
                              n_samples)


# Reference comparison values: signature -> (this construction's reference
# value, the commensurable lattice's reference value, its name).
_COMMENSURABILITY_TABLE = {
    (6, 6, 3): (Fraction(1, 12), Fraction(1, 72), "(6,2)"),
    (10, 10, 5): (Fraction(3, 20), Fraction(1, 40), "(10,2)"),
    (12, 12, 6): (Fraction(7, 48), Fraction(7, 288), "(12,2)"),
    (18, 18, 9): (Fraction(13, 108), Fraction(13, 648), "(18,2)"),
    (4, 4, 3): (Fraction(1, 12), Fraction(1, 72), "(4,3)"),
    (4, 4, 5): (Fraction(297, 400), Fraction(33, 800), "(4,5)"),
    (4, 4, 6): (Fraction(13, 48), Fraction(13, 288), "(4,6)"),
}


class CommensurabilityEntry(Record):
    signature: tuple[int, int, int]
    computed_chi: Fraction
    ratio: Fraction
    status: str
    detail: str = ""


def commensurability_check() -> tuple[CommensurabilityEntry, ...]:
    """Index-6 ratio of computed Euler characteristics to the reference data.

    For every row of the first two blocks the computed value divided by the
    partner's reference value must be exactly 6. The (4,4,5) row's reference
    first-column value disagrees with this construction's result by a
    factor of 3 and is reported as a discrepancy, never asserted.
    """
    out: list[CommensurabilityEntry] = []
    for trip, (reference_chi, partner, name) in _COMMENSURABILITY_TABLE.items():
        sig = LatticeSignature(*trip)
        chi = euler_characteristic(sig).chi
        ratio = chi / partner
        status = "pass" if ratio == 6 else "fail"
        detail = f"partner {name}"
        if chi != reference_chi:
            detail += (f"; reference value {reference_chi} differs from computed "
                       f"{chi} (flagged, not asserted)")
        out.append(CommensurabilityEntry(trip, chi, ratio, status, detail))
    return tuple(out)
