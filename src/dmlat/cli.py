"""Command-line interface: list, check, euler, vertices, tessellate."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from dmlat.arithmetic import DEFAULT_MAX_ORDER, DEFAULT_TOL, no_finite_point
from dmlat.catalog import LatticeSignature, catalog, cone_angles, derive_params
from dmlat.domain import build_domain, side_pairings, vertices_D
from dmlat.verification import (collapsed_ridges, euler_characteristic, group_checks,
                                tessellation_sign_table)

SCHEMA = "dmlat-report/1"


class _UsageError(Exception):
    """Invalid arguments; reported on standard error with exit code 2."""


def _frac_json(q: Fraction) -> dict:
    return {"num": q.numerator, "den": q.denominator}


# The report's key for each named order.
_ORDER_KEYS = {"k'": "k_prime", "l": "l", "l'": "l_prime", "d": "d"}


def _params_json(params) -> dict:
    return {
        "alpha": _frac_json(params.alpha),
        "theta": _frac_json(params.theta),
        "phi": _frac_json(params.phi),
        **{_ORDER_KEYS[name]: order.to_json()
           for name, order in params.named_orders.items()},
    }


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _signature(args, allow_force: bool = True) -> LatticeSignature:
    sig = LatticeSignature(args.p, args.k, args.p_prime)
    if not sig.in_catalog:
        if not allow_force:
            raise _UsageError(f"{sig} is not a catalog signature; this "
                              f"command requires a catalog signature")
        if not args.force:
            raise _UsageError(f"{sig} is not a catalog signature "
                              f"(use --force for exploratory mode)")
        # A cone angle of 0 or 2*pi degenerates the charts: refuse it first.
        cone_angles(sig)
    return sig


def _cmd_list(args) -> int:
    rows = []
    lines = []
    for sig in catalog():
        params = derive_params(sig)
        rows.append({
            "signature": [sig.p, sig.k, sig.p_prime],
            "params": _params_json(params),
            "degeneracies": {_ORDER_KEYS[name]: order.status
                             for name, order in params.named_orders.items()},
            "collapsed_ridges": list(collapsed_ridges(params)),
        })
        degen = ",".join(params.degenerate)
        lines.append(f"{sig}  k'={params.k_prime} l={params.l} "
                     f"l'={params.l_prime} d={params.d}"
                     + (f"  degenerate: {degen}" if degen else ""))
    _emit({"command": "list", "signatures": rows}, args.json, "\n".join(lines))
    return 0


def _cmd_euler(args) -> int:
    sig = _signature(args, allow_force=False)
    report = euler_characteristic(sig)
    text = (f"chi = {report.chi}, volume = {report.volume_coeff} "
            f"· π²")
    _emit({
        "command": "euler",
        "signature": [sig.p, sig.k, sig.p_prime],
        "chi": _frac_json(report.chi),
        "volume_coefficient": _frac_json(report.volume_coeff),
        "applied_rules": list(report.applied_rules),
        "row_count": report.row_count,
    }, args.json, text)
    return 0


def _cmd_check(args) -> int:
    if args.all and (args.p, args.k, args.p_prime) != (None, None, None):
        raise _UsageError("check takes p k p' or --all, not both")
    if args.all:
        sigs = catalog()
    elif args.p is None or args.k is None or args.p_prime is None:
        raise _UsageError("check needs p k p' or --all")
    else:
        sigs = [_signature(args)]
    worst = 0
    for sig in sigs:
        code = _check_one(sig, args)
        worst = max(worst, code)
    return worst


def _check_one(sig: LatticeSignature, args) -> int:
    dom = build_domain(sig)
    sp = side_pairings(dom)
    vd = vertices_D(dom)
    rel, cyc = group_checks(sig, tol=args.tolerance, max_order=args.max_order)
    checks = [
        ("frame-diagram", dom.diagram_ok, ""),
        ("side-pairing-factorizations", sp.factorizations_ok, ""),
        ("vertex-table", vd.table_ok, "; ".join(vd.failures)),
    ]
    for kind, report in (("relation", rel), ("cycle", cyc)):
        checks += [(f"{kind} {e.name}", e.status != "fail",
                    f"{e.status}: {e.detail}".strip(": ")) for e in report.entries]
    ok = all(passed for _, passed, _ in checks)
    lines = [f"[{'PASS' if passed else 'FAIL'}] {name}"
             + (f"  ({detail})" if detail and not passed else "")
             for name, passed, detail in checks]
    lines.append(f"{sig}: {'all checks passed' if ok else 'FAILURES above'}")
    _emit({
        "command": "check",
        "signature": [sig.p, sig.k, sig.p_prime],
        "checks": [{"name": n, "passed": p, "detail": d}
                   for n, p, d in checks],
        "all_passed": ok,
    }, args.json, "\n".join(lines))
    return 0 if ok else 1


def _cmd_vertices(args) -> int:
    sig = _signature(args)
    dom = build_domain(sig)
    vd = vertices_D(dom)
    rows = []
    lines = []
    for label, coord in vd.coords.items():
        finite = not no_finite_point(coord)
        entry = {
            "label": label,
            "collapsed": label in vd.collapsed,
            "coordinates": [[float(c.real), float(c.imag)] for c in coord]
            if finite else None,
        }
        rows.append(entry)
        if finite:
            # A part that prints as zero prints as +0.000000, whatever its sign.
            coord_txt = ", ".join(f"{c.real:+.6f}{c.imag:+.6f}i" for c in coord
                                  ).replace("-0.000000", "+0.000000")
        else:
            coord_txt = "no finite point"
        flag = "  [collapsed]" if label in vd.collapsed else ""
        lines.append(f"{label}: {coord_txt}{flag}")
    if not vd.table_ok:
        lines.append("WARNING: vertex table check failed")
    _emit({
        "command": "vertices",
        "signature": [sig.p, sig.k, sig.p_prime],
        "table_ok": vd.table_ok,
        "vertices": rows,
        "notes": list(vd.notes),
    }, args.json, "\n".join(lines))
    return 0 if vd.table_ok else 1


def _cmd_tessellate(args) -> int:
    sig = _signature(args)
    report = tessellation_sign_table(
        sig, ridge_id=args.ridge, n_samples=args.samples, seed=args.seed)
    requested = report.samples_requested
    short = report.samples_used < requested  # the sampler's draw cap was hit
    lines = [f"{name}: agreement {frac:.4f}" for name, frac in report.rows]
    count = f" of {requested} samples (draw cap reached)" if short else " samples"
    verdict = ("MISMATCH" if any(frac != 1.0 for _, frac in report.rows)
               else "SHORTFALL" if short else "all rows match")
    lines.append(f"{report.samples_used}{count}; {verdict}")
    _emit({
        "command": "tessellate",
        "signature": [sig.p, sig.k, sig.p_prime],
        "ridge": report.ridge,
        "rows": [{"copy": n, "agreement": f} for n, f in report.rows],
        "samples_used": report.samples_used,
        "samples_requested": requested,
        "all_match": report.all_match,
    }, args.json, "\n".join(lines))
    return 0 if report.all_match else 1


def _value(convert, ok, need: str):
    """An argparse type: ``convert`` the text, refused unless ``ok``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{need}, got {text!r}")
        return value
    return parse


# Below 1, since a projective comparison refuses a reference whose largest
# entry, 1 for the identity, is below the tolerance.
_TOLERANCE = _value(float, lambda v: 0 < v < 1, "must be a number in (0, 1)")
_COUNT = _value(int, lambda v: v >= 1, "must be an integer of at least 1")
_SEED = _value(int, lambda v: v >= 0, "must be a non-negative integer")


def _add_signature_args(sub) -> None:
    sub.add_argument("p", type=int)
    sub.add_argument("k", type=int)
    sub.add_argument("p_prime", type=int)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state on it."""
    parser = argparse.ArgumentParser(
        prog="dmlat",
        description="Verification toolkit for thirteen complex hyperbolic "
                    "lattice constructions.")
    parser.add_argument("--tolerance", type=_TOLERANCE, default=DEFAULT_TOL)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--max-order", type=_COUNT, default=DEFAULT_MAX_ORDER)
    parser.add_argument("--seed", type=_SEED, default=7)
    parser.add_argument("--force", action="store_true",
                        help="allow non-catalog signatures")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("list", help="show the 13 signatures and parameters")

    p_check = subs.add_parser("check", help="run relation and cycle checks")
    p_check.add_argument("p", type=int, nargs="?")
    p_check.add_argument("k", type=int, nargs="?")
    p_check.add_argument("p_prime", type=int, nargs="?")
    p_check.add_argument("--all", action="store_true",
                         help="check every catalog signature")

    p_euler = subs.add_parser("euler", help="exact Euler characteristic")
    _add_signature_args(p_euler)

    p_vert = subs.add_parser("vertices", help="print the 24 vertices")
    _add_signature_args(p_vert)

    p_tess = subs.add_parser("tessellate", help="ridge sign-table check")
    _add_signature_args(p_tess)
    p_tess.add_argument("--ridge", default="F(K,R'1)")
    p_tess.add_argument("--samples", type=_COUNT, default=200)
    return parser


_DISPATCH = {
    "list": _cmd_list,
    "check": _cmd_check,
    "euler": _cmd_euler,
    "vertices": _cmd_vertices,
    "tessellate": _cmd_tessellate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except (_UsageError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone. What is still buffered goes to the null device,
        # so that the flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
