"""Run the full verification pipeline for one signature and print a summary.

Usage: python demos/verify_signature.py [p k p']   (defaults to 4 4 6)

Relation and cycle rows are counted as ``dmlat check`` reports them: pass,
fail or skipped. The demo exits 1 if any check fails.
"""

import sys

from dmlat.catalog import LatticeSignature
from dmlat.domain import build_domain, side_pairings, vertices_D
from dmlat.verification import euler_characteristic, group_checks


def main() -> int:
    args = [int(a) for a in sys.argv[1:4]] or [4, 4, 6]
    sig = LatticeSignature(*args)
    dom = build_domain(sig)
    sp = side_pairings(dom)
    vd = vertices_D(dom)
    rel, cyc = group_checks(sig)
    euler = euler_characteristic(sig)
    flags = (dom.diagram_ok, sp.factorizations_ok, vd.table_ok)

    print(f"signature          {sig}")
    for label, ok in zip(("frame diagram", "factorizations", "vertex table"), flags):
        print(f"{label:<18} {'ok' if ok else 'FAILED'}")
    print(f"collapsed vertices {sorted(vd.collapsed) or 'none'}")
    for label, report in (("relations", rel), ("cycle checks", cyc)):
        counts = ", ".join(f"{sum(e.status == s for e in report.entries)} {s}"
                           for s in ("pass", "fail", "skipped"))
        print(f"{label:<18} {counts}")
    print(f"euler chi          {euler.chi}")
    print(f"volume             {euler.volume_coeff} * pi^2")
    return 0 if all(flags) and rel.all_pass and cyc.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
