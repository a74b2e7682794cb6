"""Run the full verification pipeline for one signature and print a summary.

Usage: python demos/verify_signature.py [p k p']   (defaults to 4 4 6)
"""

import sys

from dmlat.catalog import LatticeSignature
from dmlat.domain import build_domain, side_pairings, vertices_D
from dmlat.verification import euler_characteristic, group_checks


def main() -> None:
    args = [int(a) for a in sys.argv[1:4]] or [4, 4, 6]
    sig = LatticeSignature(*args)
    dom = build_domain(sig)
    sp = side_pairings(dom)
    vd = vertices_D(dom)
    rel, cyc = group_checks(sig)
    euler = euler_characteristic(sig)

    print(f"signature          {sig}")
    print(f"frame diagram      {'ok' if dom.diagram_ok else 'FAILED'}")
    print(f"factorizations     {'ok' if sp.factorizations_ok else 'FAILED'}")
    print(f"vertex table       {'ok' if vd.table_ok else 'FAILED'}")
    print(f"collapsed vertices {sorted(vd.collapsed) or 'none'}")
    print(f"relations          "
          f"{sum(e.status == 'pass' for e in rel.entries)} pass, "
          f"{sum(e.status == 'skipped' for e in rel.entries)} skipped")
    print(f"cycle checks       "
          f"{sum(e.status == 'pass' for e in cyc.entries)} pass, "
          f"{sum(e.status == 'skipped' for e in cyc.entries)} skipped")
    print(f"euler chi          {euler.chi}")
    print(f"volume             {euler.volume_coeff} * pi^2")


if __name__ == "__main__":
    main()
