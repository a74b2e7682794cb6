"""Sampled tessellation checks around the two main ridge types.

Each ridge ends with the verdict of ``dmlat tessellate``: "all rows match",
MISMATCH (a row below 1) or SHORTFALL (the draw cap was reached). The demo
exits 1 if either ridge does not match.
"""

import sys

from dmlat.catalog import LatticeSignature
from dmlat.verification import tessellation_sign_table


def main() -> int:
    sig = LatticeSignature(4, 4, 6)
    failed = False
    for ridge in ("F(K,R'1)", "F(K,K^-1)"):
        report = tessellation_sign_table(sig, ridge, n_samples=500, seed=7)
        print(f"{ridge} ({report.samples_used} of {report.samples_requested} samples)")
        for name, frac in report.rows:
            print(f"  {name:<12} agreement {frac:.4f}")
        short = report.samples_used < report.samples_requested
        verdict = ("MISMATCH" if any(frac != 1.0 for _, frac in report.rows)
                   else "SHORTFALL" if short else "all rows match")
        print(f"  => {verdict}")
        failed = failed or not report.all_match
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
