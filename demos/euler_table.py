"""Print the exact Euler characteristic and volume for every catalog row."""

from dmlat.catalog import catalog
from dmlat.verification import euler_characteristic


def main() -> None:
    print(f"{'signature':>12} {'chi':>10} {'volume/pi^2':>12}  rules")
    for sig in catalog():
        report = euler_characteristic(sig)
        rules = ", ".join(report.applied_rules) or "-"
        print(f"{str(sig):>12} {str(report.chi):>10} "
              f"{str(report.volume_coeff):>12}  {rules}")


if __name__ == "__main__":
    main()
