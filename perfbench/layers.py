"""Child process of the traced benchmark runs; records spans in a fresh interpreter.

    python3 perfbench/layers.py main SEED    # dmlat --json --seed SEED check --all
    python3 perfbench/layers.py layers       # one cold pass over the layers

``main`` times the import of ``dmlat.cli`` and an in-process
``main(["--json", "--seed", SEED, "check", "--all"])``; the program's report
lines come first on standard output and the exit code is the program's.
``layers`` calls the public function of each layer once per catalog triple,
in the order ``check`` needs them, so that ``side_pairings`` is timed on its
first call per triple. Both end their output with one line
``{"spans": [...]}``. Run with ``PYTHONPATH`` set to the repository's
``src``; ``perfbench/run.py`` does that.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer

# Repetitions of the sin_pi loop per triple: one call takes microseconds.
SIN_PI_REPS = 50


def main_check_all(tracer: Tracer, seed: str) -> int:
    with tracer.span("cli.import"):
        from dmlat import cli
    with tracer.span("cli.main_check_all"):
        return cli.main(["--json", "--seed", seed, "check", "--all"])


def layer_pass(tracer: Tracer) -> None:
    from dmlat.arithmetic import ExceededBound, projective_order, sin_pi
    from dmlat.catalog import catalog, derive_params
    from dmlat.domain import build_domain, side_pairings, vertices_D
    from dmlat.moves import (DegenerateDenominator, configurations_of, move_A1,
                             move_J, move_P, move_P_inverse, move_R1, move_R2)
    from dmlat.verification import (check_relations, cycle_orders,
                                    euler_characteristic)

    moves = (move_R1, move_R2, move_A1, move_P, move_J, move_P_inverse)
    for sig in catalog():
        with tracer.span("catalog.derive_params"):
            params = derive_params(sig)
        with tracer.span("verification.euler_characteristic"):
            euler_characteristic(sig)
        with tracer.span("moves.configurations_of"):
            charts = configurations_of(sig)
        fractions = [q for c in charts for q in c.angles()]
        fractions += [params.alpha, params.theta, params.phi]
        with tracer.span("arithmetic.sin_pi",
                         calls=SIN_PI_REPS * len(fractions)):
            for _ in range(SIN_PI_REPS):
                for q in fractions:
                    sin_pi(q)
        with tracer.span("moves.move_build", calls=len(charts) * len(moves)):
            for c in charts:
                for move in moves:
                    try:
                        move(c)
                    except DegenerateDenominator:
                        pass  # (3,3,3) at infinite k': undefined by design
        with tracer.span("domain.build_domain"):
            dom = build_domain(sig)
        with tracer.span("domain.side_pairings"):
            pairings = side_pairings(dom)
        with tracer.span("domain.vertices_D"):
            vertices_D(dom)
        with tracer.span("arithmetic.projective_order"):
            for m in pairings.as_dict().values():
                try:
                    projective_order(m.matrix)
                except ExceededBound:
                    pass  # parabolic pairings have no finite order
        with tracer.span("verification.check_relations"):
            check_relations(sig)
        with tracer.span("verification.cycle_orders"):
            cycle_orders(sig)


if __name__ == "__main__":
    tracer = Tracer()
    code = 0
    if sys.argv[1:2] == ["main"] and len(sys.argv) == 3:
        code = main_check_all(tracer, sys.argv[2])
    elif sys.argv[1:] == ["layers"]:
        layer_pass(tracer)
    else:
        sys.exit("usage: layers.py main SEED | layers.py layers")
    sys.stdout.flush()
    print(json.dumps({"spans": tracer.spans}))
    sys.exit(code)
