#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each checker is given a right answer,
which it must accept, and a wrong one, which it must reject.

    python3 perfbench/selftest.py      # exit 0 iff every checker behaves

run.py runs the same test before it measures anything.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import oracle
import workloads
from oracle import CheckFailed


def run() -> list[str]:
    """Return one line per checker that accepted a wrong answer or rejected
    a right one."""
    from nflower import cli, descartes, euclid, svg

    problems = []

    def expect(label: str, check, right: bool) -> None:
        try:
            check()
            accepted = True
        except CheckFailed:
            accepted = False
        if accepted != right:
            problems.append(f"{label}: {'rejected a right' if right else 'accepted a wrong'} answer")

    # Central curvature off by 1e-6 relative, for a random, a 3- and an equal flower.
    for petals in ((0.5, 2.0, 1.3, 7.0, 0.2), (1.0, 4.0, 0.25), (3.0,) * 12):
        rep = descartes.solve_report(petals)
        off = rep.central_curvature * (1.0 + 1e-6)
        expect(f"solve n={len(petals)}", lambda: workloads.check_solve(petals, rep), True)
        bad = dataclasses.replace(rep, central_curvature=off, polished_curvature=off)
        expect(f"solve n={len(petals)} off by 1e-6", lambda: workloads.check_solve(petals, bad), False)

    # A relation polynomial with one coefficient's sign flipped, each term in turn.
    petals = (0.5, 2.0, 1.3, 7.0, 0.2, 0.9)
    n = len(petals)
    flower_m = oracle.m_variables(petals, oracle.central_curvature(petals))
    points = [[0.5 + 0.1 * j for j in range(n)]]
    lines = descartes.descartes_polynomial(n).serialize().splitlines(keepends=True)
    expect("polynomial", lambda: oracle.check_polynomial("".join(lines), n, flower_m, points), True)
    for t, line in enumerate(lines):
        flipped = lines[:t] + [line[1:] if line[0] == "-" else "-" + line] + lines[t + 1:]
        expect(f"polynomial term {t} flipped",
               lambda: oracle.check_polynomial("".join(flipped), n, flower_m, points), False)

    # An SVG with one circle missing; a layout with one petal moved.
    layout = euclid.layout_flower([1.0 / k for k in petals])
    circles = [(c.cx, c.cy, c.r) for c in (layout.central, *layout.petals)]
    text = svg.flower_svg(circles)
    expect("svg", lambda: oracle.check_svg(text, circles), True)
    cut = text.splitlines(keepends=True)
    del cut[-2]
    expect("svg one circle missing", lambda: oracle.check_svg("".join(cut), circles), False)
    expect("layout", lambda: oracle.check_layout(petals, circles), True)
    moved = circles[:2] + [(circles[2][0] * (1.0 + 1e-6), circles[2][1], circles[2][2])] + circles[3:]
    expect("layout one petal moved", lambda: oracle.check_layout(petals, moved), False)

    # A spinor chain with one eta changed.
    chain = descartes.geometric_spinor_chain(petals).chain
    xis, etas = list(chain.xis), list(chain.etas)
    expect("chain", lambda: oracle.check_chain(xis, etas, positive=True), True)
    etas_bad = etas[:2] + [etas[2] * (1.0 + 1e-6)] + etas[3:]
    expect("chain one eta changed", lambda: oracle.check_chain(xis, etas_bad, positive=True), False)

    # A verify report with a FAIL line.
    doc = workloads.cli_in_process(cli, ["layout", workloads._fmt(petals)], None)[1]
    rc, out, _ = workloads.cli_in_process(cli, ["verify", "-"], doc)
    report = out.decode()
    expect("verify", lambda: oracle.check_cli_verify(report, rc, n), True)
    failing = report.replace("PASS", "FAIL", 1)
    expect("verify with a FAIL line", lambda: oracle.check_cli_verify(failing, rc, n), False)
    return problems


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    found = run()
    for line in found:
        print(line)
    print(f"selftest: {'FAIL' if found else 'PASS'}")
    sys.exit(1 if found else 0)
