"""Workloads: the operations of one round, their inputs and their checks.

A workload's make-up (the kind and the n of every slot of a round) is fixed;
the seed draws only the petal curvatures, log-uniform over [0.1, 10] (a 100x
range, as in the package's acceptance criterion 3).  Every fifth flower of
a solve workload has equal petals, so the closed form k0 = k s/(1 - s)
checks it.  The counts of each n are chosen so that the median and the
90th percentile fall inside a group of operations of one n, not on the edge
between two groups, where they would jump from one group to the other.

An operation whose slot is in `known_faults` fails on every run because of
a fault of the program; it is counted as failed and leaves the run correct.

Operations call nflower through its module attributes at call time, so a
tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import threading
from time import perf_counter

import oracle
from oracle import CheckFailed

# n -> operations per round.
SOLVE_SMALL = {3: 3, 4: 3, 5: 3, 6: 3, 7: 6, 8: 4, 9: 4, 10: 4}
SOLVE_MID = {13: 2, 14: 2, 15: 2, 16: 2, 17: 2, 18: 2, 19: 1, 20: 1}
SOLVE_LARGE = {n: 1 for n in (25, 30, 34, 39, 44, 49, 54, 58, 63, 68, 72, 77, 82, 87, 92, 96, 101,
                              106, 111, 116, 120)}
EXPLAIN = {3: 3, 4: 3, 5: 3, 6: 3, 7: 4, 8: 4, 9: 4, 10: 4}
# The flower given to the command line tool, and the relation polynomial it
# prints.  Few invocations per round give each one more repetitions in a run.
CLI_FLOWER = 4
CLI_POLYNOMIAL = 12

IN_PROCESS = {"solve-small": SOLVE_SMALL, "solve-mid": SOLVE_MID, "solve-large": SOLVE_LARGE,
              "explain": EXPLAIN}
NAMES = (*IN_PROCESS, "cli")

CHILD_TIMEOUT_S = 60.0


def _curvatures(rng: random.Random, n: int, equal: bool) -> tuple[float, ...]:
    if equal:
        return (10.0 ** rng.uniform(-1.0, 1.0),) * n
    return tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n))


def _round_of(counts: dict[int, int]) -> list[int]:
    """n of each slot: the counts, interleaved in an order fixed for all seeds."""
    ns = [n for n, c in sorted(counts.items()) for _ in range(c)]
    random.Random("make-up").shuffle(ns)
    return ns


def _random_points(key: str, n: int) -> list[list[float]]:
    rng = random.Random(key)
    return [[rng.uniform(0.5, 1.5) for _ in range(n)]]


class InProcess:
    """Workloads run inside this process: solve-* and explain."""

    def __init__(self, name: str, seed: int):
        self.mods = {m: importlib.import_module(f"nflower.{m}")
                     for m in ("euclid", "descartes", "document", "svg")}
        self.kind = "explain" if name == "explain" else "solve"
        counts = IN_PROCESS[name]
        rng = random.Random(f"{name}/{seed}")
        self.slots = [_curvatures(rng, n, self.kind == "solve" and i % 5 == 4)
                      for i, n in enumerate(_round_of(counts))]
        self.known_faults = set()
        if self.kind == "explain":
            # spinor_recursion does not close on symmetric flowers of even n:
            # four unit petals fail their chain check on every run.
            self.known_faults.add(len(self.slots))
            self.slots.append((1.0,) * 4)
        self._reference: dict[int, tuple] = {}
        self._passed: set[str] = set()

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def run(self, i: int):
        petals = self.slots[i]
        if self.kind == "solve":
            return self.mods["descartes"].solve_report(petals)
        euclid, descartes = self.mods["euclid"], self.mods["descartes"]
        n = len(petals)
        layout = euclid.layout_flower([1.0 / k for k in petals])
        circles = tuple((c.cx, c.cy, c.r) for c in (layout.central, *layout.petals))
        doc = self.mods["document"].FlowerDocument(
            n, layout.central.curvature, petals, circles=circles)
        text = doc.to_json()
        back = self.mods["document"].FlowerDocument.from_json(text)
        svg_text = self.mods["svg"].flower_svg(circles)
        geometric = descartes.geometric_spinor_chain(petals)
        k0 = layout.central.curvature
        m = descartes.m_from_normalized([k / k0 for k in petals])
        chain = descartes.spinor_recursion(m)
        closure = descartes.closure_residuals(chain)
        poly = descartes.descartes_polynomial(n).serialize()
        return circles, doc, text, back, svg_text, geometric, m, chain, closure, poly

    def _ref(self, i: int):
        """Central curvature solved here, the flower's m-variables and
        random points, for slot i."""
        if i not in self._reference:
            petals = self.slots[i]
            k0 = oracle.central_curvature(petals)
            self._reference[i] = (oracle.m_variables(petals, k0),
                                  _random_points(f"points/{i}", len(petals)))
        return self._reference[i]

    def check(self, i: int, out) -> None:
        petals = self.slots[i]
        if self.kind == "solve":
            check_solve(petals, out)
            return
        circles, doc, text, back, svg_text, geometric, m, chain, closure, poly = out
        n = len(petals)
        oracle.check_layout(petals, circles)
        if back != doc:
            raise CheckFailed("document changed in a JSON round trip")
        oracle.check_document_json(text, n, 1.0 / circles[0][2], petals, circles)
        oracle.check_svg(svg_text, circles)
        oracle.check_central(petals, geometric.central_curvature)
        oracle.check_chain([s.xi for s in geometric.chain.spinors],
                           [s.eta for s in geometric.chain.spinors], positive=True)
        want_m = oracle.m_variables(petals, 1.0 / circles[0][2])
        if any(abs(a - b) > oracle.SOLVE_TOL * max(1.0, b) for a, b in zip(m, want_m)):
            raise CheckFailed("m-variables differ from the formula")
        oracle.check_chain([s.xi for s in chain.spinors], [s.eta for s in chain.spinors])
        if max(abs(v) for v in closure) > oracle.CHAIN_TOL * 10:
            raise CheckFailed(f"closure residuals {closure}")
        # The same polynomial text has the same verdict: check each text once.
        if poly not in self._passed:
            oracle.check_polynomial(poly, n, *self._ref(i))
            self._passed.add(poly)


def check_solve(petals, rep) -> None:
    oracle.check_central(petals, rep.central_curvature)
    if not abs(rep.polished_curvature - rep.central_curvature) <= oracle.SOLVE_TOL * rep.central_curvature:
        raise CheckFailed("relation root differs from the geometric root")
    if not abs(rep.residual) <= oracle.SOLVE_TOL * rep.residual_scale:
        raise CheckFailed("relation residual above tolerance")


def _fmt(petals) -> str:
    return ",".join(repr(k) for k in petals)


def run_child(argv, cwd, env, stdin: bytes | None):
    """Run one child process; return (exit code, stdout, stderr, peak RSS in kB)."""
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE) as p:
        killer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        killer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
        reader.start()
        if stdin is not None:
            p.stdin.write(stdin)
            p.stdin.close()
        out = p.stdout.read()
        reader.join()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        killer.cancel()
    return p.returncode, out, err[0], usage.ru_maxrss


def cli_in_process(cli, tail, stdin: bytes | None):
    """cli.main in this process, stdout captured: (exit code, stdout, seconds)."""
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO((stdin or b"").decode())
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            start = perf_counter()
            rc = cli.main(tail)
            seconds = perf_counter() - start
    finally:
        sys.stdin = saved
    return rc, buf.getvalue().encode(), seconds


class Cli:
    """The command line tool as a child process, one at a time."""

    def __init__(self, seed: int, root, traced: bool = False):
        self.cli = importlib.import_module("nflower.cli")
        self.root = root
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.traced = traced
        rng = random.Random(f"cli/{seed}")
        self.petals = _curvatures(rng, CLI_FLOWER, False)
        self.poly_petals = _curvatures(rng, CLI_POLYNOMIAL, False)
        arg = _fmt(self.petals)
        self.slots = [["solve", arg], ["layout", arg], ["verify", "-"], ["render", "-", "-"],
                      ["spinors", arg], ["polynomial", str(CLI_POLYNOMIAL)]]
        self.known_faults = set()
        self.layout = b""  # stdout of this round's layout, the input of verify and render
        self.first = {}  # slot -> stdout of its first run
        self.rss_kb = 0
        self.startup_s = []
        self._reference = None

    def peak_rss_kb(self) -> int:
        return self.rss_kb

    def run(self, i: int):
        tail = self.slots[i]
        stdin = self.layout if tail[0] in ("verify", "render") else None
        start = perf_counter()
        rc, out, err, rss = run_child([sys.executable, "-m", "nflower.cli", *tail],
                                      self.root, self.env, stdin)
        wall = perf_counter() - start
        self.rss_kb = max(self.rss_kb, rss)
        inproc = None
        if self.traced:
            inproc = cli_in_process(self.cli, tail, stdin)
            self.startup_s.append(wall - inproc[2])
        if tail[0] == "layout":
            self.layout = out
        return rc, out, err, inproc

    def check(self, i: int, result) -> None:
        rc, out, err, inproc = result
        cmd = self.slots[i][0]
        text = out.decode()
        if rc != 0 or err:
            raise CheckFailed(f"{cmd} exited {rc}: {err.decode()[-200:]}")
        if self.first.setdefault(i, out) != out:
            raise CheckFailed(f"{cmd} output differs from its first run")
        if inproc is not None and inproc[:2] != (rc, out):
            raise CheckFailed(f"{cmd} in process differs from the child process")
        if cmd == "solve":
            oracle.check_cli_solve(text, self.petals)
        elif cmd == "verify":
            oracle.check_cli_verify(text, rc, CLI_FLOWER)
        elif cmd == "layout":
            raw = json.loads(text)
            if raw["petal_curvatures"] != list(self.petals) or raw["n"] != CLI_FLOWER:
                raise CheckFailed("layout document does not hold the input petals")
            oracle.check_layout(self.petals, raw["circles"])
        elif cmd == "render":
            oracle.check_svg(text, json.loads(self.layout)["circles"])
        elif cmd == "spinors":
            oracle.check_cli_spinors(text, self.petals)
        else:
            if self._reference is None:
                k0 = oracle.central_curvature(self.poly_petals)
                self._reference = (oracle.m_variables(self.poly_petals, k0),
                                   _random_points("cli", CLI_POLYNOMIAL))
            oracle.check_polynomial(text, CLI_POLYNOMIAL, *self._reference)


def make(name: str, seed: int, root, traced: bool = False):
    if name == "cli":
        return Cli(seed, root, traced)
    return InProcess(name, seed)
