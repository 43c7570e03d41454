"""The package's start-up: the names `nflower` exports resolve on first use,
and each command line process loads only the modules its subcommand runs."""

import dataclasses
import importlib
import subprocess
import sys

import pytest

import nflower

# Every name the package exports, with the module it was imported from when
# `nflower/__init__.py` imported every module at its top.
EXPORTED = {
    "euclid": (
        "Circle", "FlowerLayout", "NumericFailure", "angle_gap", "angle_sum",
        "classic_descartes_residual", "four_flower_poly_residual", "invert_in_unit_circle",
        "inverted_flower", "layout_flower", "solve_central_radius", "tangency_residuals",
        "validate_flower",
    ),
    "hyperbolic": (
        "DiscHorocycle", "Horocycle", "Spinor", "apply_sl2", "bracket",
        "disc_curvature_of_spinor", "disc_horocycle_to_uhp", "disc_to_uhp",
        "horocycle_to_spinor", "lambda_length_geometric", "rotate_spinor",
        "spinor_to_horocycle", "uhp_horocycle_to_disc", "uhp_to_disc",
    ),
    "descartes": (
        "CentralSolve", "GeometricChain", "ParallelogramInvariants", "SpinorChain",
        "closure_residuals", "descartes_polynomial", "descartes_residual_complex",
        "descartes_residual_scale", "descartes_residual_subset", "eta_closed_form",
        "flat_curvatures", "flat_flower_residual", "geometric_spinor_chain", "kappa_plus_one",
        "m_from_normalized", "parallelogram_invariants", "solve_central_curvature",
        "solve_report", "spinor_recursion", "xi_from_etas",
    ),
    "polynomial": ("PolynomialZZ",),
    "document": ("FlowerDocument",),
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names]


class TestLazyNames:
    @pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
    def test_name_is_its_module_attribute(self, module, name):
        value = getattr(nflower, name)
        assert value is getattr(importlib.import_module(f"nflower.{module}"), name)
        # and the attribute of the module that defines it
        assert value is getattr(sys.modules[value.__module__], name)

    def test_all_lists_every_exported_name(self):
        assert sorted(nflower.__all__) == sorted(name for _, name in NAMES)

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from nflower import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(nflower.__all__)

    def test_dir_lists_every_exported_name(self):
        assert {name for _, name in NAMES} <= set(dir(nflower))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'nflower' has no attribute 'no_such_name'"):
            nflower.no_such_name
        with pytest.raises(ImportError):
            exec("from nflower import no_such_name", {})

    @pytest.mark.parametrize("module", [*EXPORTED, "solve"])
    def test_module_is_a_package_attribute(self, module):
        assert getattr(nflower, module) is importlib.import_module(f"nflower.{module}")

    def test_submodules_import_from_the_package(self):
        from nflower import descartes, euclid, solve

        assert euclid is sys.modules["nflower.euclid"]
        assert descartes is sys.modules["nflower.descartes"]
        assert descartes.solve_report is solve.solve_report


# Runs nflower.cli as `python -m nflower.cli` does, then writes the modules
# it loaded to stderr.
PROBE = """\
import runpy, sys
before = set(sys.modules)
try:
    runpy.run_module("nflower.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(" ".join(sorted(set(sys.modules) - before)) + "\\n")
"""


def loaded(code, *argv, stdin=None):
    """Exit code, stdout, and the modules a `python -W error` child loads."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code, *argv],
        input=stdin, capture_output=True, text=True, encoding="utf-8",
    )
    *_, last = proc.stderr.splitlines()
    return proc.returncode, proc.stdout, set(last.split())


def layout_document():
    return subprocess.run(
        [sys.executable, "-m", "nflower.cli", "layout", "1,2,3"],
        capture_output=True, text=True, encoding="utf-8", check=True,
    ).stdout


class TestChildImports:
    def test_import_nflower_loads_no_submodule(self):
        code = "import sys, nflower\nsys.stderr.write(' '.join(sys.modules) + '\\n')"
        rc, _, modules = loaded(code)
        assert rc == 0
        assert {m for m in modules if m.startswith("nflower")} == {"nflower"}

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["solve", "1,1,1"], {"descartes", "document", "hyperbolic", "polynomial", "svg"}),
            (["layout", "1,2,3"], {"descartes", "hyperbolic", "polynomial", "solve", "svg"}),
            (["render", "-", "-"], {"descartes", "hyperbolic", "polynomial", "solve"}),
            (["polynomial", "5"], {"euclid", "descartes", "polynomial", "document"}),
            (["verify", "-"], {"descartes", "hyperbolic", "polynomial", "svg"}),
            (["spinors", "1,1,1"], {"descartes", "document", "hyperbolic", "polynomial", "svg"}),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_subcommand_loads_only_what_it_runs(self, argv, absent):
        stdin = layout_document() if argv[0] in ("verify", "render") else None
        rc, out, modules = loaded(PROBE, *argv, stdin=stdin)
        assert rc == 0 and out
        assert "nflower" in modules
        assert not {f"nflower.{m}" for m in absent} & modules
        # The subcommands run float kernels: no record class is built.
        assert not {"nflower._records", "dataclasses", "inspect"} & modules
        if argv[0] in ("solve", "layout", "spinors", "polynomial"):  # no JSON read or written
            assert "json" not in modules
        # A plain call builds no parser, and only polynomial merges terms.
        assert not {"argparse", "gettext", "locale"} & modules
        if argv[0] != "polynomial":
            assert "heapq" not in modules

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["solve", "1,1,1"], {"euclid", "formats", "solve"}),
            (["spinors", "1,1,1"], {"euclid", "formats", "solve"}),
            (["layout", "1,2,3"], {"euclid", "formats", "document"}),
            (["verify", "-"], {"euclid", "formats", "document", "solve"}),
            (["render", "-", "-"], {"euclid", "formats", "document", "svg"}),
            (["polynomial", "5"], {"formats"}),
        ],
        ids=lambda v: v[0] if isinstance(v, list) else None,
    )
    def test_subcommand_loads_exactly_its_modules(self, argv, expected):
        # PROBE runs nflower.cli as __main__, so it is not among the modules.
        stdin = layout_document() if argv[0] in ("verify", "render") else None
        rc, out, modules = loaded(PROBE, *argv, stdin=stdin)
        assert rc == 0 and out
        nflower_modules = {m for m in modules if m.startswith("nflower")}
        assert nflower_modules == {"nflower", *(f"nflower.{m}" for m in expected)}

    @pytest.mark.parametrize(
        "argv", [["solve", "--json", "1,1,1"], ["layout", "--tol", "1e-6", "1,2,3"], ["polynomial", "-h"]],
        ids=lambda argv: " ".join(argv),
    )
    def test_call_with_an_option_goes_through_argparse(self, argv):
        rc, out, modules = loaded(PROBE, *argv)
        assert rc == 0 and out
        assert "argparse" in modules

    def test_solve_central_curvature_builds_no_record(self):
        code = (
            "import sys\nfrom nflower import solve_central_curvature\n"
            "print(solve_central_curvature([1, 1, 1]))\nsys.stderr.write(' '.join(sys.modules) + '\\n')"
        )
        rc, out, modules = loaded(code)
        assert rc == 0 and out == "6.464101615137752\n"
        assert not {"nflower._records", "dataclasses"} & modules

    def test_polynomial_loads_no_dataclasses(self):
        rc, _, modules = loaded(PROBE, "polynomial", "5")
        assert rc == 0
        assert "dataclasses" not in modules


# Each record class: the module that exports it through the package, and
# its fields, in order.
RECORDS = {
    "Circle": ("euclid", ("cx", "cy", "r")),
    "FlowerLayout": ("euclid", ("central", "petals", "gap_angles")),
    "CentralSolve": ("solve", ("central_curvature", "polished_curvature", "residual", "residual_scale")),
    "FlowerDocument": ("document", ("n", "central_curvature", "petal_curvatures", "tolerance", "circles")),
    "Spinor": ("hyperbolic", ("xi", "eta")),
    "Horocycle": ("hyperbolic", ("tangency", "radius", "height")),
    "DiscHorocycle": ("hyperbolic", ("tangency_angle", "radius")),
    "SpinorChain": ("descartes", ("spinors",)),
    "ParallelogramInvariants": ("descartes", ("areas", "closing_area", "dots")),
    "GeometricChain": ("descartes", ("chain", "start", "central_curvature", "disc_curvatures")),
    "PolynomialZZ": ("polynomial", ("nvars", "terms")),
}


def record(name):
    """An instance of the record class `name`, built through the library."""
    from nflower import (
        Circle, DiscHorocycle, FlowerDocument, Horocycle, Spinor, descartes_polynomial,
        geometric_spinor_chain, layout_flower, parallelogram_invariants, solve_report,
    )

    chain = geometric_spinor_chain([1.0, 2.0, 3.0])
    return {
        "Circle": lambda: Circle(0.0, 0.0, 1.0),
        "FlowerLayout": lambda: layout_flower([1.0, 0.5, 0.25]),
        "CentralSolve": lambda: solve_report([1.0, 2.0, 3.0]),
        "FlowerDocument": lambda: FlowerDocument(3, 6.5, (1.0, 1.0, 1.0)),
        "Spinor": lambda: Spinor(0.0, 1.0),
        "Horocycle": lambda: Horocycle(0.0, radius=1.0),
        "DiscHorocycle": lambda: DiscHorocycle(0.0, 0.5),
        "SpinorChain": lambda: chain.chain,
        "ParallelogramInvariants": lambda: parallelogram_invariants(chain.chain),
        "GeometricChain": lambda: chain,
        "PolynomialZZ": lambda: descartes_polynomial(3),
    }[name]()


class TestRecordClasses:
    """The record classes stay frozen dataclasses with the same fields, under
    every name they are exported by, wherever they are defined."""

    @pytest.mark.parametrize("name", RECORDS)
    def test_frozen_dataclass_with_its_fields(self, name):
        value = record(name)
        cls = type(value)
        assert dataclasses.is_dataclass(cls)
        assert tuple(f.name for f in dataclasses.fields(cls)) == RECORDS[name][1]
        for field in RECORDS[name][1]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, None)

    @pytest.mark.parametrize("name", RECORDS)
    def test_one_class_under_every_name(self, name):
        home = RECORDS[name][0]
        namespace = {}
        exec(f"from nflower.{home} import {name}", namespace)
        cls = getattr(nflower, name)
        assert cls is getattr(importlib.import_module(f"nflower.{home}"), name) is namespace[name]
        assert type(record(name)) is cls
