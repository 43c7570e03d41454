import os

import pytest

from nflower import descartes, euclid


def pytest_configure(config):
    # The `pythonpath` ini option puts src/ on this process's path only; tests
    # that start `python -m nflower.cli` need it in the child's environment.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


@pytest.fixture(autouse=True)
def _empty_memos():
    # layout_flower and geometric_spinor_chain keep the last flower they
    # solved, and descartes_polynomial keeps n <= 12; each test starts with
    # both memos empty, so none depends on what an earlier test built.
    euclid._solved_flower.cache_clear()
    descartes._relation_polynomial.cache_clear()
