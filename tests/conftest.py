import os

import pytest

from nflower import euclid


def pytest_configure(config):
    # The `pythonpath` ini option puts src/ on this process's path only; tests
    # that start `python -m nflower.cli` need it in the child's environment.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


@pytest.fixture(autouse=True)
def _no_kept_flower():
    # layout_flower and geometric_spinor_chain keep the last flower they
    # solved; each test starts without one, so none depends on the flower of
    # an earlier test.
    euclid._solved_flower.cache_clear()
