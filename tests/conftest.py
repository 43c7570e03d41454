import os


def pytest_configure(config):
    # The `pythonpath` ini option puts src/ on this process's path only; tests
    # that start `python -m nflower.cli` need it in the child's environment.
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
