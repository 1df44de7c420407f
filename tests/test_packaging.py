"""What an installed package needs from ``pyproject.toml``. The suite
imports ``subsec`` from the source tree, so a data file that no
package-data glob ships, or a console script whose target was renamed,
would pass every other test. This reads the configuration rather than
building and installing a wheel."""

import importlib
from pathlib import Path

import pytest

import subsec

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

PACKAGE = Path(subsec.__file__).resolve().parent
CONFIG = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))


def test_every_data_file_matches_a_package_data_glob():
    shipped = {path for pattern in CONFIG["tool"]["setuptools"]["package-data"]["subsec"]
               for path in PACKAGE.glob(pattern)}
    data = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert data and data <= shipped


def test_the_console_scripts_resolve_to_callables():
    scripts = CONFIG["project"]["scripts"]
    assert scripts["subsec"] == "subsec.cli:run"
    for target in scripts.values():
        module, _, attribute = target.partition(":")
        obj = importlib.import_module(module)
        for name in attribute.split("."):
            obj = getattr(obj, name)
        assert callable(obj), target
