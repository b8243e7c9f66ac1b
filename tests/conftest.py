"""Shared fixtures: the reference catalog is built once per session."""

import pytest

from staticgeo import curvature_engine as ce
from staticgeo.catalog import default_catalog


@pytest.fixture(scope="session")
def catalog_entries():
    return default_catalog()


@pytest.fixture(scope="session")
def entry_by_name(catalog_entries):
    return {e.name: e for e in catalog_entries}


@pytest.fixture
def frame_builds(monkeypatch):
    """Arguments of every curvature frame built while the test runs."""
    built = []
    init = ce._Frame.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ce._Frame, "__init__", counting)
    return built
