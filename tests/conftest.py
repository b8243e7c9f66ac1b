"""Shared fixtures: the reference catalog is built once per session."""

from dataclasses import dataclass

import pytest

from staticgeo import curvature_engine as ce
from staticgeo import static_verifier as sv
from staticgeo.catalog import default_catalog
from staticgeo.profiles import Profile


@pytest.fixture(scope="session")
def catalog_entries():
    return default_catalog()


@pytest.fixture(scope="session")
def entry_by_name(catalog_entries):
    return {e.name: e for e in catalog_entries}


@pytest.fixture(autouse=True)
def empty_pair_memo():
    """Each test starts without a report stored by an earlier test's verify_pair.

    The session's catalog objects are shared, so a stored report would
    otherwise carry over into a test that counts or patches the work.
    """
    sv._last_pair = sv._EMPTY


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


@dataclass(frozen=True)
class _Capped(Profile):
    """base with its derivative tower cut at max_order: a function that reads less."""

    base: Profile
    max_order: int

    def derivative(self, s, order: int):
        self._check_order(order)
        return self.base.derivative(s, order)


@pytest.fixture
def capped():
    """capped(profile, order): the profile, refusing every order above order."""
    return _Capped
