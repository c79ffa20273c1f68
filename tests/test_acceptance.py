"""Acceptance gate: the full verification battery on genera 1 through 3.

Each criterion of the battery gets its own test so a regression names
the criterion directly; every test prints the battery's own PASS/FAIL
line for that criterion.  All checks are exact rational arithmetic, so
there are no tolerances to configure.
"""

import dataclasses

import pytest

from mwlattice import oracles, verify
from mwlattice.verify import check_maximal_mwl, run_all

CRITERIA = (
    "fiber-gram",
    "trivial-mw",
    "maximal-mwl",
    "multiplicity-pattern",
    "component-relation",
    "equivalence-catalog",
    "discriminant-identity",
    "contact-order",
    "ade-germ",
    "isometry",
    "oracle-equivalence",
)


@pytest.fixture(scope="module")
def battery():
    results = {r.name: r for r in run_all((1, 2, 3), seed=7)}
    assert set(results) == set(CRITERIA)
    return results


@pytest.mark.parametrize("name", CRITERIA)
def test_criterion(battery, name, capsys):
    result = battery[name]
    with capsys.disabled():
        print(result.line())
    assert result.passed, result.detail


def test_maximal_mwl_runs_the_box_oracle_at_every_model(monkeypatch):
    scanned = []

    def short_by_one(gram, bound):
        scanned.append(gram)
        return oracles.box_short_vectors(gram, bound)[1:]

    monkeypatch.setattr(oracles, "brute_force_short_vectors", short_by_one)
    result = check_maximal_mwl((1,))
    assert not result.passed
    assert len(scanned) == 3
    for d in (0, 1, 2):
        assert "g=1 d=%d enumeration oracle disagrees" % d in result.detail


def test_maximal_mwl_reuses_the_default_model_report(monkeypatch):
    # g = 1: one mwl per model d = 0, 1, 2; the default d = 1 is not redone.
    models = []
    original = verify.mwl

    def recording_mwl(scenario):
        models.append(scenario.model.d)
        return original(scenario)

    monkeypatch.setattr(verify, "mwl", recording_mwl)
    assert check_maximal_mwl((1,)).passed
    assert sorted(models) == [0, 1, 2]


def test_maximal_mwl_checks_the_lattice_label(monkeypatch):
    # Every report is checked: each model d at g = 1, the default one at g = 3.
    original = verify.mwl
    monkeypatch.setattr(
        verify, "mwl", lambda sc: dataclasses.replace(original(sc), identified_as=None)
    )
    result = check_maximal_mwl((1, 3))
    assert not result.passed
    for g, d in ((1, 0), (1, 1), (1, 2), (3, 3)):
        assert "g=%d d=%d identified as None" % (g, d) in result.detail
