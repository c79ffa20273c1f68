"""The package's public names: each one in ``__all__`` resolves, once."""

import mwlattice


def test_all_names_resolve_and_none_repeats():
    names = mwlattice.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mwlattice, name)]
    assert missing == []


def test_retired_names_stay_retired():
    # T's basis and the torsion come out of ``mwl`` and ``mw_group``; the
    # rank formula lives inside ``mw_rank_by_formula``.
    for name in ("trivial_lattice", "mw_torsion", "mw_rank_formula"):
        assert name not in mwlattice.__all__
        assert not hasattr(mwlattice, name)
