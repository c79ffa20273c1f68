"""The package's public names: each one in ``__all__`` resolves, once."""

import dataclasses

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
    # ``mwl`` and ``orthogonal_complement`` work on plain integer rows.
    assert not hasattr(mwlattice.lattice, "IntegerLattice")
    # The oracle maps vectors back with ``matrices.matmul``, the one
    # integer product.
    assert not hasattr(mwlattice.oracles, "_map_back")
    # ``short_vectors`` and ``vector_norms`` give what it gave.
    assert not hasattr(mwlattice.lattice, "short_vectors_with_norms")
    # Members that only their own tests reached; ``substitute(var,
    # SparsePoly.const(c))``, ``label is not None`` and ``det(iso.matrix)``
    # say what three of them said.
    retired = {
        mwlattice.poly.SparsePoly: ("order", "substitute_value", "divide_by"),
        mwlattice.lattice.AbelianGroupInvariants: ("order",),
        mwlattice.mw.LatticeIdentification: ("matched",),
        mwlattice.surface.DivisorClass: ("self_intersection", "is_zero"),
        mwlattice.scenarios.BasisIsometry: ("determinant",),
    }
    for cls, members in retired.items():
        for member in members:
            assert not hasattr(cls, member), (cls.__name__, member)
    fields = {f.name for f in dataclasses.fields(mwlattice.catalog.CatalogEntry)}
    assert "note" not in fields
