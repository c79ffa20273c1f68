"""The two enumeration backends must be indistinguishable."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import matrices as mx
from mwlattice import oracles
from mwlattice import boxenum
from mwlattice.boxenum import (
    _box_fits_float64,
    _box_radii,
    _enumerate_numpy,
    _head_size,
    box_short_vectors,
    enumeration_backend,
    set_backend,
)
from mwlattice.catalog import build_catalog
from mwlattice.errors import FormError
from mwlattice.lattice import short_vectors, size_reduce
from mwlattice.mw import mwl
from mwlattice.oracles import brute_force_short_vectors
from mwlattice.scenarios import scenario_all_irreducible

BACKENDS = ("python", "numpy")


@pytest.fixture(autouse=True)
def _restore_backend():
    yield
    set_backend(None)


def _random_gram(rng, n):
    b = None
    while b is None or mx.det(b) == 0:
        b = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
    return mx.matmul(b, mx.transpose(b))


def test_backends_agree_on_random_grams():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(1, 4)
        gram = _random_gram(rng, n)
        bound = rng.randint(1, 6)
        results = {}
        for name in BACKENDS:
            set_backend(name)
            assert enumeration_backend() == name
            results[name] = box_short_vectors(gram, bound)
        first = results[BACKENDS[0]]
        for name in BACKENDS[1:]:
            assert results[name] == first, name


def test_backends_agree_on_rational_gram():
    gram = ((Fraction(1, 2), 0), (0, Fraction(3, 4)))
    expected = None
    for name in BACKENDS:
        set_backend(name)
        got = box_short_vectors(gram, 2)
        if expected is None:
            expected = got
        assert got == expected
    assert (1, 0) in expected and (0, 1) in expected


def test_box_matches_recursive_search():
    rng = random.Random(5)
    for _ in range(15):
        n = rng.randint(1, 4)
        gram = _random_gram(rng, n)
        bound = rng.randint(1, 5)
        assert box_short_vectors(gram, bound) == short_vectors(gram, bound)


def test_oracle_wrapper_matches():
    rng = random.Random(6)
    for _ in range(10):
        gram = _random_gram(rng, 3)
        assert brute_force_short_vectors(gram, 4) == short_vectors(gram, 4)


def test_oracle_scans_the_smaller_box(monkeypatch):
    # E_8 (g = 1, d = 1): size reduction grows the box from 7.0e5 to 1.8e6
    # points, so the given basis is scanned.  The rank-7 lattice of the
    # catalog's g = 1 cycle scenario, shaped like the benchmark survey's: it
    # shrinks the box from 196875 to 140625 points, so the reduced basis is
    # scanned.
    scanned = []

    def recording_scan(gram, bound):
        scanned.append(gram)
        return box_short_vectors(gram, bound)

    monkeypatch.setattr(oracles, "box_short_vectors", recording_scan)
    catalog = {entry.name: entry.scenario for entry in build_catalog()}
    e8 = mwl(scenario_all_irreducible(1, 1)).gram
    cycles = mwl(catalog["g1-cycle2"]).gram
    for gram, scan in ((e8, e8), (cycles, size_reduce(cycles)[0])):
        assert size_reduce(gram)[0] != gram
        scanned.clear()
        assert brute_force_short_vectors(gram, 2) == short_vectors(gram, 2)
        assert scanned == [scan]


def _skewed_grams():
    # Grams whose size-reduced box is the smaller one, so the oracle scans
    # the reduced basis and maps its vectors back.
    catalog = {entry.name: entry.scenario for entry in build_catalog()}
    yield mwl(catalog["g1-cycle2"]).gram
    rng = random.Random(47)
    while True:
        n = rng.randint(2, 4)
        t = mx.identity(n)
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            t = tuple(tuple(x - 2 * y for x, y in zip(row, t[j])) if k == i else row
                      for k, row in enumerate(t))
        gram = mx.matmul(mx.matmul(t, _random_gram(rng, n)), mx.transpose(t))
        if oracles._box_size(size_reduce(gram)[0], 3) < oracles._box_size(gram, 3):
            yield gram


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args):
        calls.append((name, args[0]))
        return original(*args)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("limit", [mx._INT64_LIMIT, 0])
def test_oracle_maps_back_exactly(monkeypatch, python_loops, limit):
    # With the product guard's limit at 0 the map-back must run on Python
    # integers: ``matmul`` then sums Python products for every product.
    monkeypatch.setattr(mx, "_INT64_LIMIT", limit)
    calls = []
    _counting(monkeypatch, oracles, "box_short_vectors", calls)
    for gram in itertools.islice(_skewed_grams(), 12):
        calls.clear()
        python_loops.clear()
        bound = 2 if len(gram) > 4 else 3
        found = brute_force_short_vectors(gram, bound)
        assert found == short_vectors(gram, bound)
        assert calls == [("box_short_vectors", size_reduce(gram)[0])]
        # the one map-back product: int64 unless the limit is 0 or it has no rows
        assert len(python_loops) == (limit == 0 or not found)


@pytest.mark.parametrize("given_wins", [True, False])
def test_oracle_sets_up_once(monkeypatch, given_wins):
    # One size_reduce and one box scan per oracle call, both through module
    # attributes, so a tracer that replaces them sees every call.
    catalog = {entry.name: entry.scenario for entry in build_catalog()}
    gram = mwl(scenario_all_irreducible(1, 1) if given_wins else catalog["g1-cycle2"]).gram
    calls = []
    _counting(monkeypatch, oracles, "size_reduce", calls)
    _counting(monkeypatch, oracles, "box_short_vectors", calls)
    brute_force_short_vectors(gram, 2)
    scanned = gram if given_wins else size_reduce(gram)[0]
    assert calls == [("size_reduce", gram), ("box_short_vectors", scanned)]


def test_box_radii_match_the_inverse():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 6)
        gram = _random_gram(rng, n)
        threshold = Fraction(rng.randint(0, 40), rng.randint(1, 7))
        inv = mx.inverse(gram)
        expected = [math.isqrt(math.floor(threshold * inv[i][i])) for i in range(n)]
        assert _box_radii(gram, threshold) == expected


def _numpy_matches_python(monkeypatch, gram, bound):
    set_backend("python")
    reference = box_short_vectors(gram, bound)
    set_backend("numpy")
    with monkeypatch.context() as m:
        # The numpy scan must run, not fall back to the reference.
        m.setattr(boxenum, "_enumerate_python", None)
        got = box_short_vectors(gram, bound)
    assert got == reference
    assert len(set(got)) == len(got)
    return got


def test_tiled_scan_rank_one(monkeypatch):
    assert _numpy_matches_python(monkeypatch, ((3,),), 12) == (
        (-2,), (-1,), (1,), (2,))


def test_tiled_scan_zero_radius(monkeypatch):
    gram = ((1, 0), (0, 100))
    assert _box_radii(gram, 2) == [1, 0]
    assert _numpy_matches_python(monkeypatch, gram, 2) == ((-1, 0), (1, 0))


def test_tiled_scan_single_tail_coordinate(monkeypatch):
    gram = ((4, 1, 1), (1, 3, 1), (1, 1, 1))
    radii = _box_radii(gram, 6)
    assert _head_size(radii) == len(radii) - 1
    assert _numpy_matches_python(monkeypatch, gram, 6)


def test_tiled_scan_rational_gram(monkeypatch):
    gram = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 3), 1))
    bound = Fraction(7, 5)
    _, scale = mx.as_integer_matrix(gram)
    assert (bound * scale).denominator > 1
    assert _numpy_matches_python(monkeypatch, gram, bound)


def test_tiled_scan_mirror_boundary(monkeypatch):
    # Z^4 at bound 2: head (v0, v1), tail (v2, v3).  The vectors with a zero
    # head, such as (0, 0, 1, -1) and its mirror (0, 0, -1, 1), are found
    # once each.
    gram = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert _head_size(_box_radii(gram, 2)) == 2
    got = _numpy_matches_python(monkeypatch, gram, 2)
    assert len(got) == 2 * 4 + 4 * 6
    assert (0, 0, 1, -1) in got and (0, 0, -1, 1) in got
    assert (0, 0, 0, 1) in got and (0, 0, 0, -1) in got


def test_tiled_scan_many_tiles(monkeypatch):
    # Tiles of a few rows each, so most boxes span several tiles and end on
    # a partial one.
    monkeypatch.setattr(boxenum, "_TILE", 20)
    rng = random.Random(43)
    for _ in range(20):
        gram = _random_gram(rng, rng.randint(2, 4))
        _numpy_matches_python(monkeypatch, gram, rng.randint(1, 8))


def test_tiled_scan_output_is_pinned(monkeypatch):
    # D_5 at bound 6: radii (2, 3, 4, 2, 2), a head of two coordinates, 17
    # positive heads against 225 tails, two head rows a tile and a partial
    # last tile.  The hash is of the list the scan returned before q2(b) and
    # the limit were folded into the tile's product, order included.
    d5 = ((2, -1, 0, 0, 0), (-1, 2, -1, 0, 0), (0, -1, 2, -1, -1), (0, 0, -1, 2, 0),
          (0, 0, -1, 0, 2))
    radii = _box_radii(d5, 6)
    assert radii == [2, 3, 4, 2, 2] and _head_size(radii) == 2
    monkeypatch.setattr(boxenum, "_TILE", 512)
    found = _enumerate_numpy(d5, radii, 6, 1)
    assert len(found) == 370
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "cd1797697613112a0bd7696bc0ff63b6455bfda159b098b3ff78197d594bb960")
    assert tuple(sorted(found)) == short_vectors(d5, 6)


@pytest.mark.parametrize("below", [0, 1], ids=["on-bound", "above-bound"])
def test_tiled_scan_at_the_precheck_edge(monkeypatch, below):
    # Radii (1, 1) and td * sum |g_ij| r_i r_j = 10 k = 2^50 - 4, just inside
    # the precheck, and so is the bound.  (1, -1) has norm exactly 10 k: the
    # terms of its product reach 2^50 and the sum is 0 or 1.
    k = ((1 << 50) - 1) // 10
    gram = ((4 * k, -k), (-k, 4 * k))
    bound = 10 * k - below
    radii = _box_radii(gram, bound)
    assert radii == [1, 1]
    assert (1 << 50) - 10 * k == 4 and _box_fits_float64(gram, radii, bound, 1)
    got = _numpy_matches_python(monkeypatch, gram, bound)
    assert ((1, -1) in got) == (below == 0)
    assert len(got) == 8 - 2 * below


@st.composite
def _gram_and_bound(draw):
    n = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    b = draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
        .map(lambda rows: tuple(map(tuple, rows)))
        .filter(lambda m: mx.det(m) != 0)
    )
    return mx.matmul(b, mx.transpose(b)), draw(st.integers(1, 8))


def _box_points(case):
    return math.prod(2 * r + 1 for r in _box_radii(*case))


# The python reference scans the whole box, so boxes stay small enough for
# it to run on every example.  Ranks up to 6 give head and tail blocks of up
# to three coordinates each.
@settings(derandomize=True, max_examples=50, deadline=None)
@given(_gram_and_bound().filter(lambda case: _box_points(case) <= 200_000))
def test_box_oracle_properties(case):
    gram, bound = case
    set_backend("python")
    reference = box_short_vectors(gram, bound)
    set_backend("numpy")
    assert box_short_vectors(gram, bound) == reference
    assert short_vectors(gram, bound) == reference
    assert brute_force_short_vectors(gram, bound) == reference


def test_box_rejects_bad_forms():
    with pytest.raises(FormError):
        box_short_vectors(((1, 1), (1, 1)), 2)
    with pytest.raises(FormError):
        box_short_vectors(((-1, 0), (0, 1)), 2)
    assert box_short_vectors((), 2) == ()
    assert box_short_vectors(((2,),), -1) == ()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "gram,message",
    [
        # positive diagonal, but not a Gram matrix
        (((2, 1), (0, 2)), "symmetric"),
        # eigenvalues 3, 3, -3 with every diagonal entry and every (G^-1)_ii
        # positive; (1, -1, 0) has norm -2
        (((1, 2, -2), (2, 1, 2), (-2, 2, 1)), "positive definite"),
        (((2, 1, 0), (1, 2, 0)), "square"),
    ],
)
def test_box_precondition_matches_search(gram, message, backend):
    set_backend(backend)
    with pytest.raises(FormError, match=message):
        box_short_vectors(gram, 2)
    with pytest.raises(FormError, match=message):
        brute_force_short_vectors(gram, 2)
    if len(gram) == len(gram[0]):
        with pytest.raises(FormError):
            short_vectors(gram, 2)


def test_set_backend_validation():
    with pytest.raises(ValueError):
        set_backend("fortran")
    set_backend("python")
    assert enumeration_backend() == "python"
    set_backend(None)
    assert enumeration_backend() == "numpy"
    with pytest.raises(ValueError):
        set_backend("compiled")


def test_large_entry_fallback_is_exact():
    # entries big enough to overflow the int64 precheck must still work
    big = 1 << 40
    gram = ((big, 0), (0, big))
    for name in BACKENDS:
        set_backend(name)
        assert box_short_vectors(gram, big) == ((-1, 0), (0, -1), (0, 1), (1, 0))
