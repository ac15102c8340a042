import itertools

import pytest
from hypothesis import given, settings, strategies as st

from kocover import Complex, ComplexError, SimplicialMap, builtin, random_complex
from kocover.complexes import product_complex


def test_validation_rejects_bad_facets():
    with pytest.raises(ComplexError):
        Complex(["a", "b"], [["a", "z"]])
    with pytest.raises(ComplexError):
        Complex(["a", "b", "c"], [["a", "b", "c"], ["a", "b"]])  # not an antichain
    with pytest.raises(ComplexError):
        Complex(["a", "a"], [["a"]])


def test_skeleton_examples():
    s2 = builtin("boundary-delta-3")
    sk1 = s2.skeleton(1)
    assert sk1.dim == 1
    assert len(sk1.cells(1)) == 6  # complete graph on 4 vertices
    assert len(sk1.cells(0)) == 4

    torus = builtin("torus-7")
    assert torus.skeleton(0).cells() == tuple((i,) for i in range(7))
    # skeleton at the full dimension is the identity
    assert torus.skeleton(torus.dim) is torus
    with pytest.raises(ComplexError):
        torus.skeleton(-1)


@pytest.mark.parametrize("name,chi,connected", [
    ("delta-2", 1, True),
    ("delta-3", 1, True),
    ("boundary-delta-3", 2, True),
    ("boundary-delta-4", 0, True),
    ("s1", 0, True),
    ("torus-7", 0, True),
    ("rp2-6", 1, True),
    ("s1-x-s1", 0, True),
    ("s1-x-s2", 0, True),
])
def test_catalog_euler_and_connectivity(name, chi, connected):
    cx = builtin(name)
    assert cx.euler_characteristic() == chi
    assert cx.is_connected() == connected


@pytest.mark.parametrize("name", ["torus-7", "rp2-6", "s1-x-s1"])
def test_catalog_closed_surfaces(name):
    cx = builtin(name)
    edge_count = {}
    for f in cx.facets:
        assert len(f) == 3
        for e in itertools.combinations(f, 2):
            edge_count[e] = edge_count.get(e, 0) + 1
    assert all(v == 2 for v in edge_count.values())


def test_product_triangulation_counts():
    s1 = builtin("s1")
    t = product_complex(s1, s1)
    assert len(t.vertices) == 9
    assert len(t.facets) == 18
    s1s2 = builtin("s1-x-s2")
    assert len(s1s2.vertices) == 12
    assert len(s1s2.facets) == 36
    assert all(len(f) == 4 for f in s1s2.facets)
    # every 2-face of the 3-manifold lies in exactly two facets
    face_count = {}
    for f in s1s2.facets:
        for tri in itertools.combinations(f, 3):
            face_count[tri] = face_count.get(tri, 0) + 1
    assert all(v == 2 for v in face_count.values())


def test_json_round_trip():
    cx = builtin("torus-7")
    again = Complex.from_json(cx.to_json())
    assert again == cx


def test_random_dim0_connected_rejected():
    with pytest.raises(ComplexError):
        random_complex(0, 3, 1)


@pytest.mark.parametrize("dim", [-1, -2])
def test_random_negative_dimension_rejected(dim):
    with pytest.raises(ComplexError, match=f"dimension {dim} is negative"):
        random_complex(dim, 3, 1)
    with pytest.raises(ComplexError, match=f"dimension {dim} is negative"):
        builtin(f"random:{dim}:3:1")


def test_random_names_tell_the_vertex_count_apart():
    assert random_complex(2, 7, 5).name == "random-2-7-5"
    assert random_complex(2, 8, 5).name == "random-2-8-5"
    assert builtin("random:1:5:42").name == "random-1-5-42"


@given(st.integers(1, 2), st.integers(3, 8), st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_random_complexes_are_valid(dim, nverts, seed):
    cx = random_complex(dim, nverts, seed)
    assert cx.is_connected()
    assert cx.dim <= dim
    # downward closure contains every face of every facet
    for f in cx.facets:
        for k in range(1, len(f)):
            for sub in itertools.combinations(f, k):
                assert cx.has_cell(sub)
    # determinism
    again = random_complex(dim, nverts, seed)
    assert again.facets == cx.facets


def test_simplicial_map_validation():
    d2 = builtin("delta-2")
    s1 = builtin("s1")
    # fold the triangle boundary onto one edge of the full triangle
    f = SimplicialMap(s1, d2, {"a": "a", "b": "b", "c": "a"})
    assert f.image_cell((0, 1)) == (0, 1)
    assert f.image_cell((0, 2)) == (0,)
    with pytest.raises(ComplexError):
        SimplicialMap(s1, d2, {"a": "a"})
    id2 = SimplicialMap.identity(d2)
    assert id2.image_cell((0, 1, 2)) == (0, 1, 2)
