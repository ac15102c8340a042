"""Finite abstract simplicial complexes, a built-in catalog, and simplicial maps.

A complex is given by its facets over an ordered list of labeled vertices.
Internally every cell is a strictly increasing tuple of vertex indices; the
downward closure is computed lazily and memoized, since iterated subdivision
makes eager storage wasteful.
"""

from __future__ import annotations

import itertools
import json
import random as _random
from typing import Hashable, Iterable, Iterator, Sequence, TypeVar


class UsageError(ValueError):
    """Bad input: a malformed complex, bundle, certificate or bound profile,
    or arguments no operation accepts. The CLI exits 2 on any of these and
    prints the message."""


class ComplexError(UsageError):
    """Raised for malformed complexes or invalid arguments."""


Cell = tuple[int, ...]
T = TypeVar("T", bound=Hashable)


class Complex:
    """Abstract simplicial complex given by facets.

    Vertices are labeled strings; the label order defines the canonical
    vertex order used everywhere (cells are strictly increasing index
    tuples), and vertex_index maps each label to its position in that order.
    Facets must form an antichain.
    """

    def __init__(self, vertices: Sequence[str], facets: Iterable[Sequence[str]],
                 name: str | None = None):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ComplexError("duplicate vertex labels")
        self.name = name
        index = {v: i for i, v in enumerate(self.vertices)}
        fs: list[Cell] = []
        for f in facets:
            try:
                cell = tuple(sorted(index[v] for v in f))
            except KeyError as exc:
                raise ComplexError(f"facet vertex {exc.args[0]!r} not in vertex list") from None
            if len(set(cell)) != len(cell):
                raise ComplexError(f"facet {tuple(f)} has repeated vertices")
            if not cell:
                raise ComplexError("empty facet")
            fs.append(cell)
        fs = sorted(set(fs))
        for a, b in itertools.permutations(fs, 2):
            if set(a) <= set(b):
                raise ComplexError(f"facets are not an antichain: {a} inside {b}")
        if not fs:
            raise ComplexError("complex needs at least one facet")
        self.facets: tuple[Cell, ...] = tuple(fs)
        self.vertex_index = index
        self._cells_by_dim: dict[int, tuple[Cell, ...]] | None = None
        self._cell_set: frozenset[Cell] = frozenset()

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return max(len(f) for f in self.facets) - 1

    def label_cell(self, cell: Cell) -> tuple[str, ...]:
        return tuple(self.vertices[i] for i in cell)

    def _closure(self) -> dict[int, tuple[Cell, ...]]:
        if self._cells_by_dim is None:
            seen: set[Cell] = set()
            for f in self.facets:
                for k in range(1, len(f) + 1):
                    seen.update(itertools.combinations(f, k))
            by_dim: dict[int, list[Cell]] = {}
            for c in seen:
                by_dim.setdefault(len(c) - 1, []).append(c)
            self._cells_by_dim = {d: tuple(sorted(cs)) for d, cs in sorted(by_dim.items())}
            self._cell_set = frozenset(seen)
        return self._cells_by_dim

    def cells(self, dim: int | None = None) -> tuple[Cell, ...]:
        closure = self._closure()
        if dim is None:
            return tuple(itertools.chain.from_iterable(closure[d] for d in sorted(closure)))
        return closure.get(dim, ())

    def has_cell(self, cell: Cell) -> bool:
        self._closure()
        return cell in self._cell_set

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(cs) for d, cs in self._closure().items())

    def is_connected(self) -> bool:
        return len(components(range(len(self.vertices)), _facet_links(self.facets))) == 1

    # -- operations --------------------------------------------------------

    def skeleton(self, m: int) -> "Complex":
        """Subcomplex of all cells of dimension at most m."""
        if m < 0:
            raise ComplexError("skeleton dimension must be nonnegative")
        if m >= self.dim:
            return self
        new_facets: set[Cell] = set()
        for f in self.facets:
            if len(f) - 1 <= m:
                new_facets.add(f)
            else:
                new_facets.update(itertools.combinations(f, m + 1))
        # the m-skeleton's facets are automatically an antichain except where a
        # low facet sits inside an m-face of a bigger one
        labels = [self.label_cell(c) for c in _antichain(new_facets)]
        return Complex(self.vertices, labels,
                       name=f"{self.name}^({m})" if self.name else None)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "name": self.name or "",
            "vertices": list(self.vertices),
            "facets": [list(self.label_cell(f)) for f in self.facets],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Complex":
        """Inverse of to_json. A non-object, "vertices" that are not a list
        of strings, "facets" that are not a list of such lists, or a
        "name" that is not a string raise ComplexError naming the field."""
        if not isinstance(data, dict):
            raise ComplexError(f"a complex must be an object, got {type(data).__name__}")
        vertices, facets, name = data.get("vertices"), data.get("facets"), data.get("name", "")
        if not _is_strings(vertices):
            raise ComplexError(f"complex field 'vertices' must be a list of strings, "
                               f"got {vertices!r}")
        bad = [facets] if type(facets) is not list else \
            [f for f in facets if not _is_strings(f)]
        if bad:
            raise ComplexError(f"complex field 'facets' must be a list of lists of "
                               f"strings, got {bad[0]!r}")
        if type(name) is not str:
            raise ComplexError(f"complex field 'name' must be a string, got {name!r}")
        return cls(vertices, facets, name=name or None)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Complex) and self.vertices == other.vertices
                and self.facets == other.facets)

    def __hash__(self) -> int:
        return hash((self.vertices, self.facets))

    def __repr__(self) -> str:
        return (f"Complex({self.name or 'unnamed'}: {len(self.vertices)} vertices, "
                f"{len(self.facets)} facets, dim {self.dim})")


def _is_strings(value) -> bool:
    return type(value) is list and all(type(s) is str for s in value)


# -- built-in catalog --------------------------------------------------------

_LABELS = "abcdefghijklmnopqrstuvwxyz"


def _labels(n: int) -> list[str]:
    return list(_LABELS[:n])


def simplex_complex(n: int) -> Complex:
    """The standard n-simplex, one vertex per letter: the catalog's delta-n
    and the model cell of every signature walk of a star family."""
    if not 0 <= n < len(_LABELS):
        raise ComplexError(f"full simplices are provided for dimensions "
                           f"0..{len(_LABELS) - 1}")
    vs = _labels(n + 1)
    return Complex(vs, [vs], name=f"delta-{n}")


def boundary_complex(n: int) -> Complex:
    """Boundary of the n-simplex, a triangulated (n-1)-sphere."""
    if not 2 <= n <= 4:
        raise ComplexError("boundary spheres are provided for delta-2..delta-4")
    vs = _labels(n + 1)
    return Complex(vs, itertools.combinations(vs, n), name=f"boundary-delta-{n}")


def torus_7() -> Complex:
    """Vertex-minimal torus: facets {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    vs = _labels(7)
    facets = set()
    for i in range(7):
        facets.add(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        facets.add(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return Complex(vs, [[vs[i] for i in f] for f in sorted(facets)], name="torus-7")


def rp2_6() -> Complex:
    """Vertex-minimal projective plane (antipodal quotient of the icosahedron)."""
    vs = _labels(6)
    facets = [(0, 1, 2), (0, 1, 4), (0, 2, 3), (0, 3, 5), (0, 4, 5),
              (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 4, 5)]
    return Complex(vs, [[vs[i] for i in f] for f in facets], name="rp2-6")


def product_complex(k: Complex, l: Complex, name: str | None = None) -> Complex:
    """Staircase triangulation of the product of two complexes.

    Vertices are pairs; for each pair of facets the product cell is cut
    into monotone staircase paths, which glue consistently across shared
    faces because the path rule only depends on the coordinate orders.
    """
    verts = [f"{x}{y}" for x in k.vertices for y in l.vertices]
    pair_label = {(i, j): f"{k.vertices[i]}{l.vertices[j]}"
                  for i in range(len(k.vertices)) for j in range(len(l.vertices))}
    facets: set[tuple[str, ...]] = set()
    for f in k.facets:
        for g in l.facets:
            p, q = len(f) - 1, len(g) - 1
            for steps in itertools.combinations(range(p + q), p):
                path = [(f[0], g[0])]
                i = j = 0
                for s in range(p + q):
                    if s in steps:
                        i += 1
                    else:
                        j += 1
                    path.append((f[i], g[j]))
                facets.add(tuple(sorted(pair_label[v] for v in path)))
    return Complex(verts, _antichain(facets), name=name)


def random_complex(dim: int, n_vertices: int, seed: int, connected: bool = True) -> Complex:
    """Seeded random complex of the given dimension on n_vertices vertices,
    named random-<dim>-<n_vertices>-<seed>."""
    if dim < 0:
        raise ComplexError(f"dimension {dim} is negative")
    if n_vertices > len(_LABELS):
        raise ComplexError("too many vertices for the label alphabet")
    if dim + 1 > n_vertices:
        raise ComplexError("dimension too large for the vertex count")
    if connected and dim == 0 and n_vertices > 1:
        raise ComplexError("a 0-dimensional complex on several vertices "
                           "cannot be connected")
    rng = _random.Random(seed)
    vs = _labels(n_vertices)
    name = f"random-{dim}-{n_vertices}-{seed}"
    n_facets = max(1, n_vertices - dim + rng.randrange(0, n_vertices))
    chosen: set[Cell] = set()
    all_tops = list(itertools.combinations(range(n_vertices), dim + 1))
    rng.shuffle(all_tops)
    chosen.update(all_tops[:n_facets])
    # make sure a top-dimensional cell exists and every vertex is used
    used = set(itertools.chain.from_iterable(chosen))
    lonely = [i for i in range(n_vertices) if i not in used]
    facets: set[Cell] = set(chosen)
    for i in lonely:
        facets.add((i,))
    cx = Complex(vs, [[vs[i] for i in f] for f in _antichain(facets)], name=name)
    if connected and not cx.is_connected():
        facets = set(cx.facets)
        comp = components(range(n_vertices), _facet_links(facets))
        reps = sorted(min(c) for c in comp)
        for a, b in zip(reps, reps[1:]):
            facets.add((a, b))
        cx = Complex(vs, [[vs[i] for i in f] for f in _antichain(facets)],
                     name=name)
    return cx


def _antichain(cells: set[T]) -> list[T]:
    """The maximal members of a set of cells, sorted."""
    return sorted(c for c in cells
                  if not any(c != d and set(c) <= set(d) for d in cells))


def _facet_links(facets: Iterable[Cell]) -> Iterator[tuple[int, int]]:
    """Consecutive vertices of each facet, which join all of its vertices."""
    for f in facets:
        yield from zip(f, f[1:])


def components(nodes: Iterable[T], links: Iterable[tuple[T, T]]) -> list[set[T]]:
    """Connected components of the graph on nodes joined by links (union-find),
    listed in the order of their first node."""
    parent: dict[T, T] = {x: x for x in nodes}

    def find(x: T) -> T:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        parent[find(a)] = find(b)
    comp: dict[T, set[T]] = {}
    for x in parent:
        comp.setdefault(find(x), set()).add(x)
    return list(comp.values())


def point_complex() -> Complex:
    return Complex(["a"], [["a"]], name="point")


CATALOG = {
    "point": point_complex,
    "delta-1": lambda: simplex_complex(1),
    "delta-2": lambda: simplex_complex(2),
    "delta-3": lambda: simplex_complex(3),
    "delta-4": lambda: simplex_complex(4),
    "boundary-delta-2": lambda: boundary_complex(2),
    "boundary-delta-3": lambda: boundary_complex(3),
    "boundary-delta-4": lambda: boundary_complex(4),
    "s1": lambda: boundary_complex(2),
    "s2": lambda: boundary_complex(3),
    "s3": lambda: boundary_complex(4),
    "torus-7": torus_7,
    "rp2-6": rp2_6,
    "s1-x-s1": lambda: product_complex(boundary_complex(2), boundary_complex(2), name="s1-x-s1"),
    "s1-x-s2": lambda: product_complex(boundary_complex(2), boundary_complex(3), name="s1-x-s2"),
}


def builtin(name: str) -> Complex:
    """Look up a catalog complex; `random:<dim>:<nverts>:<seed>` is also accepted."""
    if name.startswith("random:"):
        try:
            _, d, n, s = name.split(":")
            return random_complex(int(d), int(n), int(s))
        except (ValueError, ComplexError) as exc:
            raise ComplexError(f"bad random complex spec {name!r}: {exc}") from None
    try:
        return CATALOG[name]()
    except KeyError:
        raise ComplexError(f"unknown builtin {name!r}; known: {', '.join(sorted(CATALOG))}") from None


def load_complex(path: str) -> Complex:
    with open(path, "r", encoding="utf-8") as fh:
        return Complex.from_json(json.load(fh))


# -- simplicial maps ---------------------------------------------------------


class SimplicialMap:
    """Vertex assignment between complexes whose cell images span cells."""

    def __init__(self, source: Complex, target: Complex, mapping: dict[str, str]):
        self.source = source
        self.target = target
        missing = [v for v in source.vertices if v not in mapping]
        if missing:
            raise ComplexError(f"map does not cover source vertices {missing}")
        bad_targets = [w for w in mapping.values() if w not in target.vertex_index]
        if bad_targets:
            raise ComplexError(f"map hits unknown target vertices {sorted(set(bad_targets))}")
        self._vmap = tuple(target.vertex_index[mapping[v]] for v in source.vertices)
        for f in source.facets:
            img = self.image_cell(f)
            if not target.has_cell(img):
                raise ComplexError(
                    f"image of facet {source.label_cell(f)} does not span a target cell")
        self.mapping = dict(mapping)

    def image_cell(self, cell: Cell) -> Cell:
        return tuple(sorted({self._vmap[i] for i in cell}))

    @classmethod
    def identity(cls, cx: Complex) -> "SimplicialMap":
        return cls(cx, cx, {v: v for v in cx.vertices})

    @classmethod
    def constant(cls, source: Complex, target: Complex, vertex: str) -> "SimplicialMap":
        return cls(source, target, {v: vertex for v in source.vertices})

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source.name} -> {self.target.name})"
