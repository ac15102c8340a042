"""Spans around kocover's public layer entry points, recorded from outside.

The tracer patches coarse entry points only: tower materialization and
streaming, cover build and verify, certificate verification, the bundle
codec, products and cup length. Each name is patched in every kocover
module that bound it (`from .certify import verify_certificate` makes a
second binding in `kocover.cover`). Per-cell methods (`contains_at`,
`carrier`, `carrier0`, `level`) are never wrapped: they run millions of
times and a wrapper would swamp what it measures.

Spans stay in memory. A span's self time is its total minus the time of
the spans opened while it was the innermost open span. A generator span
(`iter_cells`) is entered and left around every `next()`, so only the
time spent producing cells counts as its own.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import types
from collections import Counter

perf = time.perf_counter


class Span:
    __slots__ = ("name", "level", "parent", "total", "child", "items", "kind")

    def __init__(self, name: str, level: int | None, parent: "Span | None",
                 kind: str | None = None):
        self.name = name
        self.level = level
        self.parent = parent
        self.total = 0.0
        self.child = 0.0
        self.items = 0
        self.kind = kind

    @property
    def self_time(self) -> float:
        return self.total - self.child

    def ancestors(self):
        p = self.parent
        while p is not None:
            yield p
            p = p.parent


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[tuple[Span, float]] = []

    def top(self) -> Span | None:
        return self._stack[-1][0] if self._stack else None

    def open(self, name: str, level: int | None = None, kind: str | None = None) -> Span:
        span = Span(name, level, self.top(), kind)
        self.spans.append(span)
        self.enter(span)
        return span

    def enter(self, span: Span) -> None:
        self._stack.append((span, perf()))

    def leave(self) -> Span:
        span, t0 = self._stack.pop()
        dt = perf() - t0
        span.total += dt
        if self._stack:
            self._stack[-1][0].child += dt
        return span

    @contextlib.contextmanager
    def span(self, name: str, kind: str | None = None):
        """A span opened by the benchmark itself."""
        self.open(name, kind=kind)
        try:
            yield
        finally:
            self.leave()

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn, level_arg: int | None = None, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            level = args[level_arg] if level_arg is not None else None
            tracer.open(name, level)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, level_arg: int):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = None
            while True:
                if span is None:
                    span = tracer.open(name, args[level_arg])
                else:
                    tracer.enter(span)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.leave()
                span.items += 1
                yield item

        return wrapper

    def count_calls(self, counter: str, factory):
        """Wrap a factory so every call of the function it returns is counted."""
        counters = self.counters

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            inner = factory(*args, **kwargs)

            def counted(*a, **k):
                counters[counter] += 1
                return inner(*a, **k)

            return counted

        return wrapper


# -- patching -------------------------------------------------------------------


def _rebind(old, new) -> list[tuple[object, str, object]]:
    """Replace every module-level binding of `old` in kocover's modules."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "kocover" or modname.startswith("kocover.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))
    return undo


def install(tracer: Tracer):
    """Patch kocover's layer entry points; returns a function that undoes it."""
    from kocover import bounds, certify, cli, cover, product, tower

    undo: list[tuple[object, str, object]] = []
    Tower = tower.SubdivisionTower
    for attr, name in (("cells", "tower.cells"), ("count_cells", "tower.count_cells")):
        orig = Tower.__dict__[attr]
        setattr(Tower, attr, tracer.wrap(name, orig, level_arg=1))
        undo.append((Tower, attr, orig))
    orig = Tower.__dict__["iter_cells"]
    Tower.iter_cells = tracer.wrap_generator("tower.iter_cells", orig, level_arg=1)
    undo.append((Tower, "iter_cells", orig))

    def built(bundle):
        tracer.counters["certify.certificates_emitted"] += len(bundle.certificates)

    functions = [
        (cover.build_cover, "cover.build", built),
        (cover.verify_cover_bundle, "cover.verify", None),
        (certify.verify_certificate, "certify.verify", None),
        (product.assemble_product_cover, "product.assemble", None),
        (product.verify_product_cover, "product.verify", None),
        (bounds.cuplength_mod2, "bounds.cuplength", None),
    ]
    for fn, name, on_result in functions:
        undo += _rebind(fn, tracer.wrap(name, fn, on_result=on_result))
    undo += _rebind(tower.cell_encoder,
                    tracer.count_calls("codec.cells_encoded", tower.cell_encoder))

    for cls in (cover.CoverBundle, product.ProductCoverBundle):
        orig_to = cls.__dict__["to_json"]
        cls.to_json = tracer.wrap("codec.encode", orig_to)
        orig_from = cls.__dict__["from_json"]
        cls.from_json = classmethod(tracer.wrap("codec.decode", orig_from.__func__))
        undo += [(cls, "to_json", orig_to), (cls, "from_json", orig_from)]

    # the CLI writes and reads bundle files through json.dump / json.load
    proxy = types.SimpleNamespace(**{k: v for k, v in vars(json).items()
                                     if not k.startswith("__")})
    proxy.dump = tracer.wrap("codec.encode", json.dump)
    proxy.load = tracer.wrap("codec.decode", json.load)
    undo.append((cli, "json", cli.json))
    cli.json = proxy

    def uninstall():
        for obj, attr, val in reversed(undo):
            setattr(obj, attr, val)

    return uninstall


# -- per-layer metrics ------------------------------------------------------------

MAX_LEVEL = 4


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts from the recorded spans.

    Counts under negative controls are left out of certify.verify_calls so
    that verifies_per_certificate compares like with like.
    """
    out: dict[str, float] = Counter()
    for lvl in range(1, MAX_LEVEL + 1):
        out[f"tower.cells_materialized.l{lvl}"] = 0
        out[f"tower.materialize_s.l{lvl}"] = 0.0
    for key in ("tower.stream_s", "tower.cells_streamed", "tower.materialize_s",
                "tower.cells_materialized", "cover.build.self_s", "cover.verify.self_s",
                "certify.verify_s", "certify.verify_in_build_s", "certify.verify_calls",
                "codec.encode_s", "codec.decode_s", "product.assemble_s",
                "product.verify_s", "bounds.cuplength_s"):
        out[key] = 0
    for s in tracer.spans:
        parent = s.parent.name if s.parent is not None else None
        if s.name == "tower.iter_cells":
            if parent in ("tower.cells", "tower.count_cells"):
                out["tower.cells_materialized"] += s.items
                if s.level:
                    out[f"tower.cells_materialized.l{s.level}"] += s.items
                # producing the cells is part of materializing the level
                out["tower.materialize_s"] += s.self_time
                if s.level:
                    out[f"tower.materialize_s.l{s.level}"] += s.self_time
            else:
                out["tower.stream_s"] += s.self_time
                out["tower.cells_streamed"] += s.items
        elif s.name in ("tower.cells", "tower.count_cells"):
            out["tower.materialize_s"] += s.self_time
            if s.level:
                out[f"tower.materialize_s.l{s.level}"] += s.self_time
        elif s.name == "cover.build":
            out["cover.build.self_s"] += s.self_time
        elif s.name == "cover.verify":
            out["cover.verify.self_s"] += s.self_time
        elif s.name == "certify.verify":
            out["certify.verify_s"] += s.total
            names = {a.name for a in s.ancestors()}
            if "cover.build" in names:
                out["certify.verify_in_build_s"] += s.total
            if not any(a.kind == "control" for a in s.ancestors()):
                out["certify.verify_calls"] += 1
        elif s.name == "codec.encode":
            out["codec.encode_s"] += s.self_time
        elif s.name == "codec.decode":
            out["codec.decode_s"] += s.self_time
        elif s.name == "product.assemble":
            out["product.assemble_s"] += s.total
        elif s.name == "product.verify":
            out["product.verify_s"] += s.total
        elif s.name == "bounds.cuplength":
            out["bounds.cuplength_s"] += s.total
    emitted = tracer.counters["certify.certificates_emitted"]
    out["certify.certificates_emitted"] = emitted
    out["certify.verifies_per_certificate"] = (
        out["certify.verify_calls"] / emitted if emitted else 0.0)
    out["codec.cells_encoded"] = tracer.counters["codec.cells_encoded"]
    return dict(out)


def self_time_consistent(tracer: Tracer, tol: float = 1e-6) -> bool:
    """Each span's total equals its self time plus its children's totals."""
    child_sum: Counter = Counter()
    for s in tracer.spans:
        if s.parent is not None:
            child_sum[id(s.parent)] += s.total
    return all(abs(s.total - s.self_time - child_sum[id(s)]) <= tol * max(1.0, s.total)
               for s in tracer.spans)
