"""In-memory span recorder for the traced benchmark run.

The tracer wraps layer functions from outside the package: every module
attribute of ``multislice`` that refers to a traced function is replaced by
the same wrapper, so calls made through ``from .operators import laplacian``
style imports are caught as well as calls inside the defining module.  The
float eigensolvers are wrapped on ``numpy.linalg`` and
``scipy.sparse.linalg``, where the package looks them up at call time.

Each call records one span (name, layer, start, end, parent id, attributes);
spans stay in memory and :func:`layer_metrics` turns them into the per-layer
metrics once the traced pass is over.  A layer's self time is the duration
of its spans minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

#: Modules whose functions are traced; the module name is the layer name.
LAYERS = ("core", "operators", "exactla", "spectral", "coarsening", "walk", "cli", "report")

#: Private functions traced because a metric needs them.
PRIVATE = {
    "spectral": ("_shifted_laplacian_float", "_deflated_min_eigenvalue"),
    "cli": ("_verify_one", "_emit_envelope"),
}

#: Public functions left unwrapped: tiny helpers called per element, whose
#: spans would cost more than the work they time.
UNTRACED = {"report.to_jsonable", "core.check_budget", "operators.transposition_pairs"}

#: Functions ``(k, f, ...)`` with a Fraction-list path and a float-array path;
#: a call counts toward ``operators.exact_s`` when ``f`` is not a float array.
EXACT_PATHS = (
    "operators.apply_laplacian",
    "operators.average_projection",
    "operators.project_onto_coordinate",
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    layer: str
    start: float
    end: float = -1.0
    attrs: dict = field(default_factory=dict)


def _lu_flops(shape) -> float:
    """LU operation count of an m x n matrix: 2/3 n^3 when square."""
    m, n = shape
    k = min(m, n)
    return 2.0 * (m * n * k - (m + n) * k * k / 2.0 + k**3 / 3.0)


class Tracer:
    """Wraps layer functions and keeps their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._tables: dict[int, np.ndarray] = {}

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else 0
        span = Span(len(self.spans) + 1, parent, name, layer, time.perf_counter())
        self.spans.append(span)
        return span

    def wrap(self, fn, name: str, layer: str, note=None):
        """Return a traced version of ``fn``; ``note(span, args, kwargs, result)`` adds attributes."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name, layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            self._stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if note is not None:
                    note(span, args, kwargs, result)

        return traced

    def _wrap_generator(self, fn, name: str, layer: str):
        # The span covers the iteration, not the call that creates the
        # generator; it is not pushed, since nothing traced runs inside it.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            count = 0
            try:
                for item in fn(*args, **kwargs):
                    count += 1
                    yield item
            finally:
                span.end = time.perf_counter()
                span.attrs["items"] = count

        return traced

    def _note_table(self, span, args, kwargs, result) -> None:
        # lru_cache hands back the same array on a hit, so a new object is a build
        if result is not None and id(result) not in self._tables:
            self._tables[id(result)] = result
            span.attrs["entries"] = int(result.size)

    def install(self, also=()) -> None:
        """Wrap every traced function at every place it is looked up.

        That is every module of the package, plus the modules in ``also``
        (the benchmark's own callers).
        """
        wrappers: dict[int, object] = {}
        modules = {layer: importlib.import_module(f"multislice.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            names = [
                name
                for name, obj in vars(mod).items()
                if inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
            ]
            names += [name for name in PRIVATE.get(layer, ()) if hasattr(mod, name)]
            for name in names:
                qual = f"{layer}.{name}"
                if qual in UNTRACED:
                    continue
                fn = getattr(mod, name)
                note = None
                if qual == "operators.transposition_table":
                    note = self._note_table
                elif qual == "exactla.rank_mod_p":
                    note = _note_shape
                elif qual == "walk.simulate":
                    note = _note_steps
                elif qual in EXACT_PATHS:
                    note = _note_exact
                wrappers[id(fn)] = self.wrap(fn, qual, layer, note)
        for mod in [sys.modules["multislice"], *modules.values(), *also]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, name, wrappers[id(obj)])

        import numpy.linalg
        import scipy.sparse.linalg

        for name in ("eigvalsh", "eigh"):
            fn = getattr(numpy.linalg, name)
            setattr(numpy.linalg, name, self.wrap(fn, f"numpy.linalg.{name}", "spectral", _note_shape))
        scipy.sparse.linalg.eigsh = self.wrap(
            self._counting_eigsh(scipy.sparse.linalg.eigsh), "scipy.sparse.linalg.eigsh", "spectral"
        )

    def _counting_eigsh(self, eigsh):
        """``eigsh`` that records the matvec count of its operator on the open span."""
        import scipy.sparse.linalg as spla

        @functools.wraps(eigsh)
        def counted(A, *args, **kwargs):
            op = spla.aslinearoperator(A)
            count = 0

            def matvec(v):
                nonlocal count
                count += 1
                return op.matvec(v)

            wrapped = spla.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
            try:
                return eigsh(wrapped, *args, **kwargs)
            finally:
                self._stack[-1].attrs["matvecs"] = count

        return counted


def _note_shape(span, args, kwargs, result) -> None:
    matrix = args[0] if args else kwargs.get("matrix", kwargs.get("a"))
    span.attrs["shape"] = np.shape(matrix)


def _note_steps(span, args, kwargs, result) -> None:
    cfg = args[0] if args else kwargs["cfg"]
    span.attrs["steps"] = cfg.steps


def _note_exact(span, args, kwargs, result) -> None:
    f = args[1] if len(args) > 1 else kwargs.get("f")
    span.attrs["exact"] = not (isinstance(f, np.ndarray) and f.dtype.kind == "f")


def gemm_gflops(n: int = 1024, repeats: int = 5) -> float:
    """Best float64 GEMM rate of ``repeats`` n x n products, in GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.random((n, n))
    b = rng.random((n, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2.0 * n**3 / best / 1e9


def layer_metrics(spans: list[Span], wall_s: float, n_items: int, gemm: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    spans = [s for s in spans if s.end >= s.start]
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def dur(s: Span) -> float:
        return s.end - s.start

    def self_time(s: Span) -> float:
        return dur(s) - sum(dur(c) for c in children[s.id])

    named: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def total(*names: str, own: bool = True) -> float:
        return sum(self_time(s) if own else dur(s) for n in names for s in named[n])

    def calls(*names: str) -> int:
        return sum(len(named[n]) for n in names)

    out: dict[str, float] = {}
    out["core.enumerate_s"] = total("core.vertices", "operators.vertex_array")
    out["core.vertices"] = sum(s.attrs.get("items", 0) for s in named["core.vertices"])
    out["operators.table_s"] = total("operators.transposition_table")
    out["operators.table_entries"] = sum(
        s.attrs.get("entries", 0) for s in named["operators.transposition_table"]
    )
    builds = ("operators.laplacian", "operators.laplacian_dense", "spectral._shifted_laplacian_float")
    out["operators.laplacian_s"] = total(*builds)
    out["operators.laplacian_builds_per_item"] = (
        calls("operators.laplacian", "spectral._shifted_laplacian_float") / max(n_items, 1)
    )
    out["operators.exact_s"] = sum(
        self_time(s) for n in EXACT_PATHS for s in named[n] if s.attrs.get("exact")
    )
    out["operators.identity_audit_s"] = total("operators.identity_audit", own=False)

    out["exactla.bareiss_s"] = total("exactla.exact_nullity", "exactla.fraction_free_rank")
    out["exactla.bareiss_calls"] = calls("exactla.fraction_free_rank")
    rank_spans = named["exactla.rank_mod_p"]
    rank_s = total("exactla.rank_mod_p")
    out["exactla.rank_mod_p_s"] = rank_s
    out["exactla.rank_mod_p_calls"] = len(rank_spans)
    per_parent: dict[int, int] = defaultdict(int)
    for s in rank_spans:
        per_parent[s.parent] += 1
    out["exactla.prime_retries"] = sum(c - 1 for c in per_parent.values())
    flops = sum(_lu_flops(s.attrs["shape"]) for s in rank_spans)
    rate = flops / rank_s / 1e9 if rank_s > 0 else 0.0
    out["exactla.rank_mod_p_gflops"] = rate
    out["exactla.rank_mod_p_roofline"] = rate / gemm
    out["blas.gemm_gflops"] = gemm

    eig = ("numpy.linalg.eigvalsh", "numpy.linalg.eigh")
    out["spectral.dense_eig_s"] = total(*eig)
    out["spectral.dense_eig_calls"] = calls(*eig)
    out["spectral.dense_eig_max_n"] = max(
        (s.attrs["shape"][0] for n in eig for s in named[n]), default=0
    )
    out["spectral.lanczos_s"] = total("scipy.sparse.linalg.eigsh")
    out["spectral.lanczos_matvecs"] = sum(
        s.attrs.get("matvecs", 0) for s in named["scipy.sparse.linalg.eigsh"]
    )
    out["spectral.induction_s"] = total("spectral.induction_audit", own=False)
    # each induction step solves its own gap once, then once per child
    out["spectral.induction_child_solves"] = sum(
        max(0, sum(1 for c in children[s.id] if c.name == "spectral.scaled_gap") - 1)
        for s in named["spectral.induction_audit"]
    )
    out["spectral.certificate_self_s"] = total(
        "spectral.gap_certificate", "spectral.certification_suite"
    )
    out["coarsening.vertex_map_s"] = total("coarsening.vertex_map", own=False)
    out["coarsening.intertwine_s"] = total(
        "coarsening.intertwine_audit", "coarsening.intertwine_check", own=False
    )
    out["coarsening.containment_s"] = total("coarsening.spectrum_containment", own=False)
    stepping = total("walk.simulate")
    out["walk.stepping_s"] = stepping
    steps = sum(s.attrs.get("steps", 0) for s in named["walk.simulate"])
    out["walk.steps_per_s"] = steps / stepping if stepping > 0 else 0.0
    out["report.envelope_s"] = total("cli._emit_envelope", own=False) or total(
        "report.envelope", own=False
    )

    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        layer_self[s.layer] += self_time(s)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.wall_s"] = wall_s
    out["trace.covered_frac"] = sum(layer_self.values()) / wall_s if wall_s > 0 else 0.0
    return out
