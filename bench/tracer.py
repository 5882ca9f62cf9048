"""Span tracer that times calls into each hyperwalk module from outside it.

``Tracer.install()`` wraps every plain function named in a module's
``__all__`` (for the modules in ``LAYERS``) and ``Hypergraph.__init__``, and
rebinds each wrapper in every ``hyperwalk.*`` namespace that holds the
original, so calls made through a module's globals -- including calls from
inside the same module -- are seen. ``uninstall()`` restores the originals.

Caveats:

* A reference kept in a container is not rebound. ``rankagg._METHODS`` holds
  the three rankers, so their time lands in ``experiment``'s self time.
* Classes are not rebound (replacing one would break ``isinstance``), so
  constructing ``Hyperedge`` or ``TransitionMatrix`` counts towards the
  calling span. ``Hypergraph.__init__`` is the one traced method.
* Private helpers (``_cheeger_enumerate``, ``_perron_unit_eigenvector``,
  ...) count towards the public function that calls them.

Every span is ``(name, start, end, parent, cmd, size)``: ``parent`` is the
index of the enclosing span or -1, ``cmd`` the command id set by the caller,
and ``size`` is ``(n_vertices, n_edges)`` of the first argument when that is
a hypergraph. Spans stay in memory until ``spans`` is read at the end of the
run. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("core", "walk", "stationary", "spectral", "reduction", "rankagg", "cli")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.cmd = -1
        self._stack: list[int] = []
        self._saved: list = []   # (namespace, attribute, original)

    def span(self, name: str, fn):
        """`fn` wrapped so each call records a span called `name`."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            first = args[0] if args else None
            size = (first.n_vertices, first.n_edges) if hasattr(first, "n_edges") else None
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.cmd, size)

        return traced

    def install(self) -> None:
        if self._saved:
            return
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hyperwalk.{layer}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self.span(f"{layer}.{attr}", fn)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "hyperwalk" or n.startswith("hyperwalk.")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, wrappers[value])
        hypergraph = importlib.import_module("hyperwalk.core").Hypergraph
        self._saved.append((hypergraph, "__init__", hypergraph.__init__))
        hypergraph.__init__ = self.span("core.Hypergraph.__init__", hypergraph.__init__)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._saved):
            setattr(ns, attr, original)
        self._saved.clear()


def self_times(spans, first: int = 0) -> list[float]:
    """Self time of each span in ``spans[first:]``: its duration minus the
    durations of its direct children. Parents are indices into ``spans``, and
    a span's parent never precedes `first` unless it is -1."""
    own = [end - start for _, start, end, _, _, _ in spans[first:]]
    for _, start, end, parent, _, _ in spans[first:]:
        if parent >= 0:
            own[parent - first] -= end - start
    return own


# Per-layer metrics of one job: metric -> span names whose self times it sums.
SELF_TIME = {
    "core.parse_s": ("core.read_hypergraph", "core.loads_json",
                     "core.build_hypergraph", "core.from_text"),
    "core.hypergraph_init_s": ("core.Hypergraph.__init__",),
    "core.incidence_s": ("core.incidence_matrices", "core.degrees"),
    "walk.transition_s": ("walk.transition_matrix",),
    "stationary.rho_s": ("stationary.stationary_rho",),
    "stationary.coupling_s": ("stationary.edge_coupling_matrix",),
    "stationary.direct_s": ("stationary.stationary_direct",),
    "spectral.eigh_s": ("spectral.eigh_symmetric", "spectral.eigenvalues_symmetric"),
    "spectral.cheeger_s": ("spectral.cheeger_constant",),
    "reduction.clique_expansion_s": ("reduction.clique_expansion_weights",),
    "rankagg.generate_s": ("rankagg.generate",),
    "rankagg.match_hypergraph_s": ("rankagg.match_hypergraph",),
    "rankagg.kendall_s": ("rankagg.kendall_tau",),
    "rankagg.experiment_self_s": ("rankagg.experiment",),
}

# metric -> span name whose calls it counts
CALLS = {
    "core.hypergraph_inits": "core.Hypergraph.__init__",
    "walk.transition_calls": "walk.transition_matrix",
    "stationary.rho_calls": "stationary.stationary_rho",
    "stationary.direct_calls": "stationary.stationary_direct",
    "spectral.eigh_calls": "spectral.eigh_symmetric",
    "spectral.cheeger_calls": "spectral.cheeger_constant",
    "rankagg.match_hypergraph_calls": "rankagg.match_hypergraph",
    "rankagg.kendall_calls": "rankagg.kendall_tau",
}


def layer_metrics(all_spans, first: int) -> dict[str, float]:
    """Per-layer metrics of the job whose spans are ``all_spans[first:]``
    (see README.md)."""
    own = self_times(all_spans, first)
    spans = all_spans[first:]
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(own[i] for name in names for i in by_name.get(name, ()))
    for metric, name in CALLS.items():
        out[metric] = len(by_name.get(name, ()))
    # Computed, not measured: bytes of the dense P (n^2) and of R and W
    # (n*|E| each) that every transition_matrix call allocates.
    out["walk.dense_mb"] = sum(
        8 * (n * n + 2 * n * m) for n, m in
        (spans[i][5] for i in by_name.get("walk.transition_matrix", ()))
    ) / 2**20
    out["spectral.cheeger_subsets"] = sum(
        2 ** spans[i][5][0] - 2 for i in by_name.get("spectral.cheeger_constant", ())
    )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            own[i] for i, span in enumerate(spans) if span[0].split(".", 1)[0] == layer
        )
    return out
