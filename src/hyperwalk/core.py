"""Hypergraph data model: validation, degrees, weight transforms, and
(de)serialization.

Vertices are opaque strings mapped to dense indices in declaration order, so
every matrix produced downstream is deterministic for a given input.
Hypergraphs and graphs are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DisconnectedHypergraph,
    DuplicateVertex,
    EmptyEdge,
    MalformedInput,
    NonPositiveWeight,
    NotSymmetric,
    UnknownVertex,
)

__all__ = [
    "Hypergraph",
    "WeightedGraph",
    "build_hypergraph",
    "degrees",
    "delta_normalized",
    "demo_hypergraph",
    "dumps_json",
    "edge_independent_gamma",
    "from_text",
    "graph_to_json_dict",
    "has_trivial_weights",
    "loads_json",
    "read_hypergraph",
    "rescale_edges",
    "to_json_dict",
    "to_text",
]


# A weight is a Python or numpy int or float (not a bool, an int subclass,
# nor a str: float() would take both) with 0 < w <= _FLOAT_MAX, which also
# rejects NaN, the infinities and a JSON int too large for a float.
_REAL = frozenset([int, float] + [np.dtype(c).type for c in np.typecodes["AllInteger"]
                                  + np.typecodes["Float"]])
_FLOAT_MAX = float(np.finfo(float).max)


def _find(parent: list, x: int) -> int:
    """Root of x in the union-find forest `parent`, halving its path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent: list, members: list) -> int:
    """Join the sets of all `members` (at least one); return the number of
    joins made, so each lowers the count of sets by one."""
    root = _find(parent, members[0])
    joins = 0
    for j in members[1:]:
        r = _find(parent, j)
        if r != root:
            parent[r] = root
            joins += 1
    return joins


def _single_component(indptr, indices, n: int) -> bool:
    """Whether the edges (non-empty, members ``indices[indptr[k]:indptr[k+1]]``)
    join all n vertices into one component.

    Min-label propagation with pointer jumping, in numpy: label[v] points at
    a vertex of v's component no higher than v. Each round hooks the vertex
    each member points at onto the least label in the member's edge, then
    halves every path with label[label]. Labels only fall, so the sum stops
    falling only at the fixed point, where each edge's members share one
    root; vertex 0 keeps label 0, so the vertices form one component exactly
    when every label reaches 0. A few rounds suffice in practice."""
    starts, sizes = indptr[:-1], np.diff(indptr)
    label = np.arange(n)
    total = -1
    while True:
        member = label[indices]
        np.minimum.at(label, member, np.minimum.reduceat(member, starts).repeat(sizes))
        label = label[label]
        if not label.any():
            return True
        total, last = int(label.sum()), total
        if total == last:
            return False


class Hypergraph:
    """Immutable hypergraph with per-edge vertex weights, stored as one CSR
    layout: edge k's members are ``indices[indptr[k]:indptr[k+1]]``
    (ascending vertex indices, the order every matrix construction uses),
    their weights the same slice of ``gamma``, and its weight ``omega[k]``.

    Built from ``(weight, members)`` pairs, one per edge, where ``members``
    maps a vertex name to its weight in that edge. Enforced at construction,
    the one place a weight is checked: declared vertices are unique, every
    edge has members and they are declared vertices, every weight is a
    Python or numpy int or float (not a bool or a str) that is finite and
    > 0, and the clique graph is connected (a vertex in no edge counts as
    disconnected). Edges are read once, in order, so the first fault in
    that order is the one named.

    The degrees, the walk, the rho solve, the Laplacian and the Cheeger
    enumeration are each computed once per hypergraph and kept, read-only,
    in ``_memo``; none refers back to H, so they go when H goes.
    """

    __slots__ = ("vertices", "indptr", "indices", "gamma", "omega", "_index", "_memo")

    @np.errstate(over="ignore")  # np.float32(w) <= _FLOAT_MAX casts the bound down
    def __init__(self, vertices: Sequence[str],
                 edges: Iterable[tuple[float, Mapping[str, float]]]):
        names = tuple(str(v) for v in vertices)
        index: dict[str, int] = {}
        for v in names:
            if v in index:
                raise DuplicateVertex(f"vertex {v!r} declared more than once")
            index[v] = len(index)
        if not names:
            raise DisconnectedHypergraph("hypergraph has no vertices")

        weights, sizes, members_idx, members_gamma = [], [], [], []
        for k, (weight, members) in enumerate(edges):
            if type(weight) not in _REAL or not 0 < weight <= _FLOAT_MAX:
                raise NonPositiveWeight(
                    f"edge #{k}: edge weight {weight!r} must be a finite number > 0")
            if not members:
                raise EmptyEdge(f"edge #{k} has no members")
            for v, g in members.items():
                if v not in index:
                    raise UnknownVertex(f"edge #{k} references undeclared vertex {v!r}")
                if type(g) not in _REAL or not 0 < g <= _FLOAT_MAX:
                    raise NonPositiveWeight(
                        f"edge #{k}: weight {g!r} of vertex {v!r} must be a finite number > 0")
                members_idx.append(index[v])
            weights.append(weight)
            sizes.append(len(members))
            members_gamma.extend(members.values())

        self._build(names, index, np.array(sizes, dtype=np.intp),
                    np.array(members_idx, dtype=np.intp),
                    np.array(members_gamma, dtype=float), np.array(weights, dtype=float))

    def _build(self, names: tuple, index: dict, sizes, indices, gamma, omega) -> None:
        """Fill self from checked arrays: the vertex `names` and their
        `index`, per edge its size and weight `omega`, and per (edge, member)
        entry, edge by edge, its vertex index and weight, members in any
        order within an edge. The one array-level builder: it sorts each
        edge's members, makes the arrays read-only (`omega` in place) and
        checks connectivity."""
        order = np.lexsort((indices, np.repeat(np.arange(len(sizes)), sizes)))
        self.vertices = names
        self._index = index
        self.indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        self.indices = indices[order]
        self.gamma = gamma[order]
        self.omega = omega
        for a in self._arrays():  # read-only: rescaled copies share them
            a.flags.writeable = False
        self._memo = {}
        self._check_connected()

    def _with_gamma(self, gamma: np.ndarray) -> "Hypergraph":
        """Same vertices, edges and edge weights with new (already validated)
        vertex weights; connectivity cannot change, so it is not rechecked."""
        new = object.__new__(Hypergraph)
        for attr in ("vertices", "_index", "indptr", "indices", "omega"):
            setattr(new, attr, getattr(self, attr))
        new.gamma = gamma
        gamma.flags.writeable = False
        new._memo = {}  # results derived from the old weights do not carry over
        return new

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.omega)

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {vertex!r}") from None

    def _check_connected(self) -> None:
        n = len(self.vertices)
        incident = np.bincount(self.indices, minlength=n)
        if incident.min() == 0:
            j = int(np.argmin(incident))
            raise DisconnectedHypergraph(
                f"vertex {self.vertices[j]!r} is not a member of any hyperedge"
            )
        if _single_component(self.indptr, self.indices, n):
            return
        # disconnected: the union-find's two smallest roots name the error
        parent = list(range(n))
        ptr, ind = self.indptr.tolist(), self.indices.tolist()
        if sum(_union(parent, ind[a:b]) for a, b in zip(ptr, ptr[1:])) < n - 1:
            a, b = sorted({_find(parent, j) for j in range(n)})[:2]
            raise DisconnectedHypergraph(
                f"vertices {self.vertices[a]!r} and {self.vertices[b]!r} "
                "are in different components"
            )

    def _arrays(self) -> tuple:
        return (self.indptr, self.indices, self.gamma, self.omega)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.vertices == other.vertices and all(
            np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays())
        )

    def __hash__(self):
        return hash((self.vertices,) + tuple(a.tobytes() for a in self._arrays()))

    def __repr__(self) -> str:
        return f"Hypergraph(|V|={self.n_vertices}, |E|={self.n_edges})"


def _memo(H: Hypergraph, key: str, compute):
    """``compute()`` on the first call for H and `key`, and that same object
    on every later call: H is immutable, so a result derived from it never
    goes stale. A call that raises stores nothing. Callers make the arrays
    of what they store read-only, so no caller can change a later one's
    input."""
    try:
        return H._memo[key]
    except KeyError:
        return H._memo.setdefault(key, compute())


def _per_member(H, per_edge) -> np.ndarray:
    """Expand one value per edge to one per (edge, member) entry of H's indptr."""
    return np.repeat(per_edge, np.diff(H.indptr))


def _vertex_major(H: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """The transposed layout: ``(vptr, order)`` such that
    ``order[vptr[v]:vptr[v+1]]`` are the entries of vertex v, incident edges
    ascending."""
    vptr = np.zeros(H.n_vertices + 1, dtype=np.intp)
    np.cumsum(np.bincount(H.indices, minlength=H.n_vertices), out=vptr[1:])
    return vptr, np.argsort(H.indices, kind="stable")


# Block entries formed per np.add.at call of _block_scatter; bounds its
# temporaries.
_SCATTER_CHUNK = 1 << 18


def _block_scatter(indptr, indices, left, right, n: int, scale=None) -> np.ndarray:
    """Dense n x n sum over groups k of ``scale[k] * outer(left[g], right[g])``
    placed at rows and columns ``indices[g]``, where g = indptr[k]:indptr[k+1].

    The terms are formed and added in one order: sizes ascending, groups in
    order within a size, each group row-major, every term formed as
    ``(left * right) * scale``. One np.add.at call takes the groups whose
    first term falls in one _SCATTER_CHUNK of that order, so no call holds
    more than _SCATTER_CHUNK terms plus one group's. Every entry receives
    its terms in that order, so when ``left`` is ``right``, entries (u, v)
    and (v, u) receive equal terms in equal order and the result is exactly
    symmetric. Work is O(sum of squared group sizes).
    """
    out = np.zeros(n * n)
    sizes = np.diff(indptr)
    groups = np.argsort(sizes, kind="stable")  # sizes ascending, in order within one
    terms = sizes[groups] ** 2
    first = np.cumsum(terms) - terms  # each group's first term in that order
    for part in np.split(groups, np.flatnonzero(np.diff(first // _SCATTER_CHUNK)) + 1):
        s, base = sizes[part], indptr[part]
        # per member row: its width and its entry; per term: its row's entry
        # and its column's (the rows' terms laid end to end)
        width = np.repeat(s, s)
        start = np.cumsum(width) - width
        row = np.repeat(np.repeat(base - (np.cumsum(s) - s), s) + np.arange(len(width)), width)
        col = np.repeat(np.repeat(base, s) - start, width) + np.arange(len(row))
        values = left[row] * right[col]
        if scale is not None:
            values *= np.repeat(scale[part], s * s)
        np.add.at(out, indices[row] * n + indices[col], values)
    return out.reshape(n, n)


def degrees(H: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    """Vertex degrees d(v) = sum of incident edge weights, and edge degrees
    delta(e) = sum of member vertex weights. A sum that overflows is
    NonPositiveWeight naming its edge, else its vertex. Computed once per
    hypergraph: every call on H returns the same two read-only arrays."""
    return _memo(H, "degrees", lambda: _degrees(H))


def _degrees(H: Hypergraph) -> tuple[np.ndarray, np.ndarray]:
    with np.errstate(over="ignore"):
        d = np.bincount(H.indices, weights=_per_member(H, H.omega), minlength=H.n_vertices)
        delta = np.add.reduceat(H.gamma, H.indptr[:-1])
    bad = np.flatnonzero(~np.isfinite(delta))
    if len(bad):
        raise NonPositiveWeight(f"edge #{bad[0]}: degree delta(e) overflows the float range")
    bad = np.flatnonzero(~np.isfinite(d))
    if len(bad):
        raise NonPositiveWeight(
            f"vertex {H.vertices[bad[0]]!r}: degree d(v) overflows the float range")
    d.flags.writeable = delta.flags.writeable = False
    return d, delta


class WeightedGraph:
    """Undirected weighted graph over a shared vertex index.

    The weight matrix is symmetric and nonnegative; the diagonal holds
    self-loop weights.
    """

    __slots__ = ("vertices", "weights")

    def __init__(self, vertices: Sequence[str], weights):
        W = np.asarray(weights, dtype=float)
        names = tuple(str(v) for v in vertices)
        if W.ndim != 2 or W.shape[0] != W.shape[1] or W.shape[0] != len(names):
            raise ValueError("weight matrix shape does not match the vertex list")
        if not np.all(np.isfinite(W)):
            raise NonPositiveWeight("graph weights must be finite")
        if W.min(initial=0.0) < 0.0:
            raise NonPositiveWeight("graph weights must be nonnegative")
        if np.abs(W - W.T).max(initial=0.0) > 1e-12:
            raise NotSymmetric(
                f"graph weight matrix asymmetric by {np.abs(W - W.T).max():.3e}"
            )
        self.vertices = names
        self.weights = (W + W.T) / 2.0  # exact no-op for symmetric input

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.vertices == other.vertices and np.array_equal(self.weights, other.weights)

    def __repr__(self) -> str:
        return f"WeightedGraph(|V|={self.n_vertices})"


# -- weight transforms -------------------------------------------------------

def rescale_edges(H: Hypergraph, factors) -> Hypergraph:
    """New hypergraph with each edge's vertex weights multiplied by its factor."""
    factors = np.asarray(factors, dtype=float)
    if factors.shape != (H.n_edges,):
        raise ValueError("need exactly one factor per edge")

    with np.errstate(over="ignore"):  # an overflowing product is named below
        gamma = H.gamma * _per_member(H, factors)
    bad = np.flatnonzero(~(np.isfinite(gamma) & (gamma > 0.0)))
    if len(bad):
        i = int(bad[0])
        k = int(np.searchsorted(H.indptr, i, side="right")) - 1
        raise NonPositiveWeight(
            f"edge #{k}: weight of vertex {H.vertices[H.indices[i]]!r} times factor "
            f"{float(factors[k])!r} must be a finite number > 0")
    return H._with_gamma(gamma)


def delta_normalized(H: Hypergraph) -> Hypergraph:
    """Rescale every edge's vertex weights so each edge degree delta(e) is 1."""
    _, delta = degrees(H)
    return rescale_edges(H, 1.0 / delta)


# Vertex weights within this relative tolerance of each other are equal,
# and within this absolute tolerance of 1 are trivial.
EDGE_INDEPENDENT_RTOL = 1e-12
TRIVIAL_ATOL = 1e-12


def edge_independent_gamma(H: Hypergraph):
    """Per-vertex weight vector if weights are edge-independent, else None.

    Edge-independent means gamma_e(v) agrees (to EDGE_INDEPENDENT_RTOL)
    across all edges incident to v; the weight in v's first edge is returned.
    """
    vptr, order = _vertex_major(H)
    g = H.gamma[order]
    first = g[vptr[:-1]]
    ref = np.repeat(first, np.diff(vptr))
    if np.any(np.abs(g - ref) > EDGE_INDEPENDENT_RTOL * np.maximum(np.abs(g), np.abs(ref))):
        return None
    return first


def has_trivial_weights(H: Hypergraph) -> bool:
    return bool(np.abs(H.gamma - 1.0).max() <= TRIVIAL_ATOL)


# -- serialization -----------------------------------------------------------

def build_hypergraph(data: Mapping) -> Hypergraph:
    """Build and validate a hypergraph from parsed JSON content.

    Expected shape::

        {"vertices": ["a", "b", ...],
         "edges": [{"weight": 1.0, "members": {"a": 2.0, "b": 1.0}}, ...]}
    """
    if not isinstance(data, Mapping):
        raise MalformedInput("hypergraph JSON must be an object")
    try:
        vertices = data["vertices"]
        raw_edges = data["edges"]
    except KeyError as exc:
        raise MalformedInput(f"hypergraph JSON is missing key {exc}") from None
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise MalformedInput('"vertices" must be a list of vertex names')
    if not isinstance(raw_edges, list):
        raise MalformedInput('"edges" must be a list of edge objects')

    def edges():  # checked as Hypergraph reads them, so each edge is visited once
        for i, entry in enumerate(raw_edges):
            if not isinstance(entry, dict):
                raise MalformedInput(f"edge #{i} must be an object, got {entry!r}")
            members = entry.get("members") or {}  # missing or empty: EmptyEdge
            if not isinstance(members, dict):
                raise MalformedInput(f'edge #{i}: "members" must map vertex names to weights')
            yield entry.get("weight"), members

    return Hypergraph(vertices, edges())


def _unique_keys(pairs: list) -> dict:
    """The JSON object of `pairs`; DuplicateVertex if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):  # some key repeats: name the first
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise DuplicateVertex(f"duplicate key {k!r} in JSON object")
            seen.add(k)
    return obj


def _json_value(text: str, source: str):
    """The value of JSON `text`, the one JSON parser of every input. A key
    repeated in one object is DuplicateVertex; invalid JSON (syntax, an
    integer too long to convert, nesting too deep to decode) is
    MalformedInput naming `source`."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{source}: invalid JSON: {exc}") from None


# Each scalar's text by its exact type; _JSON_SPELLING respells the six
# words repr writes where json does not (a str's text is quoted, never one).
_SCALAR_TEXT = {str: json.encoder.encode_basestring_ascii, float: float.__repr__,
                int: int.__repr__, bool: repr, type(None): repr}
_JSON_SPELLING = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity",
                  "True": "true", "False": "false", "None": "null"}


def _json_text(value) -> str:
    """``json.dumps(value, indent=2) + "\\n"``, byte for byte: the one JSON
    writer. Non-empty dicts, lists and tuples are walked into one list of
    text, joined once; json.dumps itself writes each non-str key and each
    value outside ``_SCALAR_TEXT`` (np.float64, an empty container, an
    unsupported type), so json's rules and errors hold for them. A container
    that holds itself raises RecursionError where json raises ValueError.
    ``_write_json`` walks it: a nested writer would be a reference cycle."""
    parts = []
    _write_json(value, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, append, scalar_text=_SCALAR_TEXT.get,
                spell=_JSON_SPELLING.get,
                key_text=json.encoder.encode_basestring_ascii) -> None:
    # each line after the first opens with `newline`; defaults are locals, for speed
    if isinstance(value, dict) and value:
        inner, sep = newline + "  ", "{"
        for key, item in value.items():
            key = key_text(key) if type(key) is str else json.dumps({key: 0})[1:-4]
            text = scalar_text(type(item))
            if text:
                text = text(item)
                append(sep + inner + key + ": " + spell(text, text))
            else:
                append(sep + inner + key + ": ")
                _write_json(item, inner, append)
            sep = ","
        append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner, sep = newline + "  ", "["
        for item in value:
            text = scalar_text(type(item))
            if text:
                text = text(item)
                append(sep + inner + spell(text, text))
            else:
                append(sep + inner)
                _write_json(item, inner, append)
            sep = ","
        append(newline + "]")
    else:
        text = scalar_text(type(value))
        text = text(value) if text else json.dumps(value)
        append(spell(text, text))


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"{path}: not UTF-8 text ({exc})") from None


def _load_json(path: str):
    """The value of the JSON file at `path`, checked as by `_json_value`;
    bytes that are not UTF-8 are MalformedInput."""
    return _json_value(_read_text(path), path)


def loads_json(text: str) -> Hypergraph:
    return build_hypergraph(_json_value(text, "hypergraph"))


def to_json_dict(H: Hypergraph) -> dict:
    """The JSON form, the one per-edge view of H: members in ascending vertex
    index order."""
    ptr, ind, gam = H.indptr.tolist(), H.indices.tolist(), H.gamma.tolist()
    edges = [
        {"weight": w, "members": {H.vertices[j]: g for j, g in zip(ind[a:b], gam[a:b])}}
        for w, a, b in zip(H.omega.tolist(), ptr, ptr[1:])
    ]
    return {"vertices": list(H.vertices), "edges": edges}


def dumps_json(H: Hypergraph) -> str:
    return _json_text(to_json_dict(H))


def to_text(H: Hypergraph) -> str:
    """Whitespace format: one edge per line, ``weight v1:g1 v2:g2 ...``.

    A ``# vertices:`` header preserves declaration order across a round trip.
    Vertex names must not contain whitespace or ':'.
    """
    for v in H.vertices:
        if ":" in v or any(c.isspace() for c in v):
            raise ValueError(f"vertex name {v!r} cannot be written in text format")
    lines = ["# vertices: " + " ".join(H.vertices)]
    for e in to_json_dict(H)["edges"]:
        parts = [repr(e["weight"])] + [f"{v}:{g!r}" for v, g in e["members"].items()]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    declared: list[str] | None = None
    order: list[str] = []
    seen: set[str] = set()
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("vertices:"):
                declared = body[len("vertices:"):].split()
            continue
        tokens = line.split()
        try:
            weight = float(tokens[0])
        except ValueError:
            raise NonPositiveWeight(f"line {lineno}: bad edge weight {tokens[0]!r}") from None
        members: dict[str, float] = {}
        for tok in tokens[1:]:
            name, _, gtext = tok.rpartition(":")
            if not name:
                raise MalformedInput(f"line {lineno}: expected 'vertex:weight', got {tok!r}")
            if name in members:
                raise DuplicateVertex(f"line {lineno}: vertex {name!r} listed twice in one edge")
            try:
                members[name] = float(gtext)
            except ValueError:
                raise NonPositiveWeight(f"line {lineno}: bad vertex weight {gtext!r}") from None
            if name not in seen:
                seen.add(name)
                order.append(name)
        if not members:
            raise EmptyEdge(f"line {lineno}: edge has no members")
        edges.append((weight, members))
    return Hypergraph(declared if declared is not None else order, edges)


def read_hypergraph(path: str) -> Hypergraph:
    """Load a hypergraph file; '*.json' uses the JSON format, anything else
    the whitespace text format."""
    if str(path).endswith(".json"):
        return build_hypergraph(_load_json(path))
    return from_text(_read_text(path))


def graph_to_json_dict(G: WeightedGraph) -> dict:
    """Emit a weighted graph in the hypergraph JSON format (pair edges, loops
    as singleton edges)."""
    u, v = np.nonzero(np.triu(G.weights) > 0.0)
    names = G.vertices
    edges = [
        {"weight": w, "members": {names[a]: 1.0, names[b]: 1.0}}  # one key if a == b
        for w, a, b in zip(G.weights[u, v].tolist(), u.tolist(), v.tolist())
    ]
    return {"vertices": list(G.vertices), "edges": edges}


def demo_hypergraph() -> Hypergraph:
    """Built-in four-vertex fixture: two overlapping three-vertex edges with a
    single heavier vertex weight.

    This is the smallest hypergraph whose random walk is not time-reversible,
    so it exercises everything the library computes; the CLI ``demo``
    subcommand and much of the test-suite are built on it.
    """
    return Hypergraph(
        ("v1", "v2", "v3", "v4"),
        [
            (1.0, {"v1": 2.0, "v2": 1.0, "v3": 1.0}),
            (1.0, {"v1": 1.0, "v3": 1.0, "v4": 1.0}),
        ],
    )
