"""Hypergraph data model: validation, degrees, weight transforms, and
(de)serialization.

Vertices are opaque strings mapped to dense indices in declaration order, so
every matrix produced downstream is deterministic for a given input.
Every shared object is immutable, arrays included, by one rule (`_Frozen`),
and safe to share across threads; a derived matrix shares its source's index.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import itemgetter, methodcaller
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
    "graph_to_json_dict",
    "has_trivial_weights",
    "loads_json",
    "read_hypergraph",
    "rescale_edges",
    "to_json_dict",
]


# An integer is a Python or numpy int, a real number one or a float, never a bool
# (an int subclass) or a str. A weight is a real number w with 0 < _real(w) <= _FLOAT_MAX,
# which also rejects NaN, the infinities, a JSON int too large for a float and a
# numpy float that the float64 cast takes to 0 or inf.
_INTEGER = frozenset([int] + [np.dtype(c).type for c in np.typecodes["AllInteger"]])
_REAL = _INTEGER | {float} | {np.dtype(c).type for c in np.typecodes["Float"]}
_FLOAT_MAX = float(np.finfo(float).max)


def _real(x) -> float:
    """A real number (`_REAL`) as the float64 that is stored and computed
    with, an int past _FLOAT_MAX (compared exactly) as +-inf; else NaN."""
    if type(x) is int and abs(x) > _FLOAT_MAX:
        return np.inf if x > 0 else -np.inf
    return float(x) if type(x) in _REAL else np.nan


def _reals(values: list) -> np.ndarray:
    """Each of `values` as `_real` reads it, as one float64 array: a list of
    floats alone, the common case, goes straight to np.array, which would
    round an int past _FLOAT_MAX to it."""
    if set(map(type, values)) <= {float}:
        return np.array(values, dtype=float)
    return np.fromiter(map(_real, values), float, len(values))


def _first(flags: np.ndarray) -> int:
    """The position of the first True of `flags`, else len(flags)."""
    return int(np.argmax(flags)) if flags.any() else len(flags)


def _add_in_order(start, values) -> float:
    """start + values[0] + values[1] + ..., left to right like a loop, on
    every Python: np.sum adds pairwise and the builtin sum compensates
    (Neumaier) from Python 3.12 on. The library's one fixed-order sum."""
    return float(np.add.accumulate(np.concatenate(([start], values)))[-1])


def _component_labels(indptr, indices, n: int) -> np.ndarray:
    """Per vertex, the smallest vertex of its component, where the edges
    (non-empty, members ``indices[indptr[k]:indptr[k+1]]``) join vertices.

    Min-label propagation with pointer jumping, in numpy: label[v] points at
    a vertex of v's component no higher than v. Each round hooks the vertex
    each member points at onto the least label in the member's edge, then
    halves every path with label[label]. Labels only fall, so the sum stops
    falling only at the fixed point, where every label is a root and each
    edge's members share one: its component's smallest vertex. A sum of 0
    is that point for one component. A few rounds suffice in practice."""
    starts, sizes = indptr[:-1], np.diff(indptr)
    label = np.arange(n)
    total = -1
    while True:
        member = label[indices]
        np.minimum.at(label, member, np.minimum.reduceat(member, starts).repeat(sizes))
        label = label[label]
        total, last = int(label.sum()), total
        if total in (0, last):
            return label


def _vertex_index(vertices) -> tuple[tuple[str, ...], dict[str, int]]:
    """The vertex names, each as str, and each name's position: the one
    place a vertex list becomes names. A repeated name is DuplicateVertex,
    the first repeat named."""
    names = tuple(str(v) for v in vertices)
    index = dict(zip(names, range(len(names))))
    if len(index) < len(names):
        raise DuplicateVertex(f"vertex {_first_repeat(names)!r} declared more than once")
    return names, index


def _first_repeat(keys):
    """The first of `keys` equal to one before it, the caller knowing that one is."""
    seen = set()
    return next(k for k in keys if k in seen or seen.add(k))


def _frozen(value):
    """`value`, made read-only if it is an array; anything else as it is.
    The one place an array is made read-only: as `_Frozen` sets an
    attribute (so a record's or a matrix's arrays as it is built), in each
    array the memo stores, and in the Cheeger enumeration's subset tables."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


class _Frozen:
    """The one rule of every shared object: `_set`, the one writer, which an
    assignment, pickle and copy go through, sets each attribute once, an
    array read-only as it is set; a later write or a deletion raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        self._set(**{name: value})

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _set(self, **values) -> None:
        for name, value in values.items():
            if hasattr(self, name):
                raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")
            object.__setattr__(self, name, _frozen(value))


class _Record(_Frozen):
    """A result record. A subclass declares its fields once, as annotations,
    followed by ``__slots__ = tuple(__annotations__)``. It is built by
    keyword, each field exactly once (else TypeError), and keeps each array
    it is given, made read-only. Equality (of records of one class), hash
    and repr go over the fields in order, an array field equal by
    ``np.array_equal`` (so a record holding one is unhashable); no method
    is generated, so a record class costs nothing to build at import."""

    __slots__ = ()

    def __init__(self, **fields):
        if fields.keys() != set(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}, "
                            f"got {tuple(fields)}")
        self._set(**fields)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in zip(self._fields(), other._fields()))

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class _Indexed(_Frozen):
    """An object over str ``vertices`` and their ``_index``; its matrix
    (``_fill``) comes with a vertex list, copied from the caller's, or with
    a source's (``_over``), a fresh array that it keeps."""

    __slots__ = ()

    def __init__(self, vertices, matrix):
        self._fill(*_vertex_index(vertices), np.array(matrix, dtype=float))

    @classmethod
    def _over(cls, source: "_Indexed", matrix):
        """A `cls` of `matrix` sharing `source`'s vertices and index; checks all but names."""
        new = object.__new__(cls)
        new._fill(source.vertices, source._index, matrix)
        return new

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self._index[vertex]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {vertex!r}") from None


class Hypergraph(_Indexed):
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
    disconnected). Edges are read once, in order, and every weight and
    member is checked in arrays; the fault named is the first in reading
    order (per edge that it is a 2-tuple whose members are a mapping, else
    MalformedInput, then its weight, its emptiness, and per member its name,
    then its weight). An error the edges iterable raises is raised as it is.

    The degrees, the walk, the stationary solve, the Laplacian and the Cheeger
    enumeration are each computed once per hypergraph and kept, read-only,
    in ``_memo``; none refers back to H, so they go when H goes, and a
    pickled or copied H starts with an empty memo, which equality ignores.
    """

    __slots__ = ("vertices", "indptr", "indices", "gamma", "omega", "_index", "_memo")

    def __init__(self, vertices: Sequence[str],
                 edges: Iterable[tuple[float, Mapping[str, float]]]):
        names, index = _vertex_index(vertices)
        if not names:
            raise DisconnectedHypergraph("hypergraph has no vertices")

        pairs = list(edges)
        m = len(pairs)  # the first pair that is not a 2-tuple with a mapping, else |E|
        if not (set(map(type, pairs)) <= {tuple} and set(map(len, pairs)) <= {2}
                and set(map(type, map(itemgetter(1), pairs))) <= {dict}):
            m = next((k for k, pair in enumerate(pairs) if not (isinstance(pair, tuple)
                      and len(pair) == 2 and isinstance(pair[1], Mapping))), m)
        weights, members = (list(map(itemgetter(j), pairs[:m])) for j in (0, 1))
        keys = list(chain.from_iterable(members))
        values = list(chain.from_iterable(map(methodcaller("values"), members)))
        sizes = np.fromiter(map(len, members), np.intp, len(members))
        omega, gamma = _reals(weights), _reals(values)
        members_idx = np.fromiter(map(index.get, keys, repeat(-1)), np.intp, len(keys))
        indptr = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))

        # the first fault in reading order before pair m: per edge its weight,
        # then its emptiness, then per member its name, then its weight
        ok_weight = (omega > 0.0) & (omega <= _FLOAT_MAX)
        ok_entry = (members_idx >= 0) & (gamma > 0.0) & (gamma <= _FLOAT_MAX)
        if not (ok_weight.all() and sizes.all() and ok_entry.all()):
            k, i = _first(~ok_weight | (sizes == 0)), _first(~ok_entry)
            if (edge := int(np.searchsorted(indptr, i, "right")) - 1) < k:  # i's edge, else |E|
                k, v, g = edge, keys[i], values[i]
                if members_idx[i] < 0:
                    raise UnknownVertex(f"edge #{k} references undeclared vertex {v!r}")
                raise NonPositiveWeight(
                    f"edge #{k}: weight {g!r} of vertex {v!r} must be a finite number > 0")
            if not ok_weight[k]:
                raise NonPositiveWeight(
                    f"edge #{k}: edge weight {weights[k]!r} must be a finite number > 0")
            raise EmptyEdge(f"edge #{k} has no members")
        if m < len(pairs):  # a malformed pair, named after every fault before it
            if isinstance(pairs[m], tuple) and len(pairs[m]) == 2:
                raise MalformedInput(f'edge #{m}: "members" must map vertex names to weights')
            raise MalformedInput(f"edge #{m} must be an object, got {pairs[m]!r}")

        # each edge's members ascending: one stable argsort of edge * |V| + vertex,
        # the permutation np.lexsort((vertex, edge)) gives, as no edge holds a vertex twice
        order = np.argsort(np.repeat(np.arange(len(sizes)), sizes) * len(names) + members_idx,
                           kind="stable")
        self._build(names, index, indptr, members_idx[order], gamma[order], omega)
        self._check_connected()

    def _build(self, names: tuple, index: dict, indptr, indices, gamma, omega) -> None:
        """Fill self from checked arrays: the vertex `names` and their
        `index`, and the CSR layout, each edge's members ascending. The one
        array-level builder; a caller that can disconnect the vertices checks
        connectivity (``_check_connected``)."""
        self._set(vertices=names, _index=index, indptr=indptr, indices=indices, gamma=gamma,
                  omega=omega, _memo={})

    def _with_gamma(self, gamma: np.ndarray) -> "Hypergraph":
        """Same vertices, edges and edge weights with new (already validated)
        vertex weights and an empty memo: results derived from the old
        weights do not carry over, and connectivity cannot change."""
        new = object.__new__(Hypergraph)
        new._build(self.vertices, self._index, self.indptr, self.indices, gamma, self.omega)
        return new

    @property
    def n_edges(self) -> int:
        return len(self.omega)

    def _check_connected(self) -> None:
        n = len(self.vertices)
        incident = np.bincount(self.indices, minlength=n)
        if incident.min() == 0:
            j = int(np.argmin(incident))
            raise DisconnectedHypergraph(
                f"vertex {self.vertices[j]!r} is not a member of any hyperedge"
            )
        outside = np.flatnonzero(_component_labels(self.indptr, self.indices, n))
        if len(outside):
            # vertex 0's component and the next, each named by its smallest vertex
            raise DisconnectedHypergraph(
                f"vertices {self.vertices[0]!r} and {self.vertices[outside[0]]!r} "
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

    def __getstate__(self):
        return None, {**{s: getattr(self, s) for s in self.__slots__}, "_memo": {}}

    def __repr__(self) -> str:
        return f"Hypergraph(|V|={self.n_vertices}, |E|={self.n_edges})"


def _memo(H: Hypergraph, key: str, compute):
    """``compute()`` on the first call for H and `key`, and that same object
    on every later call: H is immutable, so a result derived from it never
    goes stale. A call that raises stores nothing. What it stores, a result
    or a tuple of results, is ``_frozen`` first, an array made read-only (a
    record or a matrix object already is), so no caller can change a later
    one's input."""
    try:
        return H._memo[key]
    except KeyError:
        value = compute()
        for result in value if isinstance(value, tuple) else (value,):
            _frozen(result)
        return H._memo.setdefault(key, value)


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


# Pairs per chunk of _entry_pairs and Kendall tau's blocks; bounds their temporaries.
_PAIR_CHUNK = 1 << 18


def _entry_pairs(indptr, groups):
    """The entry pairs of each group k, entries indptr[k]:indptr[k+1], groups
    in the given order and each row-major, as ``(row, col, group)`` arrays of
    one value per pair, in chunks of whole rows: a chunk starts at the first
    row at or after a multiple of _PAIR_CHUNK pairs, so it holds at most
    _PAIR_CHUNK pairs plus one row's. Beyond it, only per-group values are held."""
    base = indptr[groups]  # per group: its first entry, its size, and where
    sizes = indptr[groups + 1] - base  # its rows and its pairs end in the walk
    row_end, total = np.cumsum(sizes), sizes @ sizes
    if not total:  # no group, or only empty ones
        return
    if total <= _PAIR_CHUNK:  # one chunk holds every pair
        bounds = [0, row_end[-1]]
    else:
        pair_end = np.cumsum(sizes * sizes)
        cut = np.arange(0, total, _PAIR_CHUNK)
        k = np.searchsorted(pair_end, cut, side="right")  # the group holding each cut
        start = row_end[k] - (pair_end[k] - cut) // sizes[k]  # a cut in a row moves to its end
        bounds = sorted(set(start.tolist() + row_end[-1:].tolist()))  # no empty chunk
    for a, b in zip(bounds[:-1], bounds[1:]):
        r = np.arange(a, b)
        k = np.searchsorted(row_end, r, side="right")  # each row's group
        s, ends = sizes[k], np.cumsum(sizes[k])  # and the end of its pairs in the chunk
        col = np.repeat(base[k] + s - ends, s) + np.arange(ends[-1])
        yield np.repeat(base[k] + s - row_end[k] + r, s), col, np.repeat(groups[k], s)


def _block_scatter(indptr, indices, left, right, n: int, scale=None) -> np.ndarray:
    """Dense n x n sum over groups k of ``scale[k] * outer(left[g], right[g])``
    placed at rows and columns ``indices[g]``, where g = indptr[k]:indptr[k+1].

    Terms ``(left * right) * scale`` are added in one order, sizes ascending,
    groups in order within a size, each group row-major, by one np.add.at
    call per chunk of _entry_pairs: no call holds more than _PAIR_CHUNK
    terms plus one row's. Every entry receives its terms in that order, so
    when ``left`` is ``right``, entries (u, v) and (v, u) receive equal terms
    in equal order and the result is exactly symmetric. Work is O(sum of
    squared group sizes)."""
    out = np.zeros((1, n * n))
    _block_add(out, indptr, indices, [(left, right, scale)], n)
    return out.reshape(n, n)


def _block_add(out: np.ndarray, indptr, indices, factors, n: int) -> None:
    """Add to row i of `out`, a stack of flat n x n matrices, the sum
    ``_block_scatter`` forms from the i-th ``(left, right, scale)`` of
    `factors`, every sum by the chunks of one _entry_pairs walk in size
    order."""
    for row, col, group in _entry_pairs(indptr, np.argsort(np.diff(indptr), kind="stable")):
        at = indices[row] * n + indices[col]
        for matrix, (left, right, scale) in zip(out, factors):
            values = left[row] * right[col]
            if scale is not None:
                values *= scale[group]
            np.add.at(matrix, at, values)


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
    return d, delta


class WeightedGraph(_Indexed):
    """Undirected weighted graph over a shared vertex index.

    The vertex names are unique (else DuplicateVertex). The weight matrix is
    symmetric, nonnegative and read-only; the diagonal holds self-loop weights.
    """

    __slots__ = ("vertices", "weights", "_index")

    def _fill(self, names: tuple, index: dict, weights) -> None:
        W = np.asarray(weights, dtype=float)
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
        # the mean of each pair, exactly symmetric; for symmetric input
        # exactly W, and never above the larger of the pair, so 1e308 stays finite
        mean = np.minimum(W, W.T)
        mean += (np.maximum(W, W.T) - mean) / 2.0
        self._set(vertices=names, _index=index, weights=mean)

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
    with np.errstate(over="ignore"):  # a subnormal delta: rescale_edges names the factor
        factors = 1.0 / delta
    return rescale_edges(H, factors)


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
    if not isinstance(vertices, list) or not all(map(isinstance, vertices, repeat(str))):
        raise MalformedInput('"vertices" must be a list of vertex names')
    if not isinstance(raw_edges, list):
        raise MalformedInput('"edges" must be a list of edge objects')
    # an object entry as its (weight, members) pair, a missing "members" an
    # empty edge, and any other entry as it is: Hypergraph judges every edge
    return Hypergraph(vertices, [(entry.get("weight"), entry.get("members", {}))
                                 if isinstance(entry, dict) else entry for entry in raw_edges])


def _unique_keys(pairs: list) -> dict:
    """The JSON object of `pairs`; DuplicateVertex if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise DuplicateVertex(
            f"duplicate key {_first_repeat(map(itemgetter(0), pairs))!r} in JSON object")
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


class _JSONText(str):
    """JSON text that json.dumps(indent=2) would write for some value at
    column 0; the writer indents its lines after the first to its depth."""

    __slots__ = ()


def _json_text(value) -> str:
    """``json.dumps(value, indent=2) + "\\n"``, byte for byte: the one JSON
    writer. Non-empty dicts, lists and tuples are walked into one list of
    text, joined once, and one whose values are all exactly float is written
    from one repr of its values; a ``_JSONText`` is spliced in as written;
    json.dumps itself writes each non-str key and each value outside
    ``_SCALAR_TEXT`` (np.float64, an empty container, an unsupported type),
    so json's rules and errors hold for them. A container that holds itself
    raises RecursionError where json raises ValueError. ``_write_json``
    walks it: a nested writer would be a reference cycle."""
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
        floats = _float_texts(value.values())
        if floats:  # json's key text, as below, beside each float's
            keys = (key_text(k) if type(k) is str else json.dumps({k: 0})[1:-4] for k in value)
            return append("{" + inner + ("," + inner).join(map(": ".join, zip(keys, floats)))
                          + newline + "}")
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
        floats = _float_texts(value)
        if floats:
            return append("[" + inner + ("," + inner).join(floats) + newline + "]")
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
    elif type(value) is _JSONText:  # JSON text holds no raw newline but its line breaks
        append(value.replace("\n", newline))
    else:
        text = scalar_text(type(value))
        text = text(value) if text else json.dumps(value)
        append(spell(text, text))


def _float_texts(values) -> list | None:
    """Each of `values`' JSON text if every one is exactly a float, else
    None: one repr of their list, "nan" and "inf" spelled as json does."""
    if set(map(type, values)) == {float}:
        text = repr(list(values))[1:-1]
        return text.replace("nan", "NaN").replace("inf", "Infinity").split(", ")


def _load_json(path: str, data: bytes | None = None):
    """The value of the JSON file at `path`, whatever its name, or of
    `data`, its bytes as already read, checked as by `_json_value`: the one
    reader of every input file. Bytes that are not UTF-8 are MalformedInput;
    line ends are read as open's text mode reads them."""
    if data is None:
        data = _file_bytes(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text ({exc})") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _json_value(text, path)


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def loads_json(text: str) -> Hypergraph:
    return build_hypergraph(_json_value(text, "hypergraph"))


def _json_dict(names, indptr, indices, gamma, omega) -> dict:
    """The hypergraph JSON form of a CSR layout, members in CSR order."""
    ptr, ind, gam = indptr.tolist(), indices.tolist(), gamma.tolist()
    edges = [
        {"weight": w, "members": {names[j]: g for j, g in zip(ind[a:b], gam[a:b])}}
        for w, a, b in zip(omega.tolist(), ptr, ptr[1:])
    ]
    return {"vertices": list(names), "edges": edges}


def _hypergraph_json(names, indptr, indices, gamma, omega) -> _JSONText:
    """``json.dumps(_json_dict(...), indent=2)``, byte for byte, rendered
    from the arrays by one ``%``: its format is the edges list with each
    edge's text for its size, in edge order, and its arguments are each
    edge's weight text, then each member's escaped name and gamma text,
    gathered from one table by index. Each name is escaped once, each weight
    written by one repr, and each gamma by one repr per run of equal
    consecutive values (equal bits), so a graph's gammas, all 1.0, cost one.
    Names are only ever arguments, so a "%" in one is written as it is. repr
    is json's text of a finite float, and Hypergraph and WeightedGraph hold
    no other. Every edge has members."""
    quoted = list(map(json.encoder.encode_basestring_ascii, names))
    m, bits = len(omega), gamma.view(np.uint64)
    run = np.ones(len(bits), dtype=bool)  # where a run of equal gammas starts
    np.not_equal(bits[1:], bits[:-1], out=run[1:])
    texts = np.array(list(map(float.__repr__, omega.tolist())) + quoted
                     + list(map(float.__repr__, gamma[run].tolist())), dtype=object)
    args = np.empty(m + 2 * len(indices), dtype=np.intp)  # per argument, its row of texts
    head = indptr[:-1] * 2 + np.arange(m)  # each edge's weight, before its members
    args[head] = np.arange(m)
    member = np.ones(len(args), dtype=bool)
    member[head] = False
    args[member] = np.column_stack(
        (indices + m, np.cumsum(run) + (m + len(names) - 1))).ravel()
    sizes = np.diff(indptr).tolist()
    formats = {k: '{\n      "weight": %s,\n      "members": {\n        '
                  + ",\n        ".join(["%s: %s"] * k) + "\n      }\n    }" for k in set(sizes)}
    edges = _list_text(list(map(formats.__getitem__, sizes))) % tuple(texts[args].tolist())
    return _JSONText('{\n  "vertices": ' + _list_text(quoted) + ',\n  "edges": ' + edges + "\n}")


def _list_text(items: list) -> str:
    """A list of JSON texts in a member of a top-level object."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def to_json_dict(H: Hypergraph) -> dict:
    """The JSON form, the one per-edge view of H: members in ascending vertex
    index order."""
    return _json_dict(H.vertices, *H._arrays())


def dumps_json(H: Hypergraph) -> str:
    """``json.dumps(to_json_dict(H), indent=2) + "\\n"``, rendered from H's
    arrays."""
    return _json_text(_hypergraph_json(H.vertices, *H._arrays()))


def read_hypergraph(path: str, data: bytes | None = None) -> Hypergraph:
    """Load a hypergraph from the JSON file at `path`, whatever its name, or
    from `data`, its bytes as already read."""
    value = _load_json(path, data)
    del data  # let the bytes go before the build: a lower peak RSS
    return build_hypergraph(value)


def _graph_edges(G: WeightedGraph) -> tuple:
    """G's pairs as a hypergraph's ``(indptr, indices, gamma, omega)``: one
    edge per pair u <= v of positive weight, row-major, members u and v
    (only u for a loop u == v), every gamma 1.0."""
    u, v = np.nonzero(np.triu(G.weights) > 0.0)
    pair = u != v
    keep = np.ones(2 * len(u), dtype=bool)
    keep[1::2] = pair
    indptr = np.concatenate(([0], np.cumsum(1 + pair)))
    indices = np.stack((u, v), axis=1).ravel()[keep]
    return indptr, indices, np.ones(len(indices)), G.weights[u, v]


def graph_to_json_dict(G: WeightedGraph) -> dict:
    """Emit a weighted graph in the hypergraph JSON format (pair edges, loops
    as singleton edges)."""
    return _json_dict(G.vertices, *_graph_edges(G))


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
