"""Uncertain graph data model.

An uncertain graph is an undirected simple graph whose edges carry an
existence probability in (0, 1].  It denotes a distribution over the
2^|E| deterministic graphs ("possible worlds") obtained by materializing
each edge independently.  This module holds the graph type, possible-world
sampling, the exact enumeration oracle for tiny graphs, entropy and expected
degrees, and a synthetic generator.
"""

from __future__ import annotations

import io
import math
import warnings
from enum import Enum
from typing import Callable, Iterable

import numpy as np

# Hard cap for exact possible-world enumeration (2^|E| worlds).
MAX_EXACT_EDGES = 25
# Worlds times max(|E|, n) per chunk of the exact enumeration: flat memory in 2^|E| and n.
EXACT_CHUNK_CELLS = 1 << 20
# Most edges generate_synthetic builds: it peaks at about 310 bytes per edge, so about 3 GB.
MAX_GENERATED_EDGES = 10**7
# Rows of draws draw_rows takes from the stream at once; it rewinds past the
# rows it does not use, so the size changes no number.
DRAW_BLOCK = 4096


class GraphFormatError(ValueError):
    """Malformed edge-list input (bad syntax or violated graph invariant)."""


class DiscrepancyMode(Enum):
    """How cut-size discrepancies are measured: raw difference or normalized."""

    ABSOLUTE = "abs"
    RELATIVE = "rel"


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator derived from a 64-bit master seed plus a key path.

    Sub-streams keyed this way are independent of each other and of worker
    count, so e.g. sample index i always sees the same world regardless of
    how samples are distributed over workers.
    """
    return np.random.default_rng([int(seed)] + [int(k) for k in key])


class EdgeError(ValueError):
    """An edge breaks a graph invariant; `row` is its position in the input."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


_INT64_MAX = np.iinfo(np.int64).max
# One 'u v p' line of an edge-list file, as numpy's text parser reads it.
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("p", np.float64)])
# Largest vertex count whose pair keys u*n + v fit in int64.
MAX_VERTICES = math.isqrt(_INT64_MAX)


def _column(col, scalar):
    """col as an array whose items are what `scalar` (int or float) makes of them.

    Numeric columns convert in one numpy call; any other column goes item by
    item.  Returns the array and the position of the first item `scalar`
    rejects (None if none), which is filled with a placeholder.  Vertex ids
    beyond int64 come back as an object array of Python ints.
    """
    try:
        a = np.asarray(col)
    except (TypeError, ValueError, OverflowError):
        a = None
    if a is not None and a.ndim == 1:
        kind = a.dtype.kind
        if kind in "bi" or (kind == "u" and a.max() <= _INT64_MAX):
            return a.astype(np.int64 if scalar is int else np.float64), None
        if kind == "f":
            if scalar is float:
                return a.astype(np.float64), None
            # int() truncates toward zero, as the cast does, when every item fits
            if np.isfinite(a).all() and np.abs(a).max() < 2.0**63:
                return a.astype(np.int64), None
    values, bad = [], None
    for i, x in enumerate(col):
        try:
            values.append(scalar(x))
        except (TypeError, ValueError, OverflowError):
            bad = i if bad is None else bad
            values.append(scalar(1))
    if scalar is float:
        return np.array(values, dtype=np.float64), bad
    fits = all(-_INT64_MAX <= x <= _INT64_MAX for x in values)
    return np.array(values, dtype=np.int64 if fits else object), bad


def _canonical_edges(n: int, us, vs, ps, allow_zero: bool = False):
    """Validate edge columns; return (u, v, p) arrays with u < v, sorted by (u, v).

    The checks run over whole columns, but the error is the one a pass over
    the edges in input order raises first: the first bad edge wins, and for
    that edge the checks go int(u), int(v), self-loop, vertex range,
    duplicate, float(p), probability range.  Invariant breaks raise EdgeError
    carrying the edge's position; a field int() or float() rejects raises
    that conversion's own error.
    """
    m = len(us)
    if m == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    u, bad_u = _column(us, int)
    v, bad_v = _column(vs, int)
    p, bad_p = _column(ps, float)
    loop = np.asarray(u == v, dtype=bool)
    out = np.asarray((u < 0) | (u >= n) | (v < 0) | (v >= n), dtype=bool)
    usable = ~(loop | out)
    usable[[i for i in (bad_u, bad_v) if i is not None]] = False
    lo = np.where(usable, np.minimum(u, v), 0).astype(np.int64)
    hi = np.where(usable, np.maximum(u, v), 0).astype(np.int64)
    # One stable sort by key gives the canonical order and puts every repeat
    # of a pair right after its first occurrence.  Unusable rows get distinct
    # negative keys, so they repeat nothing.
    key = np.where(usable, lo * n + hi, -1 - np.arange(m))
    order = np.argsort(key, kind="stable")
    dup = np.zeros(m, dtype=bool)
    dup[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    ok_p = ((p >= 0.0) if allow_zero else (p > 0.0)) & (p <= 1.0)
    flagged = np.flatnonzero(loop | out | dup | ~ok_p)[:1].tolist()
    firsts = [i for i in (bad_u, bad_v, bad_p, *flagged) if i is not None]
    if not firsts:
        return lo[order], hi[order], p[order]
    i = min(firsts)
    if i == bad_u:
        int(us[i])
    if i == bad_v:
        int(vs[i])
    if loop[i]:
        raise EdgeError(f"self-loop at vertex {int(us[i])}", i)
    if out[i]:
        raise EdgeError(f"vertex id out of range: ({int(us[i])}, {int(vs[i])}) with n={n}", i)
    edge = f"({lo[i]}, {hi[i]})"
    if dup[i]:
        raise EdgeError(f"duplicate edge {edge}", i)
    if i == bad_p:
        float(ps[i])
    rng_txt = "[0,1]" if allow_zero else "(0,1]"
    raise EdgeError(f"probability {float(p[i])} of edge {edge} outside {rng_txt}", i)


def _vertex_count(n) -> int:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds {MAX_VERTICES}")
    return int(n)


def _edge_columns(n: int, rows):
    """The u, v and p columns of (u, v, p) rows.

    A row that does not unpack into three fields raises unpacking's own
    error, once the rows before it have passed _canonical_edges.
    """
    try:
        if set(map(len, rows)) == {3}:
            return tuple(zip(*rows))
    except TypeError:
        pass
    fields = []
    for row in rows:
        try:
            u, v, p = row
        except (TypeError, ValueError):
            _canonical_edges(n, *_edge_columns(n, fields))
            raise
        fields.append((u, v, p))
    return tuple(zip(*fields)) if fields else ((), (), ())


class UncertainGraph:
    """Undirected simple graph with per-edge existence probabilities.

    An edge is a position into three read-only columns: endpoints u < v and
    probability p, sorted by (u, v), the deterministic edge order used across
    the package.  `_canonical_edges` validates and sorts them as whole numpy
    columns; they are all the graph stores, and `edges` and `edge_pairs`
    build tuples from them on each read.  Instances are immutable after
    construction and safe to share across threads for reading.
    """

    __slots__ = ("n", "_us", "_vs", "_ps", "_degrees")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, float]],
        allow_zero: bool = False,
    ):
        """Validate and canonicalize. `allow_zero` admits p = 0 (sparsified outputs)."""
        n = _vertex_count(n)
        rows = edges if isinstance(edges, (list, tuple)) else list(edges)
        self._set_columns(n, *_edge_columns(n, rows), allow_zero)

    @classmethod
    def from_columns(cls, n: int, us, vs, ps, allow_zero: bool = False) -> "UncertainGraph":
        """The graph whose i-th edge is (us[i], vs[i], ps[i]); validated as __init__ does."""
        if not len(us) == len(vs) == len(ps):
            raise ValueError(
                f"edge columns differ in length: {len(us)} u, {len(vs)} v and {len(ps)} p values"
            )
        g = cls.__new__(cls)
        g._set_columns(_vertex_count(n), us, vs, ps, allow_zero)
        return g

    def _set_columns(self, n, us, vs, ps, allow_zero):
        self.n = n
        self._us, self._vs, self._ps = _canonical_edges(n, us, vs, ps, allow_zero)
        for a in (self._us, self._vs, self._ps):
            a.flags.writeable = False
        self._degrees = None

    @property
    def m(self) -> int:
        return len(self._us)

    @property
    def endpoint_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._us, self._vs

    @property
    def probabilities(self) -> np.ndarray:
        return self._ps

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self._us.tolist(), self._vs.tolist(), self._ps.tolist()))

    @property
    def edge_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self._us.tolist(), self._vs.tolist()))

    def degree_vector(self) -> np.ndarray:
        """Expected degree of every vertex (sum of incident probabilities)."""
        if self._degrees is None:
            d = np.zeros(self.n)
            np.add.at(d, self._us, self._ps)
            np.add.at(d, self._vs, self._ps)
            self._degrees = d
        return self._degrees

    def __repr__(self):
        return f"UncertainGraph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# Entropy
# ---------------------------------------------------------------------------


def graph_entropy(g: UncertainGraph) -> float:
    """Total entropy of the graph: sum of per-edge Bernoulli entropies (bits)."""
    ps = g.probabilities
    if ps.size == 0:
        return 0.0
    inner = ps[(ps > 0.0) & (ps < 1.0)]
    q = 1.0 - inner
    return float(-(np.sum(inner * np.log2(inner)) + np.sum(q * np.log2(q)))) + 0.0


# ---------------------------------------------------------------------------
# Possible worlds: sampling and exact enumeration
# ---------------------------------------------------------------------------


def sample_world(g: UncertainGraph, rng: np.random.Generator) -> np.ndarray:
    """Edge mask of one possible world: edge e materializes when rng's e-th
    uniform falls below its probability."""
    return rng.random(g.m) < g.probabilities


def exact_query_probability(
    g: UncertainGraph, predicate: Callable[[np.ndarray], np.ndarray]
) -> float:
    """Exact probability of a world predicate by full enumeration.

    The 2^|E| worlds come as (B, |E|) bool edge-mask chunks, the form
    evaluation.sample_masks draws (world w holds edge i when bit i of w is
    set), with B * max(|E|, n) <= EXACT_CHUNK_CELLS; predicate maps a chunk to
    B bools.  The probabilities of the worlds it selects are summed exactly
    rounded.  Guarded by MAX_EXACT_EDGES because the cost is exponential in |E|.
    """
    m = g.m
    if m > MAX_EXACT_EDGES:
        raise ValueError(f"exact enumeration limited to {MAX_EXACT_EDGES} edges, got {m}")
    ps = g.probabilities
    qs = 1.0 - ps
    bits = np.arange(m)
    rows = max(1, EXACT_CHUNK_CELLS // max(m, g.n))

    def selected_weights():
        for start in range(0, 1 << m, rows):
            worlds = np.arange(start, min(start + rows, 1 << m))
            masks = (worlds[:, None] >> bits & 1).astype(bool)
            weights = np.prod(np.where(masks, ps, qs), axis=1)
            yield from weights[predicate(masks)].tolist()

    return math.fsum(selected_weights())


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------


def uniform_probability_sampler(rng: np.random.Generator, size: int) -> np.ndarray:
    """Uniform probabilities on (0, 1]."""
    return 1.0 - rng.random(size)


def draw_rows(rng: np.random.Generator, bounds, take: Callable[..., bool]) -> None:
    """Call take(*row) on rows of rng.integers(0, b) for each b in bounds until it returns True.

    The rows come in blocks of DRAW_BLOCK from one array-bound rng.integers
    call, which returns the numbers the scalar calls would, in their order.
    Once take() is done, the stream is rewound to the start of the last block
    and that block is redrawn up to take()'s row, so rng is left where the
    scalar calls rng.integers(0, b), one per number, would leave it.
    """
    row_bounds = np.asarray(bounds, dtype=np.int64)
    while True:
        saved = rng.bit_generator.state
        block = rng.integers(0, np.tile(row_bounds, DRAW_BLOCK)).reshape(DRAW_BLOCK, -1)
        for used, row in enumerate(block.tolist(), start=1):
            if take(*row):
                rng.bit_generator.state = saved
                rng.integers(0, np.tile(row_bounds, used))
                return


def generate_synthetic(
    n: int,
    target_density: float,
    prob_sampler: Callable[[np.random.Generator, int], np.ndarray] = uniform_probability_sampler,
    seed: int = 0,
) -> UncertainGraph:
    """Random connected uncertain graph at a target edge density.

    Starts from a random spanning tree, then adds uniformly random distinct
    vertex pairs until ceil(target_density * n(n-1)/2) edges exist.  Edge
    probabilities are drawn from prob_sampler, so the deterministic structure
    is connected by construction.  More than MAX_GENERATED_EDGES edges is a
    ValueError, raised before anything is allocated.

    The tree's parents come from one array-bound draw and the sparse branch's
    candidate pairs from draw_rows.  Both give the numbers that one scalar
    rng.integers call per parent and per pair endpoint would, and leave the
    stream where those calls would for prob_sampler.
    """
    if not 0.0 < target_density <= 1.0:
        raise ValueError("target_density must be in (0, 1]")
    if n < 2:
        raise ValueError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    m = math.ceil(target_density * max_edges)
    if m > MAX_GENERATED_EDGES:
        raise ValueError(
            f"n={n} at density {target_density} asks for {m} edges, above the {MAX_GENERATED_EDGES} cap"
        )
    if m < n - 1:
        raise ValueError(
            f"density {target_density} gives {m} edges, below the {n - 1} needed for connectivity"
        )
    rng = derive_rng(seed)
    order = rng.permutation(n)
    # vertex order[i] hangs from order[j], j uniform in [0, i)
    a, b = order[1:], order[rng.integers(0, np.arange(1, n))]
    us, vs = np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
    if m > max_edges // 2:
        # Dense target: enumerate the complement and take a shuffled prefix.
        chosen = set(zip(us, vs))
        rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in chosen]
        rng.shuffle(rest)
        for u, v in rest[: m - len(us)]:
            us.append(u)
            vs.append(v)
    elif m > len(us):
        chosen = {u * n + v for u, v in zip(us, vs)}

        def take(u, v):
            if u != v:
                if u > v:
                    u, v = v, u
                key = u * n + v
                if key not in chosen:
                    chosen.add(key)
                    us.append(u)
                    vs.append(v)
            return len(us) == m

        draw_rows(rng, (n, n), take)
    probs = np.asarray(prob_sampler(rng, m), dtype=np.float64)
    if probs.shape != (m,) or np.any(probs <= 0.0) or np.any(probs > 1.0):
        raise ValueError("prob_sampler must return probabilities in (0, 1]")
    return UncertainGraph.from_columns(n, us, vs, probs)


# ---------------------------------------------------------------------------
# Edge-list file format
# ---------------------------------------------------------------------------


def _lines(text: str):
    """text's lines as a file opened in text mode yields them: '\\r\\n' and '\\r' end lines too."""
    return io.StringIO(text, newline=None)


def _header_n(path, text: str):
    """The vertex count in text's header, the first '# n=<int>' comment before any edge line.

    None if there is none; a header whose count int() refuses is a GraphFormatError.
    """
    for lineno, raw in enumerate(_lines(text), start=1):
        data, _, comment = raw.partition("#")
        if data.strip():
            return None
        token = comment.strip()
        if token.startswith("n="):
            try:
                return int(token[2:].strip())
            except ValueError:
                raise GraphFormatError(f"{path}: line {lineno}: bad header {token!r}")
    return None


def _parse_lines(path, text: str):
    """The reference parser: vertex count, u, v and p lists, and edgeless line numbers.

    One line at a time: a line that is not 'u v p' with integer, non-negative
    ids and a float p raises GraphFormatError naming it.
    """
    header_n = _header_n(path, text)
    us, vs, ps = [], [], []
    skipped = []
    for lineno, raw in enumerate(_lines(text), start=1):
        data = raw.partition("#")[0]
        fields = data.split()
        if not fields:
            skipped.append(lineno)
            continue
        if len(fields) != 3:
            raise GraphFormatError(f"{path}: line {lineno}: expected 'u v p', got {data.strip()!r}")
        try:
            u, v, p = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise GraphFormatError(f"{path}: line {lineno}: could not parse {data.strip()!r}")
        if u < 0 or v < 0:
            raise GraphFormatError(f"{path}: line {lineno}: negative vertex id")
        us.append(u)
        vs.append(v)
        ps.append(p)
    n = header_n if header_n is not None else max(max(us, default=-1), max(vs, default=-1)) + 1
    return n, us, vs, ps, skipped


def _parse_array(path, text: str):
    """What _parse_lines returns, from one numpy pass that numbers no lines (None in their place).

    None where numpy refuses the text, any warning counting as a refusal, or
    reads a negative id: _parse_lines then reports the line.
    """
    header_n = _header_n(path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(_lines(text), comments="#", dtype=_EDGE_ROW, ndmin=1)
        except (ValueError, Warning):
            return None
    us, vs, ps = rows["u"], rows["v"], rows["p"]
    if min(us.min(), vs.min()) < 0:
        return None
    n = header_n if header_n is not None else int(max(us.max(), vs.max())) + 1
    return n, us, vs, ps, None


def load_graph(path, allow_zero: bool = False) -> UncertainGraph:
    """Read an edge-list file: optional '# n=<int>' header, then 'u v p' lines.

    '#' starts a comment.  Probabilities must lie in (0,1]; pass
    allow_zero=True for sparsified outputs, where p=0 marks a structurally
    retained edge with no remaining mass.  The file is read once and parsed
    in one numpy pass; a file numpy refuses, or one with a negative id, is
    parsed again line by line, which reports the first bad line.  The parsed
    columns are validated in one pass, and a bad edge is reported with its
    line number, as is the first line that is not UTF-8 text.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphFormatError(f"{path}: line {line}: not UTF-8 text") from exc
    del data
    n, us, vs, ps, skipped = _parse_array(path, text) or _parse_lines(path, text)
    try:
        return UncertainGraph.from_columns(n, us, vs, ps, allow_zero=allow_zero)
    except ValueError as exc:
        if not len(us):
            raise GraphFormatError(f"{path}: {exc}") from exc
        if skipped is None:
            skipped = _parse_lines(path, text)[4]
        # edge `row` sits on line row + 1, moved down by each edgeless line
        # before it; an error of no edge (a negative header n) goes to the first
        line = getattr(exc, "row", 0) + 1
        for s in skipped:
            if s > line:
                break
            line += 1
        raise GraphFormatError(f"{path}: line {line}: {exc}") from exc


def save_graph(g: UncertainGraph, path) -> None:
    """Write the canonical edge-list representation with an n= header."""
    rows = zip(g._us.tolist(), g._vs.tolist(), g._ps.tolist())
    body = "".join([f"{u} {v} {p!r}\n" for u, v, p in rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n" + body)
