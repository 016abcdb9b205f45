"""Multivariate series container, lag-indexed causal graphs, and their file formats."""

from __future__ import annotations

import json
import numbers
import operator
import re
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

_NAME_PATTERN = re.compile(r"[A-Za-z0-9_]+")


def require_integer(name: str, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer (NumPy ints pass, booleans do not)."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def require_number(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a real number; NumPy floats pass, booleans do not."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")


def require_field_kinds(config) -> None:
    """Check each field of a frozen dataclass against its default's kind, storing integers as ints."""
    for f in fields(config):
        value = getattr(config, f.name)
        if type(f.default) is int:
            object.__setattr__(config, f.name, require_integer(f.name, value))
        else:
            require_number(f.name, value)


class Edge(NamedTuple):
    """Directed weighted edge: `cause` acts on `effect` after `lag` steps (0 = same step)."""

    cause: int
    effect: int
    lag: int
    weight: float

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.cause, self.effect, self.lag)


@dataclass(frozen=True, eq=False)
class MultivariateSeries:
    """A T x n observation matrix with one named column per variable.

    Rows are time steps in temporal order.  All entries must be finite; the
    stored array is a read-only copy of the input.
    """

    values: np.ndarray
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"series values must be 2-dimensional, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"series needs at least one row and one column, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("series values must be finite (no NaN or Inf)")
        names = tuple(self.names)
        if len(names) != values.shape[1]:
            raise ValueError(f"{len(names)} names for {values.shape[1]} columns")
        for idx, name in enumerate(names):
            if not isinstance(name, str) or not name:
                raise ValueError(f"column {idx + 1}: variable name must be a non-empty string")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultivariateSeries):
            return NotImplemented
        return self.names == other.names and np.array_equal(self.values, other.values)


@dataclass(frozen=True, eq=False)
class WindowGraph:
    """Lag-indexed weighted digraph over ``n`` positionally indexed variables.

    Holds at most one edge per (cause, effect, lag) triple, all weights are
    finite and non-zero, and the lag-0 subgraph is acyclic.
    """

    n: int
    max_lag: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs n >= 1, got {self.n}")
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")
        edges = frozenset(Edge(int(c), int(e), int(l), float(w)) for c, e, l, w in self.edges)
        seen: set[tuple[int, int, int]] = set()
        for edge in edges:
            if not (0 <= edge.cause < self.n and 0 <= edge.effect < self.n):
                raise ValueError(f"edge {edge} references a variable outside 0..{self.n - 1}")
            if not 0 <= edge.lag <= self.max_lag:
                raise ValueError(f"edge {edge} has lag outside 0..{self.max_lag}")
            if not np.isfinite(edge.weight) or edge.weight == 0.0:
                raise ValueError(f"edge {edge} must carry a finite non-zero weight")
            if edge.key in seen:
                raise ValueError(f"duplicate edge for (cause, effect, lag) = {edge.key}")
            seen.add(edge.key)
        instantaneous_order(self.n, edges)
        object.__setattr__(self, "edges", edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges, key=lambda e: e.key)

    def weight_map(self) -> dict[tuple[int, int, int], float]:
        return {edge.key: edge.weight for edge in self.edges}

    def edge_keys(self) -> set[tuple[int, int, int]]:
        return {edge.key for edge in self.edges}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowGraph):
            return NotImplemented
        return (self.n, self.max_lag, self.edges) == (other.n, other.max_lag, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.max_lag, self.edges))


@dataclass(frozen=True)
class SummaryGraph:
    """Unweighted digraph recording which variable pairs interact at any lag."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"graph needs n >= 1, got {self.n}")
        edges = frozenset((int(c), int(e)) for c, e in self.edges)
        for cause, effect in edges:
            if not (0 <= cause < self.n and 0 <= effect < self.n):
                raise ValueError(f"edge ({cause}, {effect}) references a variable outside 0..{self.n - 1}")
        object.__setattr__(self, "edges", edges)


def summarize(window: WindowGraph) -> SummaryGraph:
    """Collapse a lag-indexed graph to the set of (cause, effect) pairs linked at any lag."""
    return SummaryGraph(window.n, frozenset((e.cause, e.effect) for e in window.edges))


def instantaneous_order(n: int, edges: Iterable[Edge]) -> list[int]:
    """Topological order of variables 0..n-1 under the lag-0 edges (Kahn's algorithm).

    Ties go to the lowest-numbered ready variable. When the lag-0 edges hold a
    cycle, raises ValueError naming one, e.g. ``cycle: 0 -> 1 -> 0``.
    """
    indegree = [0] * n
    succ: dict[int, list[int]] = {}
    pred: dict[int, list[int]] = {}
    for edge in edges:
        if edge.lag == 0:
            indegree[edge.effect] += 1
            succ.setdefault(edge.cause, []).append(edge.effect)
            pred.setdefault(edge.effect, []).append(edge.cause)
    ready = [j for j in range(n) if indegree[j] == 0]
    order = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for nxt in succ.get(node, ()):
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if len(order) == n:
        return order
    # Every variable left unordered keeps a lag-0 parent that is also left, so
    # walking parents from any of them must revisit one: that walk is a cycle.
    left = set(range(n)) - set(order)
    walk = [min(left)]
    while walk.count(walk[-1]) == 1:
        walk.append(min(c for c in pred[walk[-1]] if c in left))
    cycle = walk[walk.index(walk[-1]):][::-1]
    raise ValueError("instantaneous (lag-0) edges form a cycle: " + " -> ".join(map(str, cycle)))


# ---------------------------------------------------------------------------
# CSV series format: UTF-8, comma separated, mandatory header, '.' decimals.
# ---------------------------------------------------------------------------

# Body rows converted per numpy call: keeps the reader's transient field
# strings to a few hundred rows' worth, whatever the file's length.
_CHUNK_ROWS = 256


def read_series_csv(path: str | Path) -> MultivariateSeries:
    """Parse a series CSV, reporting the offending row/column on bad input.

    Cells take exactly Python ``float()`` syntax; the first bad cell in
    row-major order is the one reported.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or not lines[0]:
        raise ValueError(f"{path}: missing header row")
    names = lines[0].split(",")
    for col, name in enumerate(names, start=1):
        if not name:
            raise ValueError(f"{path}: header column {col} is empty")
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ValueError(f"{path}: duplicate header names: {', '.join(dupes)}")
    n = len(names)
    if len(lines) == 1:
        raise ValueError(f"{path}: no data rows after header")
    values = np.empty((len(lines) - 1, n))
    for start in range(0, len(lines) - 1, _CHUNK_ROWS):
        part = lines[1 + start : 1 + start + _CHUNK_ROWS]
        block = values[start : start + len(part)]
        # A chunk numpy cannot take whole goes field by field, which names its first bad cell.
        if all(line.count(",") == n - 1 for line in part):
            try:
                block[:] = np.array(",".join(part).split(","), dtype=float).reshape(block.shape)
            except ValueError:
                pass
            else:
                if np.isfinite(block).all():
                    continue
        block[:] = _parse_rows(path, part, start + 1, n)
    return MultivariateSeries(values, tuple(names))


def _parse_rows(path: str | Path, lines: list[str], first_row: int, n: int) -> list[list[float]]:
    """Field-by-field parse of body rows numbered from `first_row`; raises at the first bad cell."""
    rows: list[list[float]] = []
    for r, line in enumerate(lines, start=first_row):
        fields = line.split(",")
        if len(fields) != n:
            raise ValueError(f"{path}: row {r}: expected {n} fields, found {len(fields)}")
        parsed = []
        for c, field in enumerate(fields, start=1):
            try:
                value = float(field)
            except ValueError:
                raise ValueError(f"{path}: row {r}, column {c}: not a number: {field!r}") from None
            if not np.isfinite(value):
                raise ValueError(f"{path}: row {r}, column {c}: non-finite value {field!r}")
            parsed.append(value)
        rows.append(parsed)
    return rows


def write_series_csv(series: MultivariateSeries, path: str | Path) -> None:
    """Write a series as CSV; variable names must be [A-Za-z0-9_] so no quoting is needed."""
    for name in series.names:
        if not _NAME_PATTERN.fullmatch(name):
            raise ValueError(f"variable name {name!r} is not CSV-safe (use [A-Za-z0-9_])")
    lines = [",".join(series.names)]
    for row in series.values:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Graph JSON format: canonical edge order, weights at 17 significant digits.
# ---------------------------------------------------------------------------

def graph_to_json(graph: WindowGraph) -> str:
    """Serialize a graph deterministically: edges sorted by (cause, effect, lag)."""
    parts = [
        '{"cause": %d, "effect": %d, "lag": %d, "weight": %s}'
        % (e.cause, e.effect, e.lag, format(e.weight, ".17g"))
        for e in graph.sorted_edges()
    ]
    return '{"n": %d, "max_lag": %d, "edges": [%s]}' % (graph.n, graph.max_lag, ", ".join(parts))


def graph_from_json(text: str) -> WindowGraph:
    """Parse and validate a graph document produced by :func:`graph_to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("graph JSON must be an object")
    for field in ("n", "max_lag", "edges"):
        if field not in doc:
            raise ValueError(f"graph JSON is missing the {field!r} field")
    n, max_lag, raw_edges = doc["n"], doc["max_lag"], doc["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("graph JSON field 'n' must be an integer")
    if not isinstance(max_lag, int) or isinstance(max_lag, bool):
        raise ValueError("graph JSON field 'max_lag' must be an integer")
    if not isinstance(raw_edges, list):
        raise ValueError("graph JSON field 'edges' must be an array")
    edges = []
    for idx, item in enumerate(raw_edges):
        if not isinstance(item, dict):
            raise ValueError(f"edge {idx}: must be an object")
        for field in ("cause", "effect", "lag", "weight"):
            if field not in item:
                raise ValueError(f"edge {idx}: missing the {field!r} field")
        cause, effect, lag, weight = item["cause"], item["effect"], item["lag"], item["weight"]
        for label, value in (("cause", cause), ("effect", effect), ("lag", lag)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"edge {idx}: field {label!r} must be an integer")
        if isinstance(weight, bool) or not isinstance(weight, (int, float)):
            raise ValueError(f"edge {idx}: field 'weight' must be a number")
        edges.append(Edge(cause, effect, lag, float(weight)))
    return WindowGraph(n=n, max_lag=max_lag, edges=frozenset(edges))


def read_graph_json(path: str | Path) -> WindowGraph:
    try:
        return graph_from_json(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_graph_json(graph: WindowGraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(graph) + "\n", encoding="utf-8")
