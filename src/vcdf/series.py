"""Multivariate series container, lag-indexed causal graphs, and their file formats."""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, get_type_hints

import numpy as np

_NAME_PATTERN = re.compile(r"[A-Za-z0-9_]+")


# Each kind a value read from outside may take, as its error messages name it.
_KIND_WORDS = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "an array", dict: "an object", tuple[float, ...]: "an array of numbers"}


def _as_kind(value, kind):
    """``value`` as ``kind`` (a key of ``_KIND_WORDS``); TypeError when it is not one."""
    if type(value) is kind:
        return value
    if isinstance(value, (bool, np.bool_)):
        if kind is bool:
            return bool(value)
    elif kind is int:
        return operator.index(value)
    elif kind is float:
        if isinstance(value, numbers.Real):
            return float(value)
    elif kind == tuple[float, ...]:
        if isinstance(value, (list, tuple)):
            return tuple(_as_kind(v, float) for v in value)
    elif kind in (str, list, dict) and isinstance(value, kind):
        return value
    raise TypeError


def require_kind(name: str, value, kind):
    """``value`` as ``kind``, or ValueError "<name> must be <kind>, got <value>".

    The one rule: a boolean is neither an integer nor a number; an integer is what ``operator.index``
    takes (NumPy ints pass, 2.0 does not); a number is any real (inf too), returned as float.
    """
    try:
        return _as_kind(value, kind)
    except TypeError:
        raise ValueError(f"{name} must be {_KIND_WORDS[kind]}, got {value!r}") from None


def require_fields(where: str, doc, kinds: dict) -> dict:
    """Each field of JSON object ``doc`` named in ``kinds``, as its kind; ValueError starting ``where`` if not."""
    require_kind(where, doc, dict)
    values = {}
    for key, kind in kinds.items():
        try:
            values[key] = _as_kind(doc[key], kind)
        except KeyError:
            raise ValueError(f"{where}: missing the {key!r} field") from None
        except TypeError:
            require_kind(f"{where}: field {key!r}", doc[key], kind)  # raises, naming the field
    return values


@functools.cache
def field_kinds(cls) -> dict:
    """Each field of record class ``cls`` whose annotation is a kind of ``require_kind``, mapped to that kind."""
    return {name: kind for name, kind in get_type_hints(cls).items() if kind in _KIND_WORDS}


def require_field_kinds(record) -> None:
    """Store each field of a frozen dataclass that ``field_kinds`` names as its kind (see ``require_kind``)."""
    for name, kind in field_kinds(type(record)).items():
        object.__setattr__(record, name, require_kind(name, getattr(record, name), kind))


class Edge(NamedTuple):
    """Directed weighted edge: `cause` acts on `effect` after `lag` steps (0 = same step)."""

    cause: int
    effect: int
    lag: int
    weight: float

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.cause, self.effect, self.lag)


def require_edge(edge) -> Edge:
    """``edge`` as an Edge of three integers and a number (see ``require_kind``); ValueError naming it if not."""
    try:
        cause, effect, lag, weight = edge
        return Edge(_as_kind(cause, int), _as_kind(effect, int), _as_kind(lag, int), _as_kind(weight, float))
    except (TypeError, ValueError):
        raise ValueError(f"edge {edge!r}: cause, effect and lag must be integers and weight a number") from None


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


@dataclass(frozen=True)
class WindowGraph:
    """Lag-indexed weighted digraph over ``n`` positionally indexed variables.

    Holds at most one edge per (cause, effect, lag) triple, all weights are
    finite and non-zero, and the lag-0 subgraph is acyclic.
    """

    n: int
    max_lag: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        require_field_kinds(self)
        if self.n < 1:
            raise ValueError(f"graph needs n >= 1, got {self.n}")
        if self.max_lag < 0:
            raise ValueError(f"max_lag must be >= 0, got {self.max_lag}")
        edges = frozenset(map(require_edge, self.edges))
        seen: set[tuple[int, int, int]] = set()
        for edge in edges:
            if not (0 <= edge.cause < self.n and 0 <= edge.effect < self.n):
                raise ValueError(f"edge {edge} references a variable outside 0..{self.n - 1}")
            if not 0 <= edge.lag <= self.max_lag:
                raise ValueError(f"edge {edge} has lag outside 0..{self.max_lag}")
            if not math.isfinite(edge.weight) or edge.weight == 0.0:
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


def summarize(window: WindowGraph) -> frozenset[tuple[int, int]]:
    """Collapse a lag-indexed graph to the set of (cause, effect) pairs linked at any lag."""
    return frozenset((e.cause, e.effect) for e in window.edges)


def instantaneous_order(n: int, edges: Iterable[Edge]) -> list[int]:
    """Topological order of variables 0..n-1 under the lag-0 edges (Kahn's algorithm).

    Ready variables are placed first in, first out: those without a lag-0 parent
    in increasing index, then each one as its last parent is placed, so
    ``instantaneous_order(4, [Edge(0, 1, 0, 0.5)])`` is ``[0, 2, 3, 1]``. When the
    lag-0 edges hold a cycle, raises ValueError naming one, e.g.
    ``cycle: 0 -> 1 -> 0``.
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

def read_series_csv(path: str | Path) -> MultivariateSeries:
    """Parse a series CSV, reporting the offending row/column on bad input.

    Cells take exactly Python ``float()`` syntax; the first bad cell in
    row-major order is the one reported.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.removesuffix("\n").split("\n")
    if not lines[0]:
        raise ValueError(f"{path}: missing header row")
    names = lines[0].split(",")
    for col, name in enumerate(names, start=1):
        if not name:
            raise ValueError(f"{path}: header column {col} is empty")
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ValueError(f"{path}: duplicate header names: {', '.join(dupes)}")
    body = lines[1:]
    if not body:
        raise ValueError(f"{path}: no data rows after header")
    # numpy's reader converts a cell as float() does (both end in PyOS_string_to_double), but it
    # skips empty lines (warning when none is left) and refuses some float() syntax (1_000,
    # non-ASCII digits); a body it does not take whole and finite goes field by field, which
    # names the first bad cell.
    if "" not in body:
        try:
            values = np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
        except ValueError:
            pass
        else:
            if values.shape == (len(body), len(names)) and np.isfinite(values).all():
                return MultivariateSeries(values, tuple(names))
    return MultivariateSeries(_parse_rows(path, body, len(names)), tuple(names))


def _parse_rows(path: str | Path, lines: list[str], n: int) -> list[list[float]]:
    """Field-by-field parse of the body rows; raises at the first bad cell."""
    rows: list[list[float]] = []
    for r, line in enumerate(lines, start=1):
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
    # tolist() yields Python floats, whose repr is the shortest round-tripping form.
    lines = [",".join(series.names)]
    lines += [",".join(map(repr, row.tolist())) for row in series.values]
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
    graph = require_fields("graph JSON", doc, {**field_kinds(WindowGraph), "edges": list})
    edges = [Edge(**require_fields(f"edge {idx}", item, field_kinds(Edge))) for idx, item in enumerate(graph["edges"])]
    return WindowGraph(n=graph["n"], max_lag=graph["max_lag"], edges=frozenset(edges))


def read_graph_json(path: str | Path) -> WindowGraph:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return graph_from_json(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_graph_json(graph: WindowGraph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(graph) + "\n", encoding="utf-8")
