"""Container validation, CSV parsing with error locations, and graph JSON stability."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcdf import series as series_module
from vcdf import (
    DiscovererConfig,
    Edge,
    MultivariateSeries,
    ScmSpec,
    VcdfConfig,
    WindowGraph,
    graph_from_json,
    graph_to_json,
    read_graph_json,
    read_series_csv,
    summarize,
    write_graph_json,
    write_series_csv,
)
from vcdf.consensus import EdgeStability

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_NAME_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"

names_st = st.lists(
    st.text(alphabet=_NAME_ALPHABET, min_size=1, max_size=6),
    min_size=1, max_size=4, unique=True,
).map(tuple)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)

nonzero_weights = finite_floats.filter(lambda x: x != 0.0)


@st.composite
def series_st(draw):
    names = draw(names_st)
    rows = draw(st.integers(min_value=1, max_value=6))
    values = draw(
        st.lists(
            st.lists(finite_floats, min_size=len(names), max_size=len(names)),
            min_size=rows, max_size=rows,
        )
    )
    return MultivariateSeries(np.array(values, dtype=float), names)


@st.composite
def window_graph_st(draw, max_n=5, max_lag=3):
    n = draw(st.integers(min_value=1, max_value=max_n))
    lag_bound = draw(st.integers(min_value=0, max_value=max_lag))
    keys = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=1, max_value=max(lag_bound, 1)),
    )
    lagged = draw(st.lists(keys, max_size=8, unique=True)) if lag_bound >= 1 else []
    # Instantaneous edges only from lower to higher index: acyclic by construction.
    inst = []
    if lag_bound >= 0 and n >= 2:
        pairs = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda p: p[0] < p[1])
        inst = draw(st.lists(pairs, max_size=4, unique=True))
    edges = [Edge(c, e, lag, draw(nonzero_weights)) for c, e, lag in lagged]
    edges += [Edge(c, e, 0, draw(nonzero_weights)) for c, e in inst]
    return WindowGraph(n=n, max_lag=lag_bound, edges=frozenset(edges))


# ---------------------------------------------------------------------------
# MultivariateSeries
# ---------------------------------------------------------------------------

def test_series_holds_a_readonly_copy():
    raw = np.zeros((3, 2))
    series = MultivariateSeries(raw, ("a", "b"))
    raw[0, 0] = 99.0
    assert series.values[0, 0] == 0.0
    with pytest.raises(ValueError):
        series.values[0, 0] = 1.0


def test_series_shape_properties():
    series = MultivariateSeries(np.ones((7, 3)), ("a", "b", "c"))
    assert series.n_steps == 7
    assert series.n_vars == 3


@pytest.mark.parametrize(
    "values, names, fragment",
    [
        (np.ones(4), ("a",), "2-dimensional"),
        (np.ones((0, 2)), ("a", "b"), "at least one row"),
        (np.array([[1.0, np.nan]]), ("a", "b"), "finite"),
        (np.ones((2, 2)), ("a",), "names for 2 columns"),
        (np.ones((2, 2)), ("a", "a"), "distinct"),
        (np.ones((2, 2)), ("a", ""), "non-empty"),
    ],
)
def test_series_rejects_bad_input(values, names, fragment):
    with pytest.raises(ValueError, match=fragment):
        MultivariateSeries(values, names)


def test_series_equality_is_by_value():
    a = MultivariateSeries(np.arange(6, dtype=float).reshape(3, 2), ("x", "y"))
    b = MultivariateSeries(np.arange(6, dtype=float).reshape(3, 2), ("x", "y"))
    c = MultivariateSeries(np.arange(6, dtype=float).reshape(3, 2), ("x", "z"))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# WindowGraph / summarize
# ---------------------------------------------------------------------------

def test_window_graph_sorted_edges_and_weight_map():
    g = WindowGraph(n=3, max_lag=2, edges=frozenset({
        Edge(2, 0, 1, 0.5), Edge(0, 1, 2, -0.3), Edge(0, 1, 1, 0.2),
    }))
    assert [e.key for e in g.sorted_edges()] == [(0, 1, 1), (0, 1, 2), (2, 0, 1)]
    assert g.weight_map() == {(2, 0, 1): 0.5, (0, 1, 2): -0.3, (0, 1, 1): 0.2}


@pytest.mark.parametrize(
    "n, max_lag, edges, fragment",
    [
        (2, 1, {Edge(0, 2, 1, 0.5)}, "outside 0..1"),
        (2, 1, {Edge(0, 1, 2, 0.5)}, "lag outside 0..1"),
        (2, 1, {Edge(0, 1, 1, 0.0)}, "non-zero weight"),
        (2, 1, {Edge(0, 1, 1, float("nan"))}, "finite"),
        (0, 1, set(), "n >= 1"),
        (2, -1, set(), "max_lag"),
        (3, 2, {Edge(0, 1.9, 1, 0.5)}, "must be integers"),
        (3, 2, {Edge(0, 1, 1.7, 0.5)}, "must be integers"),
        (3, 2, {Edge(0, 1, 1, "0.5")}, "weight a number"),
        (3, 2, {Edge(True, 1, 1, 0.5)}, "must be integers"),
        (3, 2, {Edge(0, 1, 1, True)}, "weight a number"),
        (3, 2, {(0, 1, 1)}, "must be integers"),
        (3, 1.5, set(), "max_lag must be an integer, got 1.5"),
        (2.5, 1, set(), "n must be an integer, got 2.5"),
    ],
)
def test_window_graph_rejects_bad_edges(n, max_lag, edges, fragment):
    with pytest.raises(ValueError, match=fragment):
        WindowGraph(n=n, max_lag=max_lag, edges=frozenset(edges))


def test_window_graph_takes_numpy_scalars_as_python_ones():
    g = WindowGraph(n=np.int64(3), max_lag=np.int32(2),
                    edges=frozenset({Edge(np.int64(0), np.intp(1), np.int64(2), np.float64(0.5))}))
    assert g == WindowGraph(n=3, max_lag=2, edges=frozenset({Edge(0, 1, 2, 0.5)}))
    assert [type(v) for v in (g.n, g.max_lag, *g.sorted_edges()[0])] == [int, int, int, int, int, float]
    assert graph_from_json(graph_to_json(g)) == g


def test_window_graph_rejects_instantaneous_cycles():
    with pytest.raises(ValueError, match=r"cycle: 0 -> 1 -> 0"):
        WindowGraph(n=2, max_lag=0, edges=frozenset({Edge(0, 1, 0, 0.5), Edge(1, 0, 0, 0.5)}))
    with pytest.raises(ValueError, match="cycle"):
        WindowGraph(n=1, max_lag=0, edges=frozenset({Edge(0, 0, 0, 0.5)}))


def test_instantaneous_order_places_ready_variables_first_in_first_out():
    # 1 becomes ready after 2 and 3 were queued, so it comes last, not second.
    assert series_module.instantaneous_order(4, [Edge(0, 1, 0, 0.5)]) == [0, 2, 3, 1]
    # Lowest-numbered-first would place 0 before 3 here; lagged edges do not count.
    assert series_module.instantaneous_order(4, [Edge(2, 0, 0, 0.5), Edge(3, 1, 1, 0.5)]) == [1, 2, 3, 0]


def test_lagged_self_loops_are_legal():
    g = WindowGraph(n=1, max_lag=2, edges=frozenset({Edge(0, 0, 1, 0.8)}))
    assert len(g.edges) == 1


def test_summarize_collapses_lags():
    g = WindowGraph(n=3, max_lag=3, edges=frozenset({
        Edge(0, 1, 1, 0.4), Edge(0, 1, 3, -0.2), Edge(2, 1, 0, 0.9), Edge(1, 2, 2, 0.1),
    }))
    s = summarize(g)
    assert s == frozenset({(0, 1), (2, 1), (1, 2)})


def test_graph_equality_and_hash_by_content():
    g1 = WindowGraph(n=2, max_lag=1, edges=frozenset({Edge(0, 1, 1, 0.5)}))
    g2 = WindowGraph(n=2, max_lag=1, edges=frozenset({Edge(0, 1, 1, 0.5)}))
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != WindowGraph(n=2, max_lag=1, edges=frozenset({Edge(0, 1, 1, 0.6)}))


# ---------------------------------------------------------------------------
# series CSV
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(series_st())
def test_series_csv_round_trip(tmp_path_factory, series):
    path = tmp_path_factory.mktemp("csv") / "series.csv"
    write_series_csv(series, path)
    back = read_series_csv(path)
    assert back.names == series.names
    np.testing.assert_array_equal(back.values, series.values)


def reference_csv_text(series: MultivariateSeries) -> str:
    """The writer's text as formatted cell by cell, each cell a NumPy scalar made a float."""
    lines = [",".join(series.names)]
    for row in series.values:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def test_series_csv_is_byte_stable(tmp_path):
    # Signed zero, the smallest subnormal and normal, the first exponent forms, and a short decimal.
    values = np.array([[0.1, -3.0, -0.0], [1e-17, 2.5, 5e-324],
                       [2.2250738585072014e-308, 1e16, 1e22]])
    series = MultivariateSeries(values, ("a_1", "B2", "c"))
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_series_csv(series, p1)
    write_series_csv(series, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes() == reference_csv_text(series).encode("utf-8")
    assert p1.read_text().splitlines()[0] == "a_1,B2,c"
    assert read_series_csv(p1).values.tobytes() == values.tobytes()


def test_write_rejects_unsafe_names(tmp_path):
    series = MultivariateSeries(np.ones((1, 2)), ("ok", "has space"))
    with pytest.raises(ValueError, match="CSV-safe"):
        write_series_csv(series, tmp_path / "bad.csv")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "missing header"),
        ("a,,c\n1,2,3\n", "header column 2 is empty"),
        ("a,b,a\n1,2,3\n", "duplicate header names: a"),
        ("a,b\n1,2\n3\n", "row 2: expected 2 fields, found 1"),
        ("a,b\n1,x\n", "row 1, column 2: not a number"),
        ("a,b\n1,inf\n", "row 1, column 2: non-finite"),
        ("a,b\n", "no data rows"),
        ("a,b\n1,2\n1,inf\n1,2\n1,2\n1,x\n", "row 2, column 2: non-finite"),
        ("a,b\n1,2\n1,x\n3\n", "row 2, column 2: not a number"),
        ("a,b\n" + "1,2\n" * 999 + "1,x\n", "row 1000, column 2: not a number"),
        ("a,b\n1,2\n\n", "row 2: expected 2 fields, found 1"),
        # A line break to str.splitlines(), but neither a row end nor whitespace to float().
        ("a,b\n1,2\x1c3\n", "row 1, column 2: not a number"),
    ],
)
def test_read_series_csv_reports_locations(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=fragment):
        read_series_csv(path)


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x85", "\u2028", "\u2029"])
def test_read_series_csv_ends_rows_only_at_newlines(tmp_path, space):
    # float() takes each of these as whitespace around a cell; str.splitlines() breaks a row at it.
    path = tmp_path / "series.csv"
    path.write_text(f"a,b\n1,2{space}\n3,4\n", encoding="utf-8")
    assert_reads_like_reference(path)
    assert read_series_csv(path).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def reference_read_series_csv(path):
    """The reader's original cell-by-cell loop: the oracle for its numpy text-reader pass."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.removesuffix("\n").split("\n")
    if not lines or not lines[0]:
        raise ValueError(f"{path}: missing header row")
    names = lines[0].split(",")
    for col, name in enumerate(names, start=1):
        if not name:
            raise ValueError(f"{path}: header column {col} is empty")
    if len(set(names)) != len(names):
        dupes = sorted({x for x in names if names.count(x) > 1})
        raise ValueError(f"{path}: duplicate header names: {', '.join(dupes)}")
    rows = []
    for r, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"{path}: row {r}: expected {len(names)} fields, found {len(fields)}")
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
    if not rows:
        raise ValueError(f"{path}: no data rows after header")
    return MultivariateSeries(np.array(rows, dtype=float), tuple(names))


def read_outcome(reader, path):
    """What a reader makes of a file: the names and value bits, or the error message."""
    try:
        series = reader(path)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", series.names, series.values.shape, series.values.tobytes())


def assert_reads_like_reference(path):
    # Any warning the reader emits, numpy's UserWarning included, fails the comparison.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = read_outcome(read_series_csv, path)
    assert outcome == read_outcome(reference_read_series_csv, path)


_TRICKY_CELLS = [
    "1_000", " 1.5", "\t2\t", "-0", "+0.0", "1e-400", "1e400", "-1e309", "inf", "-Infinity",
    "nan", "NaN", "", " ", "x", "1,5", "0x10", "1__0", "_1", "1_", ".5", "5.", ".", "e5",
    "1e", "\u0663\u0664", "\uff11", "1.0\u00a0", "4.9e-324", "1.7976931348623157e308",
    "2.2250738585072011e-308", "0.1000000000000000055511151231257827", "1" * 400,
]

csv_cells = st.one_of(
    finite_floats.map(repr),
    st.sampled_from(_TRICKY_CELLS),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)


@st.composite
def csv_text_st(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    header = ",".join(f"v{i}" for i in range(n))
    rows = draw(st.lists(st.lists(csv_cells, min_size=n, max_size=n), max_size=9))
    lines = [header] + [",".join(row) for row in rows]
    if lines[1:]:
        # Rows that lost or gained a field, anywhere in the body.
        for i in draw(st.lists(st.integers(min_value=1, max_value=len(lines) - 1), max_size=2)):
            lines[i] = draw(st.sampled_from([lines[i] + ",1", lines[i].rpartition(",")[0]]))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending, ending * 2]))


@settings(max_examples=300, deadline=None)
@given(text=csv_text_st())
def test_read_series_csv_matches_the_cell_by_cell_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_reference(path)


@pytest.mark.parametrize(
    "text",
    [
        "a,b\n" + "0.1,-2.5e-3\n" * 600 + "1,2\n",
        # float() syntax numpy's reader refuses: the field-by-field parse returns the values.
        "a,b\n" + "0.1,-2.5e-3\n" * 600 + "1_000,2\n",
        "a,b\n" + "0.1,-2.5e-3\n" * 600 + "1,inf\n1,x\n",
        "a,b\n1,2\n1,inf\n" + "0.1,-2.5e-3\n" * 600 + "1,x\n",
        "a,b\n" + "0.1,-2.5e-3\n" * 255 + "1,2\n1,\n",
        "a\n1\n\n2\n",
        # Bodies with no value, where numpy's reader would warn that it found no data.
        "a\n\n",
        "a,b\n\n\n",
        "a\n \n",
        "a,b\n1,2,3\n4\n",
    ],
)
def test_read_series_csv_matches_the_reference_on_fixed_inputs(tmp_path, text):
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_reads_like_reference(path)


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
def test_read_series_csv_keeps_float_syntax_and_bits(tmp_path, ending):
    path = tmp_path / "series.csv"
    path.write_bytes(ending.join(["a,b", "1_000, 1.5", "-0,1e-400", ""]).encode("utf-8"))
    assert_reads_like_reference(path)
    values = read_series_csv(path).values
    assert values.tobytes() == np.array([[1000.0, 1.5], [-0.0, 0.0]]).tobytes()


# ---------------------------------------------------------------------------
# graph JSON
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(window_graph_st())
def test_graph_json_round_trip(graph):
    assert graph_from_json(graph_to_json(graph)) == graph


@settings(max_examples=30, deadline=None)
@given(window_graph_st())
def test_graph_json_is_deterministic(graph):
    # Rebuilding the same graph from a reshuffled edge list must not move a byte.
    shuffled = WindowGraph(n=graph.n, max_lag=graph.max_lag,
                           edges=frozenset(reversed(graph.sorted_edges())))
    assert graph_to_json(graph) == graph_to_json(shuffled)


def test_graph_json_shape_is_exact():
    g = WindowGraph(n=2, max_lag=1, edges=frozenset({Edge(1, 0, 1, 0.5)}))
    text = graph_to_json(g)
    assert text == (
        '{"n": 2, "max_lag": 1, "edges": ['
        '{"cause": 1, "effect": 0, "lag": 1, "weight": 0.5}]}'
    )


def test_graph_json_preserves_weight_bits():
    w = 0.1 + 0.2  # not representable as a short decimal
    g = WindowGraph(n=2, max_lag=1, edges=frozenset({Edge(0, 1, 1, w)}))
    back = graph_from_json(graph_to_json(g))
    assert next(iter(back.edges)).weight == w


def test_graph_file_round_trip_appends_newline(tmp_path):
    g = WindowGraph(n=2, max_lag=1, edges=frozenset({Edge(0, 1, 1, -1.25)}))
    path = tmp_path / "graph.json"
    write_graph_json(g, path)
    assert path.read_text().endswith("}\n")
    assert read_graph_json(path) == g


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[]", "must be an object"),
        ("{", "malformed graph JSON"),
        ('{"n": 2, "max_lag": 1}', "missing the 'edges' field"),
        ('{"n": true, "max_lag": 1, "edges": []}', "'n' must be an integer"),
        ('{"n": 2, "max_lag": 1, "edges": [{"cause": 0, "effect": 1, "lag": 1}]}',
         "missing the 'weight' field"),
        ('{"n": 2, "max_lag": 1, "edges": [{"cause": 0.5, "effect": 1, "lag": 1, "weight": 1.0}]}',
         "'cause' must be an integer"),
        ('{"n": 2, "max_lag": 1, "edges": [{"cause": 0, "effect": 1, "lag": 1, "weight": true}]}',
         "'weight' must be a number"),
        ('{"n": 2, "max_lag": 1, "edges": [{"cause": 0, "effect": 1, "lag": 1.0, "weight": 1.0}]}',
         "'lag' must be an integer"),
        ('{"n": 2, "max_lag": "1", "edges": []}', "'max_lag' must be an integer"),
        ('{"n": 2, "max_lag": 1, "edges": [{"cause": 0, "effect": 1, "lag": 1, "weight": 0.0}]}',
         "non-zero weight"),
    ],
)
def test_graph_from_json_is_strict(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        graph_from_json(text)


@pytest.mark.parametrize("value, kind, expected", [
    (0, float, 0.0),
    (float("inf"), float, float("inf")),
    (np.float32(0.5), float, 0.5),
    ([1, 0.5], tuple[float, ...], (1.0, 0.5)),
    (False, bool, False),
    (1, bool, None),
    ([True], tuple[float, ...], None),
])
def test_require_kind_is_one_rule(value, kind, expected):
    if expected is None:
        with pytest.raises(ValueError, match=r"^x must be .*, got "):
            series_module.require_kind("x", value, kind)
    else:
        got = series_module.require_kind("x", value, kind)
        assert got == expected and type(got) is type(expected)


def test_field_kinds_reads_each_record_annotation():
    assert {cls.__name__: series_module.field_kinds(cls) for cls in (
        Edge, WindowGraph, DiscovererConfig, VcdfConfig, ScmSpec, EdgeStability)} == {
        "Edge": {"cause": int, "effect": int, "lag": int, "weight": float},
        "WindowGraph": {"n": int, "max_lag": int},
        "DiscovererConfig": {"max_lag": int, "prune_threshold": float, "alpha": float},
        "VcdfConfig": {"k": int, "tau_c": float, "tau_v": float, "w": float, "epsilon": float},
        "ScmSpec": {"noise": str, "link": str, "trend_slope": float, "seed": int},
        "EdgeStability": {"cause": int, "effect": int, "lag": int, "r0": float, "folds": tuple[float, ...],
                          "c": float, "v": float, "kept": bool},
    }


@pytest.mark.parametrize("value", [1, 1.0, 0.5, True, np.int64(1), np.uint8(1), np.float32(0.5), "1", None],
                         ids=lambda v: f"{type(v).__name__}-{v!r}")
def test_require_edge_takes_the_kinds_of_the_edge_annotations(value):
    # require_edge spells its kinds out for speed; each field must still take exactly what
    # require_kind takes for that field's annotation, as that kind.
    for idx, (name, kind) in enumerate(series_module.field_kinds(Edge).items()):
        fields = [0, 1, 1, 0.5]
        fields[idx] = value
        try:
            expected = series_module.require_kind(name, value, kind)
        except ValueError:
            with pytest.raises(ValueError, match="must be integers and weight a number"):
                series_module.require_edge(fields)
        else:
            got = series_module.require_edge(fields)[idx]
            assert got == expected and type(got) is kind
