"""analytic.json is rendered by hand; its bytes must be json_text's.

``cli.analytic_json`` writes the file without building its payload.  The
oracle is that payload, built as Python lists and dicts
(``oracles.reference_analytic_payload``), passed through ``json_text``.
The properties run on random ``AnalyticMatrices``: ties within and beyond
the tolerance, one class and many, signed zeros, subnormal and huge
floats, NaN and infinities, names that JSON must escape, and blocks of
every size.
"""

import json
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_analytic_payload
from tasksim import cli, grid_distribution, xor
from tasksim.similarity import AnalyticMatrices, analytic_matrix

EDGE_FLOATS = [0.0, -0.0, 1.0, 5e-324, 1e308, 0.1, 1 / 3, 0.25 + 1e-10]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
NON_FINITE = st.one_of(FINITE, st.sampled_from([float("nan"), float("inf"), float("-inf")]))
NAMES = st.lists(st.sampled_from(['"', "\\", "</", "é", "名", "😀", "x", " ", "\n", "\x00"]),
                 max_size=5).map("".join)


def matrix(draw, values, shape):
    """A (rows, cols) array drawn from a pool of one to four values, so
    rows tie often: a pool of one value ties every entry of every row."""
    pool = np.array(draw(st.lists(values, min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return pool[rng.integers(len(pool), size=shape)]


@st.composite
def analytic_results(draw, values=FINITE):
    m = draw(st.integers(1, 3))
    names = tuple(draw(st.lists(NAMES, min_size=m, max_size=m)))
    cells = draw(st.lists(st.integers(1, 5), min_size=m, max_size=m))
    classes = draw(st.lists(st.sampled_from([1, 2, 3, 40]), min_size=m, max_size=m))
    masses = tuple(tuple(matrix(draw, values, (cells[j], classes[i])) for j in range(m))
                   for i in range(m))
    ts, ats, excluded = (matrix(draw, values, (m, m)) for _ in range(3))
    return AnalyticMatrices(names, ts, ats, excluded, masses)


def written(result, tie_tol):
    """The writer's text and the oracle's, with numpy quiet about the
    overflow and NaN arithmetic that sums and tie tests meet."""
    with np.errstate(all="ignore"):
        return ("".join(cli.analytic_json(result, tie_tol)),
                cli.json_text(reference_analytic_payload(result, tie_tol)))


@settings(max_examples=150, deadline=None)
@given(analytic_results(), st.sampled_from([0.0, 1e-9, 0.25]), st.sampled_from([1, 7, 1 << 16]))
def test_writer_matches_json_dumps_of_the_payload(result, tie_tol, block):
    with mock.patch.object(cli, "_BLOCK_VALUES", block):
        text, expected = written(result, tie_tol)
    assert text == expected


@settings(max_examples=60, deadline=None)
@given(analytic_results(NON_FINITE), st.sampled_from([0.0, 1e-9]))
def test_non_finite_values_are_spelled_as_json_spells_them(result, tie_tol):
    text, expected = written(result, tie_tol)
    assert text == expected
    json.loads(text)  # json reads NaN and Infinity, but not repr's nan and inf


def test_edge_floats_and_escaped_names():
    masses = np.array([EDGE_FLOATS[:4], EDGE_FLOATS[4:], [0.0] * 4, [float("inf"), 0, 0, 0]])
    names = ('a "quoted" \\ name', "</script> é 名")
    result = AnalyticMatrices(names, np.eye(2), np.eye(2), np.zeros((2, 2)),
                              ((masses, masses[:2]), (masses[2:], masses)))
    text, expected = written(result, 1e-9)
    assert text == expected
    assert '"</script> \\u00e9 \\u540d"' in text
    assert "Infinity" in text and "inf," not in text and "5e-324" in text and "1e+308" in text


def test_a_block_of_rows_is_rendered_at_a_time():
    result = analytic_matrix([grid_distribution(4), xor()])
    with mock.patch.object(cli, "_BLOCK_VALUES", 1):
        chunks = list(cli.analytic_json(result, 1e-9))
    assert max(c.count('"source_cell"') for c in chunks) == 1
    assert "".join(chunks) == cli.json_text(reference_analytic_payload(result, 1e-9))


def test_csv_only_run_renders_no_json(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("analytic.json rendered without json in --format")

    monkeypatch.setattr(cli, "analytic_json", refuse)
    out = tmp_path / "csv"
    assert cli.main(["analytic-matrix", "--dists", "xor", "grid(3)", "--format", "csv",
                     "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "ats.csv", "ats.csv.meta.json", "ts.csv", "ts.csv.meta.json"]
    # The same run with json does call the writer: main reports its failure.
    assert cli.main(["analytic-matrix", "--dists", "xor", "--format", "json",
                     "--out-dir", str(tmp_path / "json")]) == 1
