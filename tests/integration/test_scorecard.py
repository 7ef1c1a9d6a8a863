"""Every passing row of the EXPERIMENTS.md scorecard names the benchmark
test that regenerates it, and that test exists.

The ids are resolved by parsing the benchmark files with ``ast``; no
benchmark runs here.
"""

import ast
import os
import re

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..", "..")

#: A benchmark test id as the scorecard writes it.
TEST_ID = re.compile(r"`(benchmarks/[\w/]+\.py)::(\w+)`")


def scorecard_rows():
    """``(experiment, cells)`` of each passing scorecard row."""
    with open(os.path.join(ROOT, "EXPERIMENTS.md"), encoding="utf-8") as f:
        text = f.read()
    table = text.split("## Summary scorecard", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in table.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and any("✅" in c for c in cells):
            rows.append((cells[0], cells))
    return rows


def benchmark_tests(path):
    """Names of the module-level test functions of one benchmark file."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        tree = ast.parse(f.read(), filename=path)
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("test_")}


ROWS = scorecard_rows()


def test_scorecard_has_passing_rows():
    assert len(ROWS) >= 15


@pytest.mark.parametrize("experiment,cells", ROWS,
                         ids=[row[0] for row in ROWS])
def test_row_names_an_existing_benchmark_test(experiment, cells):
    ids = [m.groups() for cell in cells for m in TEST_ID.finditer(cell)]
    assert ids, f"{experiment}: no benchmarks/<file>.py::<test> id"
    for path, name in ids:
        assert os.path.isfile(os.path.join(ROOT, path)), path
        assert name in benchmark_tests(path), f"{path}::{name}"
