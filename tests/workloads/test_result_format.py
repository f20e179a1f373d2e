"""The columnar result format of one full-size proxy cell: compact to
pickle, integer steps, and an ``==`` that sees every bit of every
column."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.campaign import run_cell
from repro.scenario import load_suite
from repro.workloads import SYNC_DTYPE


@pytest.fixture(scope="module")
def cell():
    """The first cell of the first fig3a scenario: 400 synchronizations."""
    spec = next(iter(load_suite("fig3a")))
    result = run_cell(spec.to_cells()[0])
    assert len(result.syncs) == result.config.n_syncs == 400
    return result


def test_pickle_is_compact(cell):
    assert len(pickle.dumps(cell, protocol=pickle.HIGHEST_PROTOCOL)) < 50_000


def test_step_is_an_integer_column(cell):
    assert cell.syncs.dtype == SYNC_DTYPE
    steps = cell.syncs["step"]
    assert steps.dtype.kind == "i"
    assert steps.tolist() == list(range(1, cell.config.n_syncs + 1))


def test_pickle_round_trip_compares_equal(cell):
    assert pickle.loads(pickle.dumps(cell)) == cell
    assert dataclasses.replace(cell, syncs=cell.syncs.copy()) == cell


def test_one_ulp_in_any_entry_breaks_equality(cell):
    for name in SYNC_DTYPE.names:
        for i in range(len(cell.syncs)):
            syncs = cell.syncs.copy()
            column = syncs[name]
            if column.dtype.kind == "i":
                column[i] += 1
            else:
                column[i] = np.nextafter(column[i], np.inf)
            assert dataclasses.replace(cell, syncs=syncs) != cell, (name, i)
