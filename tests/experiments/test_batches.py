"""Each experiment submits all of its cells as one engine batch, so a
static baseline that several scenarios share is executed once."""

import pytest

from repro.campaign import CampaignEngine, RunJournal, cell_key, use_engine
from repro.experiments import run_fig3a, run_fig6, run_summary, run_table2


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (run_fig3a, dict(n_runs=1, n_verlet_steps=20)),
        (run_fig6, dict(n_runs=1, n_verlet_steps=40)),
        (run_table2, dict(n_runs=1, n_verlet_steps=20)),
        (run_summary, dict(n_runs=1, n_verlet_steps=20)),
    ],
    ids=["fig3a", "fig6", "table2", "summary"],
)
def test_one_batch_and_no_recomputation(monkeypatch, run, kwargs):
    batches = []
    run_cells = CampaignEngine.run_cells

    def spy(self, specs):
        batches.append(list(specs))
        return run_cells(self, batches[-1])

    monkeypatch.setattr(CampaignEngine, "run_cells", spy)
    journal = RunJournal()
    with use_engine(CampaignEngine(journal=journal)):
        run(**kwargs)

    assert len(batches) == 1
    keys = [cell_key(cell) for cell in batches[0]]
    unique = len(set(keys))
    assert unique < len(keys)  # the batch does share baselines
    assert journal.counts["misses"] == unique
    assert journal.counts["dups"] == len(keys) - unique
