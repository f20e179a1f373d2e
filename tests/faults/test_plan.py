"""Tests for fault plans: DSL/JSON parsing, sampling, serialization."""

import json

import pytest

from repro.faults import FaultEvent, FaultKind, FaultPlan, SAMPLED_KINDS


# ---------------------------------------------------------------- events
def test_event_window_half_open():
    ev = FaultEvent(FaultKind.SLOWDOWN, t_start=1.0, duration=2.0)
    assert not ev.active(0.999)
    assert ev.active(1.0)
    assert ev.active(2.999)
    assert not ev.active(3.0)  # t_end is exclusive


def test_event_rank_targeting():
    all_ranks = FaultEvent(FaultKind.MPI_DELAY, 0.0, 1.0, rank=None)
    one_rank = FaultEvent(FaultKind.SLOWDOWN, 0.0, 1.0, rank=3)
    assert all_ranks.hits(0) and all_ranks.hits(7) and all_ranks.hits(None)
    assert one_rank.hits(3)
    assert not one_rank.hits(2)
    # a caller with no rank identity matches all-rank faults only
    assert not one_rank.hits(None)


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CRASH, t_start=-0.1, duration=1.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CRASH, t_start=0.0, duration=0.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.SLOWDOWN, 0.0, 1.0, magnitude=0.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.MPI_DELAY, 0.0, 1.0, magnitude=-0.001)


# ------------------------------------------------------------------ DSL
def test_dsl_parses_full_clause():
    plan = FaultPlan.from_spec("slowdown@1.0+2.5x1.8:rank3;cap_drop@0.5+4.0")
    assert len(plan) == 2
    # events come back time-ordered regardless of clause order
    first, second = plan.events
    assert first.kind is FaultKind.CAP_DROP
    assert first.t_start == 0.5 and first.duration == 4.0
    assert second.kind is FaultKind.SLOWDOWN
    assert second.magnitude == pytest.approx(1.8)
    assert second.rank == 3


def test_dsl_all_rank_spellings():
    for spelling in ("all", "*"):
        plan = FaultPlan.from_spec(f"mpi_delay@0.0+1.0x0.002:{spelling}")
        assert plan.events[0].rank is None


def test_dsl_bare_rank_number():
    plan = FaultPlan.from_spec("meas_drop@0.1+0.5:2")
    assert plan.events[0].rank == 2


def test_dsl_malformed_clause_names_the_clause():
    with pytest.raises(ValueError, match="bogus"):
        FaultPlan.from_spec("bogus@1.0+2.0")
    with pytest.raises(ValueError, match="slowdown@nope"):
        FaultPlan.from_spec("slowdown@nope")


# ----------------------------------------------------------------- JSON
def test_json_dict_round_trip():
    plan = FaultPlan.from_spec("crash@0.3+0.2:rank1;cap_skew@0.1+1.0x-4.0")
    spec = {"events": [e.to_json() for e in plan.events], "seed": 9}
    again = FaultPlan.from_spec(spec)
    assert again.events == plan.events
    assert again.seed == 9


def test_json_and_jsonl_files(tmp_path):
    plan = FaultPlan.sample(3, n_ranks=4, horizon_s=5.0)
    jsonl = tmp_path / "plan.jsonl"
    jsonl.write_text(plan.to_jsonl())
    assert FaultPlan.from_spec(str(jsonl)).events == plan.events

    as_json = tmp_path / "plan.json"
    as_json.write_text(
        json.dumps({"events": [e.to_json() for e in plan.events]})
    )
    assert FaultPlan.from_spec(str(as_json)).events == plan.events


# ------------------------------------------------------------- sampling
def test_sample_same_seed_byte_identical():
    a = FaultPlan.sample(11, n_ranks=8, horizon_s=10.0)
    b = FaultPlan.sample(11, n_ranks=8, horizon_s=10.0)
    assert a.to_jsonl() == b.to_jsonl()
    assert a.fingerprint() == b.fingerprint()


def test_sample_different_seed_differs():
    a = FaultPlan.sample(11, n_ranks=8, horizon_s=10.0)
    b = FaultPlan.sample(12, n_ranks=8, horizon_s=10.0)
    assert a.to_jsonl() != b.to_jsonl()


def test_sample_kind_streams_independent():
    # each kind draws from its own child stream: restricting the kind
    # set must not shift another kind's draws
    full = FaultPlan.sample(5, n_ranks=4, horizon_s=8.0)
    only = FaultPlan.sample(
        5, n_ranks=4, horizon_s=8.0, kinds=(FaultKind.SLOWDOWN,)
    )
    assert only.events == tuple(
        e for e in full.events if e.kind is FaultKind.SLOWDOWN
    )


def test_sample_respects_kind_subset_and_bounds():
    plan = FaultPlan.sample(
        2,
        n_ranks=4,
        horizon_s=10.0,
        kinds=("crash", "meas_garble"),
        events_per_kind=3,
    )
    assert plan.kinds == ("crash", "meas_garble")
    assert len(plan) == 6
    for ev in plan.events:
        assert 0.0 <= ev.t_start < 10.0
        assert ev.duration > 0.0


def test_sample_covers_full_taxonomy_by_default():
    plan = FaultPlan.sample(0, n_ranks=2)
    assert set(plan.kinds) == {k.value for k in SAMPLED_KINDS}


def test_sample_validation():
    with pytest.raises(ValueError):
        FaultPlan.sample(0, n_ranks=0)
    with pytest.raises(ValueError):
        FaultPlan.sample(0, n_ranks=2, horizon_s=0.0)
    with pytest.raises(ValueError):
        FaultPlan.sample(0, n_ranks=2, events_per_kind=0)
