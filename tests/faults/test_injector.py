"""Tests for the injector: window queries and exact-time marker firing."""

import pytest

from repro.des.engine import Engine
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    NULL_FAULTS,
    get_faults,
    use_faults,
)


def plan_of(spec: str) -> FaultPlan:
    return FaultPlan.from_spec(spec)


# ---------------------------------------------------------------- queries
def test_slowdown_factor_is_product_of_active_windows():
    inj = FaultInjector(
        plan_of("slowdown@1.0+2.0x2.0:rank0;slowdown@1.5+2.0x1.5:rank0")
    )
    assert inj.slowdown_factor(0.5, 0) == 1.0
    assert inj.slowdown_factor(1.2, 0) == pytest.approx(2.0)
    assert inj.slowdown_factor(2.0, 0) == pytest.approx(3.0)
    assert inj.slowdown_factor(2.0, 1) == 1.0  # other rank untouched


def test_outage_extra_is_remaining_window():
    inj = FaultInjector(plan_of("crash@1.0+0.5:rank2"))
    assert inj.outage_extra(0.9, 2) == 0.0
    assert inj.outage_extra(1.1, 2) == pytest.approx(0.4)
    assert inj.outage_extra(1.5, 2) == 0.0
    assert inj.outage_extra(1.1, 0) == 0.0


def test_actuation_combines_drop_lag_skew():
    inj = FaultInjector(
        plan_of("cap_drop@1.0+1.0;cap_lag@1.0+1.0x0.05;cap_skew@1.0+1.0x-6.0")
    )
    assert inj.actuation(0.5) is None
    fault = inj.actuation(1.5)
    assert fault.dropped
    assert fault.extra_delay_s == pytest.approx(0.05)
    assert fault.offset_w == pytest.approx(-6.0)


def test_measurement_priority_drop_over_stale_over_garble():
    inj = FaultInjector(
        plan_of(
            "meas_garble@1.0+3.0x0.5:rank0;"
            "meas_stale@1.0+2.0:rank0;"
            "meas_drop@1.0+1.0:rank0"
        )
    )
    assert inj.measurement(1.5, 0)[0] == "meas_drop"
    assert inj.measurement(2.5, 0)[0] == "meas_stale"
    kind, magnitude = inj.measurement(3.5, 0)
    assert kind == "meas_garble" and magnitude == pytest.approx(0.5)
    assert inj.measurement(4.5, 0) is None
    assert inj.measurement(1.5, 1) is None


def test_comm_delay_sums_active_windows():
    inj = FaultInjector(
        plan_of("mpi_delay@0.0+2.0x0.002;mpi_delay@1.0+2.0x0.003")
    )
    assert inj.comm_delay(0.5) == pytest.approx(0.002)
    assert inj.comm_delay(1.5) == pytest.approx(0.005)
    assert inj.comm_delay(3.5) == 0.0


# ------------------------------------------------------- engine markers
def test_markers_fire_on_clock_advance_in_order():
    inj = FaultInjector(plan_of("slowdown@1.0+1.0x2.0:rank0"))
    with use_faults(inj):
        eng = Engine()
        for t in (0.5, 1.2, 2.5):
            eng.schedule(t, lambda: None)
        eng.run()
    assert [(r["t"], r["phase"]) for r in inj.event_log] == [
        (1.0, "start"),
        (2.0, "end"),
    ]
    assert inj.event_log[0]["kind"] == "slowdown"
    assert inj.event_log[0]["rank"] == 0


def test_marker_past_last_event_never_fires():
    # nothing in the simulation could observe a window opening after
    # the final event, so its markers must not fire (and must not move
    # the virtual end time)
    inj = FaultInjector(plan_of("crash@5.0+1.0:rank0"))
    with use_faults(inj):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.run()
    assert eng.now == 1.0
    assert inj.event_log == []


def test_bind_engine_resets_cursor_between_runs():
    inj = FaultInjector(plan_of("slowdown@0.5+0.2x2.0:rank0"))
    with use_faults(inj):
        for _ in range(2):
            eng = Engine()
            eng.schedule(1.0, lambda: None)
            eng.run()
    phases = [r["phase"] for r in inj.event_log]
    assert phases == ["start", "end", "start", "end"]


def test_log_since_scopes_rows_per_run():
    inj = FaultInjector(plan_of("slowdown@0.5+0.2x2.0:rank0"))
    with use_faults(inj):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        mark = inj.log_mark()
        eng.run()
    rows = inj.log_since(mark)
    assert len(rows) == 2
    rows[0]["t"] = -1.0  # copies: mutating a row leaves the log intact
    assert inj.event_log[0]["t"] == 0.5


# ------------------------------------------------------------- ambient
def test_ambient_default_is_inert_null():
    assert get_faults() is NULL_FAULTS
    assert not NULL_FAULTS.enabled
    assert not NULL_FAULTS.active
    NULL_FAULTS.on_advance(1.0)  # no-op, no state
    assert NULL_FAULTS.event_log == []


def test_use_faults_scopes_and_restores():
    inj = FaultInjector(FaultPlan())
    with use_faults(inj):
        assert get_faults() is inj
        assert inj.enabled and not inj.active  # empty plan: inert
    assert get_faults() is NULL_FAULTS
