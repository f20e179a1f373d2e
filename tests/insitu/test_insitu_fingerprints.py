"""Pinned whole-result digests of ``run_insitu``.

Each case hashes everything a call returns: virtual time, DES events,
thermo rows, the analysis-result bytes, the allocation and observation
logs and the fault-marker rows, over every paper controller, a clean
and a sampled-fault run, 1/2/4 ranks per partition, j = 1 and 2, plus
one dim-2 job. The digests were captured from the lazy shared-replica
coupler, in which the first rank to ask advanced the one live
integrator inside the DES. The physics is now computed once per
physics key before the DES starts and replayed, so every case runs
twice, once on a cleared trajectory memo (computed) and once warm
(replayed), and both must match the pinned digest bit for bit.

A change here means an in-situ result moved: refresh only with a
deliberate, documented behavior change.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.cluster.node import THETA_NODE
from repro.core import (
    PowerAwareController,
    SeeSAwController,
    StaticController,
    TimeAwareController,
)
from repro.faults import FaultInjector, FaultPlan, use_faults
from repro.insitu import InsituConfig, run_insitu
from repro.insitu.replica import trajectory

CONTROLLERS = {
    "static": StaticController,
    "seesaw": SeeSAwController,
    "power-aware": PowerAwareController,
    "time-aware": TimeAwareController,
}

#: fault-plan seed of the faulted cases
PLAN_SEED = 3


def _flatten(value, out: list) -> None:
    """Exact bit patterns of a nested result, in a fixed order."""
    if isinstance(value, np.ndarray):
        out += [value.dtype.str, value.shape, value.tobytes()]
    elif dataclasses.is_dataclass(value):
        out.append(type(value).__name__)
        for field in dataclasses.fields(value):
            out.append(field.name)
            _flatten(getattr(value, field.name), out)
    elif isinstance(value, dict):
        for key, item in value.items():
            out.append(key)
            _flatten(item, out)
    elif isinstance(value, (list, tuple)):
        out.append(len(value))
        for item in value:
            _flatten(item, out)
    elif isinstance(value, float):
        out.append(value.hex())
    else:
        out.append(repr(value))


def result_digest(result) -> str:
    """SHA-256 over one call's whole result (see the module docstring)."""
    values: list = []
    _flatten(
        [
            result.virtual_time_s,
            result.events_executed,
            result.verification_failures,
            result.thermo.records,
            result.analysis_results,
            result.allocation_log,
            result.observation_log,
            result.fault_events,
        ],
        values,
    )
    h = hashlib.sha256()
    for v in values:
        h.update(v if isinstance(v, bytes) else str(v).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def make_config(ranks: int, j: int, dim: int = 1, **kw) -> InsituConfig:
    return InsituConfig(
        n_sim_ranks=ranks,
        n_ana_ranks=ranks,
        dim=dim,
        n_verlet_steps=4,
        j=j,
        seed=11,
        **kw,
    )


def run_case(kind: str, cfg: InsituConfig, faulted: bool, cold: bool = False):
    """One call; a faulted case samples every fault kind over the clean
    run's horizon, as the chaos matrix does. ``cold`` empties the
    trajectory memo right before the pinned call."""

    def call():
        controller = CONTROLLERS[kind](
            cfg.world_size * cfg.power_cap_w,
            cfg.n_sim_ranks,
            cfg.n_ana_ranks,
            THETA_NODE,
        )
        return run_insitu(cfg, controller)

    plan = None
    if faulted:
        horizon = call().virtual_time_s
        plan = FaultPlan.sample(PLAN_SEED, cfg.world_size, horizon_s=horizon)
    if cold:
        trajectory.cache_clear()
    if plan is None:
        return call()
    with use_faults(FaultInjector(plan)):
        return call()


CASES = [
    (kind, ranks, j, faulted)
    for kind in CONTROLLERS
    for faulted in (False, True)
    for ranks in (1, 2, 4)
    for j in (1, 2)
]

# Captured from the lazy shared-replica coupler (see the module docstring).
EXPECTED = {
    "static-clean-r1-j1": "ed8e23689285b302",
    "static-clean-r1-j2": "f1f735861e3e11ed",
    "static-clean-r2-j1": "159e55b80ed211ae",
    "static-clean-r2-j2": "4a1aacf39fb96797",
    "static-clean-r4-j1": "7ba1f7973f7fbb0a",
    "static-clean-r4-j2": "f4939dedde3a8bb0",
    "static-faulted-r1-j1": "ac0cdf664abc8449",
    "static-faulted-r1-j2": "8211d018f184a022",
    "static-faulted-r2-j1": "4a4c7ecaa1c1a4ca",
    "static-faulted-r2-j2": "40eb932fa68f50be",
    "static-faulted-r4-j1": "fc10630676b3f372",
    "static-faulted-r4-j2": "40067f7994a9e01a",
    "seesaw-clean-r1-j1": "ba74ae6890331f5a",
    "seesaw-clean-r1-j2": "c1780075292da771",
    "seesaw-clean-r2-j1": "0489f5d2e228e64b",
    "seesaw-clean-r2-j2": "df1599df4afd5ff8",
    "seesaw-clean-r4-j1": "5c3d090454bc7b3c",
    "seesaw-clean-r4-j2": "38ead3fa9efc8372",
    "seesaw-faulted-r1-j1": "8956a703f2247c7f",
    "seesaw-faulted-r1-j2": "94e09a26fe1daab8",
    "seesaw-faulted-r2-j1": "8bb51445f8e3dd2d",
    "seesaw-faulted-r2-j2": "a4907acca252a264",
    "seesaw-faulted-r4-j1": "65a85251f78de361",
    "seesaw-faulted-r4-j2": "1f3d1cc889df202c",
    "power-aware-clean-r1-j1": "687bd56edf4e2177",
    "power-aware-clean-r1-j2": "14dbee37f9a3e0cb",
    "power-aware-clean-r2-j1": "7ea49928cedf94b6",
    "power-aware-clean-r2-j2": "c01a1ea045d080d5",
    "power-aware-clean-r4-j1": "860335ccbbd4a365",
    "power-aware-clean-r4-j2": "a786bdee3f869b5f",
    "power-aware-faulted-r1-j1": "bc75288947abfd38",
    "power-aware-faulted-r1-j2": "33d18959a3e6244b",
    "power-aware-faulted-r2-j1": "a488f27dcafbad95",
    "power-aware-faulted-r2-j2": "d8614e27596e5a11",
    "power-aware-faulted-r4-j1": "62c8056841d4ccf7",
    "power-aware-faulted-r4-j2": "8d140098c8a0810f",
    "time-aware-clean-r1-j1": "58cb7009fc34b6c3",
    "time-aware-clean-r1-j2": "575adb03118c6165",
    "time-aware-clean-r2-j1": "9104e5c71855fe75",
    "time-aware-clean-r2-j2": "9053e8322dbebbf0",
    "time-aware-clean-r4-j1": "01a3cbef4284a152",
    "time-aware-clean-r4-j2": "a03ac4e21edf77a8",
    "time-aware-faulted-r1-j1": "2125e0d78ee99a50",
    "time-aware-faulted-r1-j2": "d8ee2c7803062cd8",
    "time-aware-faulted-r2-j1": "7b15e7071ffeb960",
    "time-aware-faulted-r2-j2": "40aeccb4d9607613",
    "time-aware-faulted-r4-j1": "ebb22bab6b077c39",
    "time-aware-faulted-r4-j2": "7580641215621124",
}
EXPECTED_DIM2 = "c1c19b1c190cc763"
EXPECTED_DUMP_SHA256 = (
    "d35ee4818f87eb7b5607ed1f3aa0e79c78c183a8f5d77448236405b974bcecd3"
)


def _case_id(case) -> str:
    kind, ranks, j, faulted = case
    return f"{kind}-{'faulted' if faulted else 'clean'}-r{ranks}-j{j}"


def _cold_then_warm(kind: str, cfg: InsituConfig, faulted: bool) -> list[str]:
    cold = result_digest(run_case(kind, cfg, faulted, cold=True))
    warm = result_digest(run_case(kind, cfg, faulted))
    return [cold, warm]


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_run_insitu_digest_pinned(case):
    kind, ranks, j, faulted = case
    digests = _cold_then_warm(kind, make_config(ranks, j), faulted)
    assert digests == [EXPECTED[_case_id(case)]] * 2


def test_dim2_digest_pinned():
    digests = _cold_then_warm("seesaw", make_config(2, 2, dim=2), True)
    assert digests == [EXPECTED_DIM2] * 2


def test_dump_bytes_pinned(tmp_path):
    """A dump call computes its own trajectory; the file and the result
    match the parent's, whether or not the memo holds the key."""
    for warm in (False, True):
        path = tmp_path / f"dump-{warm}.lammpstrj"
        trajectory.cache_clear()
        if warm:
            run_case("seesaw", make_config(2, 2), False)
        result = run_case("seesaw", make_config(2, 2, dump_path=str(path)), False)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPECTED_DUMP_SHA256
        # the dump call's result is the plain call's result
        assert result_digest(result) == EXPECTED["seesaw-clean-r2-j2"]
