"""Tests for RDF, VACF and the MSD family, with analytic references."""

import numpy as np
import pytest

from repro.analysis import (
    Frame,
    FullMSD,
    MSD1D,
    MSD2D,
    MeanSquaredDisplacement,
    RadialDistribution,
    VelocityAutocorrelation,
    frame_from_system,
    make_analysis,
    molecule_centers,
)
from repro.md.system import MASSES, Species, water_ion_box
from repro.util.rng import RngStream


def ideal_gas_frame(n=4000, edge=10.0, seed=0, types_value=Species.O, step=0):
    rng = RngStream(seed)
    pos = rng.uniform(0.0, edge, size=(n, 3))
    vel = rng.normal(0.0, 1.0, size=(n, 3))
    return Frame(
        step=step,
        time=float(step),
        box_lengths=np.full(3, edge),
        positions=pos,
        velocities=vel,
        types=np.full(n, types_value),
        molecule_ids=np.arange(n),
    )


def ballistic_frame(v, t, n=100, edge=50.0, seed=1):
    rng = RngStream(seed)
    pos0 = rng.uniform(0.0, edge, size=(n, 3))
    vel = np.tile(np.asarray(v, dtype=float), (n, 1))
    return Frame(
        step=int(t),
        time=float(t),
        box_lengths=np.full(3, edge),
        positions=pos0 + vel * t,
        velocities=vel,
        types=np.full(n, Species.CAT),
        molecule_ids=np.arange(n),
    )


# ---------------------------------------------------------------- RDF
def test_rdf_of_ideal_gas_is_one():
    rdf = RadialDistribution(
        center_type=Species.O, target_type=Species.O, r_max=3.0, n_bins=30
    )
    for seed in range(3):
        rdf.update(ideal_gas_frame(seed=seed, step=seed))
    r, g = rdf.result()
    # skip the first bins (few counts, noisy)
    assert np.allclose(g[10:], 1.0, atol=0.12)


def test_rdf_excluded_volume_in_real_system():
    sys_ = water_ion_box(dim=1)
    rdf = RadialDistribution(center_type=Species.CAT, target_type=Species.O)
    rdf.update(frame_from_system(sys_, step=0, time=0.0))
    r, g = rdf.result()
    # hard core: no O within ~0.5 of an ion
    assert np.all(g[r < 0.4] < 0.05)
    assert g.max() > 0.5  # structure exists


def test_rdf_empty_selection():
    rdf = RadialDistribution(center_type=Species.AN, target_type=Species.O)
    frame = ideal_gas_frame(types_value=Species.O)
    rdf.update(frame)  # no anions present
    _, g = rdf.result()
    assert np.allclose(g, 0.0)


def test_rdf_invalid_params():
    with pytest.raises(ValueError):
        RadialDistribution(r_max=-1.0)


# ---------------------------------------------------------------- VACF
def test_vacf_starts_at_one():
    vacf = VelocityAutocorrelation()
    vacf.update(ideal_gas_frame(seed=3))
    t, c = vacf.result()
    assert c[0] == pytest.approx(1.0)


def test_vacf_constant_velocities_stay_one():
    vacf = VelocityAutocorrelation()
    for t in range(4):
        vacf.update(ballistic_frame([1.0, 0.5, 0.0], t))
    _, c = vacf.result()
    assert np.allclose(c, 1.0)


def test_vacf_reversed_velocities_give_minus_one():
    f0 = ideal_gas_frame(seed=4, step=0)
    vacf = VelocityAutocorrelation()
    vacf.update(f0)
    f1 = Frame(
        step=1,
        time=1.0,
        box_lengths=f0.box_lengths,
        positions=f0.positions,
        velocities=-f0.velocities,
        types=f0.types,
        molecule_ids=f0.molecule_ids,
    )
    vacf.update(f1)
    _, c = vacf.result()
    assert c[1] == pytest.approx(-1.0)


def test_vacf_decorrelates_random_velocities():
    vacf = VelocityAutocorrelation()
    vacf.update(ideal_gas_frame(seed=5, step=0))
    vacf.update(ideal_gas_frame(seed=6, step=1))  # fresh random velocities
    _, c = vacf.result()
    assert abs(c[1]) < 0.1


# ---------------------------------------------------------------- MSD
def test_msd_ballistic_motion_quadratic():
    msd = MeanSquaredDisplacement()
    v = np.array([1.0, 0.0, 0.0])
    for t in range(5):
        msd.update(ballistic_frame(v, t))
    times, series = msd.result()
    assert np.allclose(series, (times * 1.0) ** 2)


def test_msd_zero_at_origin_frame():
    msd = MeanSquaredDisplacement()
    msd.update(ideal_gas_frame(seed=7))
    _, series = msd.result()
    assert series[0] == pytest.approx(0.0)


def test_msd1d_uniform_motion_same_in_all_bins():
    msd1d = MSD1D(n_bins=5)
    v = np.array([0.5, 0.5, 0.0])
    for t in range(4):
        msd1d.update(ballistic_frame(v, t, n=500))
    per_bin = msd1d.result()
    assert per_bin.shape == (5,)
    assert np.allclose(per_bin, per_bin[0], rtol=1e-9)


def test_msd2d_shape_and_uniformity():
    msd2d = MSD2D(n_bins=4)
    v = np.array([0.3, 0.0, 0.1])
    for t in range(3):
        msd2d.update(ballistic_frame(v, t, n=800))
    grid = msd2d.result()
    assert grid.shape == (4, 4)
    assert np.allclose(grid, grid[0, 0], rtol=1e-9)


def test_msd1d_bins_differ_for_spatially_varying_motion():
    """Molecules in the +x half move, the -x half stand still."""
    n, edge = 400, 20.0
    rng = RngStream(9)
    pos0 = rng.uniform(0.0, edge, size=(n, 3))
    moving = pos0[:, 0] > edge / 2

    def frame_at(t):
        pos = pos0.copy()
        pos[moving] += np.array([1.0, 0.0, 0.0]) * t
        return Frame(
            step=t,
            time=float(t),
            box_lengths=np.full(3, edge),
            positions=pos,
            velocities=np.zeros((n, 3)),
            types=np.full(n, Species.CAT),
            molecule_ids=np.arange(n),
        )

    msd1d = MSD1D(n_bins=2)
    for t in range(3):
        msd1d.update(frame_at(t))
    per_bin = msd1d.result()
    assert per_bin[1] > per_bin[0] * 10


def test_full_msd_composite():
    full = FullMSD()
    v = np.array([1.0, 0.0, 0.0])
    for t in range(4):
        full.update(ballistic_frame(v, t))
    res = full.result()
    assert np.allclose(res["molecule_msd"], res["times"] ** 2)
    assert np.allclose(res["atom_msd"], res["times"] ** 2)
    assert res["msd1d"].shape == (10,)
    assert res["msd2d"].shape == (8, 8)


def test_full_msd_work_exceeds_components():
    full = FullMSD()
    frame = ballistic_frame([1.0, 0.0, 0.0], 0)
    full.update(frame)
    solo = MSD1D()
    solo.update(ballistic_frame([1.0, 0.0, 0.0], 0))
    assert full.work_estimate > solo.work_estimate


def test_molecule_count_change_rejected():
    msd = MeanSquaredDisplacement()
    msd.update(ideal_gas_frame(n=100, seed=10))
    with pytest.raises(ValueError):
        msd.update(ideal_gas_frame(n=101, seed=11))


# ---------------------------------------------------------------- misc
def test_molecule_centers_water():
    sys_ = water_ion_box(dim=1)
    frame = frame_from_system(sys_, 0, 0.0)
    mols, com_pos, com_vel = molecule_centers(frame, MASSES[frame.types])
    assert len(mols) == 512 + 32
    assert com_pos.shape == (len(mols), 3)


def test_molecule_centers_keep_monoatomic_atoms_apart():
    """Two -1 (monoatomic) ions are two molecules, not one at their
    midpoint; a bonded pair still shares one center."""
    pos = np.array([[1.0, 0, 0], [5.0, 0, 0], [2.0, 0, 0], [4.0, 0, 0]])
    frame = Frame(
        step=0,
        time=0.0,
        box_lengths=np.full(3, 10.0),
        positions=pos,
        velocities=pos * 0.5,
        types=np.full(4, Species.O),
        molecule_ids=np.array([-1, -1, 3, 3]),
    )
    mols, com_pos, com_vel = molecule_centers(frame, np.ones(4))
    np.testing.assert_array_equal(mols, [-1, -1, 3])
    np.testing.assert_array_equal(com_pos[:, 0], [1.0, 5.0, 3.0])
    np.testing.assert_array_equal(com_vel[:, 0], [0.5, 2.5, 1.5])


def test_registry_constructs_all():
    for name in ("rdf", "vacf", "msd", "msd1d", "msd2d", "full_msd"):
        a = make_analysis(name)
        assert a.name == name


def test_registry_unknown_name():
    with pytest.raises(ValueError):
        make_analysis("bogus")


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(
            step=0,
            time=0.0,
            box_lengths=np.full(3, 5.0),
            positions=np.zeros((3, 3)),
            velocities=np.zeros((2, 3)),
            types=np.zeros(3, dtype=int),
            molecule_ids=np.zeros(3, dtype=int),
        )
