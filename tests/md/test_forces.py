"""Tests for the force field: conservation laws and analytic checks."""

import numpy as np
import pytest

from repro.md.box import Box
from repro.md.forces import ForceField
from repro.md.neighbor import build_neighbor_list
from repro.md.system import ParticleSystem, Species, water_ion_box


def two_atom_system(r, types=(Species.CAT, Species.AN), edge=20.0, mol_ids=(0, 1)):
    pos = np.array([[5.0, 5.0, 5.0], [5.0 + r, 5.0, 5.0]])
    return ParticleSystem(
        box=Box.cubic(edge),
        positions=pos,
        velocities=np.zeros((2, 3)),
        types=np.array(types),
        molecule_ids=np.array(mol_ids),
        bonds=np.zeros((0, 2), dtype=np.int64),
    )


def compute(system, ff=None):
    ff = ff if ff is not None else ForceField()
    nl = build_neighbor_list(system.positions, system.box, ff.cutoff)
    return ff.compute(system, nl), ff


def test_newton_third_law_pair():
    sys_ = two_atom_system(1.1)
    res, _ = compute(sys_)
    assert np.allclose(res.forces[0], -res.forces[1])


def test_total_force_zero_full_system():
    sys_ = water_ion_box(dim=1)
    res, _ = compute(sys_)
    assert np.allclose(res.forces.sum(axis=0), 0.0, atol=1e-8)


def test_monoatomic_ions_interact_with_each_other():
    # -1 is "monoatomic", not a shared molecule: two such ions feel the
    # same LJ + Coulomb pair force as two ions with distinct ids
    mono, _ = compute(two_atom_system(1.1, mol_ids=(-1, -1)))
    distinct, _ = compute(two_atom_system(1.1))
    assert mono.pair_count == distinct.pair_count == 1
    assert mono.potential_energy == distinct.potential_energy != 0.0
    np.testing.assert_array_equal(mono.forces, distinct.forces)
    # a real shared molecule id still excludes the pair
    same, _ = compute(two_atom_system(1.1, mol_ids=(3, 3)))
    assert same.pair_count == 0 and same.potential_energy == 0.0


def test_lj_repulsive_at_short_range():
    sys_ = two_atom_system(0.8, types=(Species.O, Species.O))
    # make both atoms separate molecules so the pair term applies
    res, _ = compute(sys_)
    # force on atom 0 points away from atom 1 (negative x)
    assert res.forces[0, 0] < 0


def test_lj_attractive_near_minimum():
    # LJ minimum at 2^(1/6) sigma ~ 1.12; beyond it attraction.
    # Use neutral-ish same-species pair: CAT-CAT has charge +1*+1
    # repulsion, so test with O-O (charge -0.8 each -> repulsive
    # coulomb) at large r where LJ dominates is messy; instead compare
    # energies to confirm a minimum exists for the pair potential.
    ff = ForceField(coulomb_strength=0.0)
    rs = np.linspace(0.95, 2.4, 60)
    energies = []
    for r in rs:
        sys_ = two_atom_system(r, types=(Species.O, Species.O))
        res, _ = compute(sys_, ff)
        energies.append(res.potential_energy)
    energies = np.asarray(energies)
    i_min = int(np.argmin(energies))
    assert 0 < i_min < len(rs) - 1  # interior minimum
    assert rs[i_min] == pytest.approx(2 ** (1 / 6), abs=0.1)


def test_energy_shift_continuous_at_cutoff():
    ff = ForceField(coulomb_strength=0.0)
    just_in = two_atom_system(ff.cutoff - 1e-4, types=(Species.O, Species.O))
    res, _ = compute(just_in, ff)
    assert abs(res.potential_energy) < 1e-2  # shifted to ~0 at cutoff


def test_opposite_charges_attract():
    ff = ForceField()
    # at r ~ 1.6 (beyond LJ minimum for sig~1) coulomb dominates signs
    cat_an = two_atom_system(1.6, types=(Species.CAT, Species.AN))
    res_ca, _ = compute(cat_an, ff)
    cat_cat = two_atom_system(1.6, types=(Species.CAT, Species.CAT))
    res_cc, _ = compute(cat_cat, ff)
    # unlike pair binds more strongly than like pair
    assert res_ca.potential_energy < res_cc.potential_energy


def test_force_is_minus_energy_gradient():
    """Numerical gradient check of the pair potential."""
    ff = ForceField()
    h = 1e-6
    r = 1.4
    e_plus, _ = compute(two_atom_system(r + h, types=(Species.CAT, Species.AN)), ff)
    e_minus, _ = compute(two_atom_system(r - h, types=(Species.CAT, Species.AN)), ff)
    dE_dr = (e_plus.potential_energy - e_minus.potential_energy) / (2 * h)
    res, _ = compute(two_atom_system(r, types=(Species.CAT, Species.AN)), ff)
    f_x_atom1 = res.forces[1, 0]  # atom 1 sits at +x
    assert f_x_atom1 == pytest.approx(-dE_dr, rel=1e-4)


def test_bond_force_restoring():
    pos = np.array([[5.0, 5.0, 5.0], [5.5, 5.0, 5.0]])  # stretched O-H
    sys_ = ParticleSystem(
        box=Box.cubic(20.0),
        positions=pos,
        velocities=np.zeros((2, 3)),
        types=np.array([Species.O, Species.H]),
        molecule_ids=np.array([0, 0]),
        bonds=np.array([[0, 1]]),
    )
    res, ff = compute(sys_)
    # stretched beyond r0=0.32: H pulled back toward O (negative x)
    assert res.forces[1, 0] < 0
    assert res.bond_count == 1


def test_same_molecule_pairs_excluded():
    pos = np.array([[5.0, 5.0, 5.0], [5.3, 5.0, 5.0]])
    sys_ = ParticleSystem(
        box=Box.cubic(20.0),
        positions=pos,
        velocities=np.zeros((2, 3)),
        types=np.array([Species.O, Species.H]),
        molecule_ids=np.array([0, 0]),  # same molecule
        bonds=np.zeros((0, 2), dtype=np.int64),
    )
    res, _ = compute(sys_)
    assert res.pair_count == 0


def test_pair_count_reported():
    sys_ = water_ion_box(dim=1)
    res, _ = compute(sys_)
    assert res.pair_count > 0
    assert res.bond_count == 1024
