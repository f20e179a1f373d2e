"""Tests for the force field: conservation laws, analytic checks and
bit-identity of the columnar pair kernel with the row-wise one."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import Box
from repro.md.forces import ForceField
from repro.md.neighbor import NeighborList, build_neighbor_list
from repro.md.system import CHARGES, ParticleSystem, Species, water_ion_box
from repro.md.verlet import VelocityVerlet


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


# ----------------------------------------------------------------------
# the columnar pair kernel against the row-wise kernel it replaced


def rowwise_pair_forces(ff, system, nlist):
    """The row-wise ``(pairs, 3)`` pair kernel, frozen as the reference
    the columnar ``ForceField._pair_forces`` must match bit for bit."""
    pos = system.positions
    box = system.box
    pairs = nlist.pairs
    if len(pairs) == 0:
        return np.zeros_like(pos), 0.0, 0
    i, j = pairs[:, 0], pairs[:, 1]
    dr = box.minimum_image(pos[i] - pos[j])
    r2 = (dr**2).sum(axis=1)
    within = r2 <= ff.cutoff**2
    mol_i = system.molecule_ids[i]
    same_mol = (mol_i == system.molecule_ids[j]) & (mol_i >= 0)
    keep = within & ~same_mol
    i, j, dr, r2 = i[keep], j[keep], dr[keep], r2[keep]
    if len(i) == 0:
        return np.zeros_like(pos), 0.0, 0
    r = np.sqrt(r2)

    ti, tj = system.types[i], system.types[j]
    eps = ff.eps_pair[ti, tj]
    sig = ff.sig_pair[ti, tj]
    sr6 = (sig**2 / r2) ** 3
    sr12 = sr6**2
    sr6_c = (sig / ff.cutoff) ** 6
    e_lj = 4.0 * eps * (sr12 - sr6) - 4.0 * eps * (sr6_c**2 - sr6_c)
    f_lj_over_r = 24.0 * eps * (2.0 * sr12 - sr6) / r2

    qq = ff.coulomb_strength * CHARGES[ti] * CHARGES[tj]
    screen = np.exp(-ff.kappa * r)
    e_coul = qq * screen / r
    f_coul_over_r = qq * screen * (1.0 + ff.kappa * r) / (r2 * r)

    f_over_r = f_lj_over_r + f_coul_over_r
    fvec = f_over_r[:, None] * dr
    # the two add.at passes scatter_add_pairs reproduces bit for bit
    forces = np.zeros_like(pos)
    np.add.at(forces, i, fvec)
    np.add.at(forces, j, -fvec)
    return forces, float(np.sum(e_lj + e_coul)), len(i)


def assert_same_as_reference(ff, system, nlist):
    forces, energy, count = ff._pair_forces(system, nlist)
    ref_forces, ref_energy, ref_count = rowwise_pair_forces(ff, system, nlist)
    assert np.array_equal(forces, ref_forces)
    assert energy == ref_energy
    assert count == ref_count
    return count


def random_system(seed, n, edge, n_molecules):
    """``n`` atoms of random types in a periodic box; molecule ids are
    drawn from ``-1`` (monoatomic) and ``0 .. n_molecules - 1``."""
    rng = np.random.default_rng(seed)
    return ParticleSystem(
        box=Box(edge * rng.uniform(0.8, 1.2, 3)),
        positions=rng.uniform(0.0, edge * 0.8, (n, 3)),
        velocities=np.zeros((n, 3)),
        types=rng.integers(0, Species.COUNT, n),
        molecule_ids=rng.integers(-1, n_molecules, n),
        bonds=np.zeros((0, 2), dtype=np.int64),
    )


systems = st.builds(
    random_system,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    edge=st.floats(3.0, 9.0),
    n_molecules=st.integers(0, 8),
)


@given(
    system=systems,
    cutoff=st.floats(0.8, 2.5),
    skin=st.floats(0.0, 1.5),
)
@settings(max_examples=150, deadline=None)
def test_columnar_pair_kernel_matches_rowwise(system, cutoff, skin):
    # a wide skin puts many listed pairs beyond the cutoff
    ff = ForceField(cutoff=cutoff)
    nlist = build_neighbor_list(system.positions, system.box, cutoff, skin)
    assert_same_as_reference(ff, system, nlist)
    # the second evaluation reuses the table the first one built
    table = nlist.pair_table
    assert_same_as_reference(ff, system, nlist)
    assert nlist.pair_table is table


def atoms_of(system, types, molecule_ids, n):
    """The first ``n`` atoms of ``system``, with the given identities."""
    return ParticleSystem(
        box=system.box,
        positions=system.positions[:n],
        velocities=np.zeros((n, 3)),
        types=types[:n],
        molecule_ids=molecule_ids[:n],
        bonds=np.zeros((0, 2), dtype=np.int64),
    )


@given(system=systems, other=systems)
@settings(max_examples=60, deadline=None)
def test_one_list_against_two_systems_rebuilds_the_table(system, other):
    # two systems at the same positions, with different atom identities
    n = min(system.n_atoms, other.n_atoms)
    first = atoms_of(system, system.types, system.molecule_ids, n)
    second = atoms_of(system, other.types, other.molecule_ids, n)
    ff = ForceField()
    nlist = build_neighbor_list(first.positions, first.box, ff.cutoff, 0.5)
    assert_same_as_reference(ff, first, nlist)
    assert_same_as_reference(ff, second, nlist)
    assert nlist.pair_table.types is second.types
    # the types alone, or the molecule ids alone, differ
    for changed in (
        replace(first, types=second.types),
        replace(first, molecule_ids=second.molecule_ids),
    ):
        assert_same_as_reference(ff, first, nlist)
        assert nlist.pair_table.types is first.types
        assert_same_as_reference(ff, changed, nlist)
        assert nlist.pair_table.types is changed.types
        assert nlist.pair_table.molecule_ids is changed.molecule_ids
    # nor is a table shared between two force fields
    other_ff = ForceField(cutoff=1.5, coulomb_strength=2.0)
    assert_same_as_reference(other_ff, first, nlist)
    assert nlist.pair_table.force_field is other_ff


def test_empty_and_all_excluded_lists():
    ff = ForceField()
    sys_ = random_system(7, 30, 4.0, 3)
    empty = NeighborList(
        pairs=np.zeros((0, 2), dtype=np.int64),
        cutoff=ff.cutoff,
        skin=0.3,
        build_positions=sys_.positions.copy(),
    )
    assert assert_same_as_reference(ff, sys_, empty) == 0
    forces, energy, _ = ff._pair_forces(sys_, empty)
    assert energy == 0.0 and not forces.any()
    # every listed pair inside one molecule: all excluded
    sys_.molecule_ids = np.zeros(sys_.n_atoms, dtype=np.int64)
    nlist = build_neighbor_list(sys_.positions, sys_.box, ff.cutoff)
    assert nlist.n_pairs > 0
    assert assert_same_as_reference(ff, sys_, nlist) == 0
    assert len(nlist.pair_table.i) == 0


def test_table_reused_across_steps_and_replaced_on_rebuild():
    system = water_ion_box(dim=1, seed=3)
    # a thin skin rebuilds the list every few steps
    integrator = VelocityVerlet(system, dt=0.002, skin=0.05, thermostat_t=1.0)
    tables = []
    for _ in range(12):
        report = integrator.step()
        nlist = integrator.neighbor_list
        ref_forces, ref_energy, ref_count = rowwise_pair_forces(
            integrator.ff, system, nlist
        )
        f_bond, e_bond, _ = integrator.ff._bond_forces(system)
        assert np.array_equal(integrator.forces.forces, ref_forces + f_bond)
        assert report.potential_energy == ref_energy + e_bond
        assert report.pair_count == ref_count
        if tables and not report.rebuilt_neighbors:
            assert nlist.pair_table is tables[-1]
        elif tables:
            assert nlist.pair_table is not tables[-1]
        tables.append(nlist.pair_table)
    assert 0 < integrator.rebuild_count < 12
