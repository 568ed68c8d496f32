from fractions import Fraction

import numpy as np
import pytest

from deeptrees.errors import OutOfBounds, SpaceTooLarge, UnsupportedCardinality
from deeptrees.lattice import (
    ConstantConcept,
    LatticeSpace,
    ParityConcept,
    ProductDistribution,
    TabulatedConcept,
    UniformDistribution,
    parity_label,
)


def test_enumerate_small_spaces():
    space = LatticeSpace(2, 2)
    points = space.enumerate_points()
    assert points.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    assert LatticeSpace(1, 4).enumerate_points().tolist() == [[1], [2], [3], [4]]
    assert len(LatticeSpace(8, 4).enumerate_points()) == 4**8


def test_enumerate_is_lexicographic_and_unique():
    space = LatticeSpace(3, 3)
    points = [tuple(p) for p in space.enumerate_points()]
    assert points == sorted(points)
    assert len(set(points)) == space.size


def test_enumeration_cap():
    with pytest.raises(SpaceTooLarge):
        LatticeSpace(30, 4).enumerate_points()
    with pytest.raises(SpaceTooLarge):
        LatticeSpace(2, 4).enumerate_points(cap=8)


def test_space_validation():
    with pytest.raises(ValueError):
        LatticeSpace(0, 2)
    with pytest.raises(ValueError):
        LatticeSpace(2, 0)


def test_parity_examples():
    assert parity_label((1, 1)) == 1
    assert parity_label((1, 2)) == -1
    assert parity_label((2, 3, 4)) == -1


def test_parity_flips_on_unit_steps():
    space = LatticeSpace(3, 3)
    concept = ParityConcept(space)
    points = space.enumerate_points()
    labels = concept.labels(points)
    for j in range(space.n):
        stride = space.p ** (space.n - 1 - j)
        movable = points[:, j] < space.p
        idx = np.arange(space.size)[movable]
        assert np.all(labels[idx] != labels[idx + stride])


def test_parity_out_of_bounds():
    concept = ParityConcept(LatticeSpace(2, 2))
    with pytest.raises(OutOfBounds):
        concept.label((1, 3))


def test_tabulated_concept_matches_table():
    space = LatticeSpace(2, 2)
    table = [1, -1, -1, 1]
    concept = TabulatedConcept(space, table)
    assert [concept.label(x) for x in space.enumerate_points()] == table
    assert concept.labels(space.enumerate_points()).tolist() == table


def test_uniform_mass():
    space = LatticeSpace(2, 2)
    dist = UniformDistribution(space)
    assert float(dist.mass_fraction((1, 2))) == pytest.approx(0.25)
    assert dist.mass_fraction((2, 2)) == Fraction(1, 4)


def test_product_mass_values():
    # b_1 = 2 + 3 + 3 = 8, so value 2 carries 3/8
    dist = ProductDistribution(LatticeSpace(1, 4), a=3)
    assert dist.mass_fraction((2,)) == Fraction(3, 8)
    # b_2 = 2 + 3 + 9 = 14
    dist = ProductDistribution(LatticeSpace(2, 4), a=3)
    assert dist.mass_fraction((1, 3)) == Fraction(1, 8) * Fraction(9, 14)


def test_product_requires_four_values():
    with pytest.raises(UnsupportedCardinality):
        ProductDistribution(LatticeSpace(2, 3), a=3)


@pytest.mark.parametrize(
    "dist_factory,space",
    [
        (lambda s: UniformDistribution(s), LatticeSpace(3, 3)),
        (lambda s: ProductDistribution(s, 3), LatticeSpace(3, 4)),
        (lambda s: ProductDistribution(s, 2), LatticeSpace(2, 4)),
    ],
)
def test_masses_sum_to_one(dist_factory, space):
    dist = dist_factory(space)
    exact = sum((dist.mass_fraction(x) for x in space.enumerate_points()), Fraction(0))
    assert exact == 1
    total = sum(float(dist.mass_fraction(x)) for x in space.enumerate_points())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_only_first_dimension_is_mirror_symmetric():
    dist = ProductDistribution(LatticeSpace(3, 4), a=3)
    for i in range(1, 4):
        masses = dist.dim_mass_fractions(i)
        mirrored = tuple(reversed(masses))
        if i == 1:
            assert masses == mirrored
        else:
            assert masses != mirrored


def test_dim_weight_ints_match_fractions():
    dist = ProductDistribution(LatticeSpace(3, 4), a=3)
    for i in range(1, 4):
        weights, total = dist.dim_weight_ints(i)
        fracs = dist.dim_mass_fractions(i)
        assert sum(weights) == total
        assert all(Fraction(w, total) == f for w, f in zip(weights, fracs))


def test_sample_empty_and_deterministic():
    dist = ProductDistribution(LatticeSpace(2, 4), a=3)
    assert dist.sample(0, seed=7).shape == (0, 2)
    a = dist.sample(500, seed=3)
    b = dist.sample(500, seed=3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, dist.sample(500, seed=4))


def test_sample_frequency_matches_mass():
    # exact mass of value 2 along dimension 1 is 3/8; 3-sigma binomial
    # radius at a million draws is under the 0.002 budget
    dist = ProductDistribution(LatticeSpace(1, 4), a=3)
    draws = dist.sample(1_000_000, seed=1)
    freq = float(np.mean(draws[:, 0] == 2))
    assert abs(freq - 3 / 8) < 0.002


def test_sample_per_dimension_frequencies():
    space = LatticeSpace(3, 4)
    dist = ProductDistribution(space, a=3)
    draws = dist.sample(200_000, seed=11)
    for i in range(1, 4):
        masses = dist.dim_masses(i)
        for value in range(1, 5):
            freq = float(np.mean(draws[:, i - 1] == value))
            assert abs(freq - masses[value - 1]) < 0.01


def test_uniform_sample_in_bounds():
    space = LatticeSpace(2, 3)
    draws = UniformDistribution(space).sample(1000, seed=0)
    assert draws.min() >= 1 and draws.max() <= 3


def test_constant_concept():
    space = LatticeSpace(2, 2)
    concept = ConstantConcept(space, -1)
    assert set(concept.labels(space.enumerate_points()).tolist()) == {-1}
