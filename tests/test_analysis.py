import itertools
from fractions import Fraction

import numpy as np
import pytest

from deeptrees.analysis import (
    _gini,
    _OracleSearch,
    forest_zero_error_leafbound,
    gini_gain_map,
    label_partition,
    risk_report,
    tree_complexity_oracle,
)
from deeptrees.construct import build_parity_deeptree
from deeptrees.ensemble import Forest, predict_batch
from deeptrees.errors import (
    EmptyRegion,
    OutOfBounds,
    PreconditionViolated,
    SearchBudgetExceeded,
    SpaceTooLarge,
)
from deeptrees.lattice import (
    ConstantConcept,
    LatticeSpace,
    ParityConcept,
    ProductDistribution,
    TabulatedConcept,
    UniformDistribution,
)
from deeptrees.rng import generator
from deeptrees.sexpr import print_model
from deeptrees.tree import Leaf

from test_tree import PARITY_2x2, random_tree


# ---------------------------------------------------------------------------
# label partitions
# ---------------------------------------------------------------------------


def test_partition_constant_is_one_class():
    space = LatticeSpace(3, 3)
    part = label_partition(space, ConstantConcept(space, 1), r=1)
    assert part.class_count == 1


def test_partition_parity_singletons():
    space = LatticeSpace(2, 2)
    part = label_partition(space, ParityConcept(space), r=1)
    assert part.class_count == 4
    assert all(len(members) == 1 for members in part.classes)


def test_partition_parity_odd_p_gap():
    space = LatticeSpace(2, 3)
    part = label_partition(space, ParityConcept(space), r=1)
    assert part.class_count == 9
    assert abs(part.count_with_label(1) - part.count_with_label(-1)) == 1


def test_partition_parity_grid():
    for p in (2, 3, 4):
        for n in (1, 2, 3):
            space = LatticeSpace(n, p)
            part = label_partition(space, ParityConcept(space), r=1)
            assert part.class_count == space.size
            assert abs(part.count_with_label(1) - part.count_with_label(-1)) <= 1


def test_partition_radius_two_merges_parity():
    # same-label points at L1 distance 2 join, leaving the two parity classes
    space = LatticeSpace(2, 2)
    part = label_partition(space, ParityConcept(space), r=2)
    assert part.class_count == 2
    assert sorted(len(m) for m in part.classes) == [2, 2]


def _classes_are_maximal(space, concept, r):
    part = label_partition(space, concept, r=r)
    points = space.enumerate_points()
    for a in range(part.class_count):
        for b in range(a + 1, part.class_count):
            if part.labels[a] != part.labels[b]:
                continue
            # no same-label pair within distance r may straddle two classes
            for i in part.classes[a]:
                for j in part.classes[b]:
                    assert np.abs(points[i] - points[j]).sum() > r
    return part


def test_partition_classes_maximal():
    space = LatticeSpace(2, 3)
    _classes_are_maximal(space, ParityConcept(space), 1)
    rng = generator(10, "partition-max")
    table = np.where(rng.random(space.size) < 0.5, -1, 1)
    _classes_are_maximal(space, TabulatedConcept(space, table), 1)
    _classes_are_maximal(space, TabulatedConcept(space, table), 2)


def test_partition_covers_and_is_disjoint():
    space = LatticeSpace(3, 3)
    rng = generator(11, "partition-cover")
    table = np.where(rng.random(space.size) < 0.5, -1, 1)
    part = label_partition(space, TabulatedConcept(space, table), r=1)
    seen = np.concatenate(part.classes)
    assert sorted(seen.tolist()) == list(range(space.size))
    for ci, members in enumerate(part.classes):
        assert np.all(part.class_of[members] == ci)
        assert len({int(table[i]) for i in members}) == 1


def test_partition_cap():
    with pytest.raises(SpaceTooLarge):
        label_partition(LatticeSpace(2, 2), ParityConcept(LatticeSpace(2, 2)), r=1, cap=3)


# ---------------------------------------------------------------------------
# risk reports
# ---------------------------------------------------------------------------


def test_risk_constant_vs_parity():
    space = LatticeSpace(2, 2)
    report = risk_report(Leaf(1), ParityConcept(space), UniformDistribution(space), space)
    assert report.error_set_size == 2
    assert report.proper_set_size == 2
    assert report.exact_risk == Fraction(1, 2)
    assert report.leaf_count == 1
    # error floor: mistakes >= (p^n - L)/2 = 3/2
    assert report.error_set_size >= (space.size - report.leaf_count) / 2


def test_risk_parity_cascade_is_zero():
    space = LatticeSpace(3, 4)
    cascade = build_parity_deeptree(4, 3)
    report = risk_report(cascade, ParityConcept(space), UniformDistribution(space), space)
    assert report.exact_risk == 0
    assert report.error_set_size == 0


def test_risk_weighted_by_distribution():
    from deeptrees.tree import Node

    space = LatticeSpace(1, 4)
    dist = ProductDistribution(space, a=3)
    # wrong only on value 2, which carries mass a/b_1 = 3/8
    model = Node(1, 1.0, Leaf(-1), Node(1, 2.0, Leaf(-1), Node(1, 3.0, Leaf(-1), Leaf(1))))
    report = risk_report(model, ParityConcept(space), dist, space)
    assert report.error_set_size == 1
    assert report.exact_risk == Fraction(3, 8)


def test_error_set_lower_bound_random_corpus():
    space = LatticeSpace(3, 4)
    concept = ParityConcept(space)
    dist = UniformDistribution(space)
    rng = generator(12, "error-floor-corpus")
    for _ in range(200):
        tree = random_tree(rng, space, max_extra_splits=10)
        report = risk_report(tree, concept, dist, space)
        assert report.error_set_size >= (space.size - report.leaf_count) / 2
        assert report.proper_set_size <= (space.size + report.leaf_count) / 2


# ---------------------------------------------------------------------------
# the exhaustive oracle
# ---------------------------------------------------------------------------


def test_oracle_parity_2x2_zero_error():
    space = LatticeSpace(2, 2)
    result = tree_complexity_oracle(
        space, ParityConcept(space), UniformDistribution(space), 0, max_leaves=8
    )
    assert result.minimal_leaves == 4
    assert result.minimal_dim == 10
    assert result.search_exhaustive
    # the witness is validated by independent enumeration
    report = risk_report(result.witness, ParityConcept(space), UniformDistribution(space), space)
    assert report.exact_risk == 0


def test_oracle_constant_concept():
    space = LatticeSpace(2, 2)
    result = tree_complexity_oracle(
        space, ConstantConcept(space, 1), UniformDistribution(space), 0, max_leaves=4
    )
    assert result.minimal_leaves == 1
    assert result.minimal_dim == 1


def test_oracle_parity_quarter_error():
    space = LatticeSpace(2, 2)
    result = tree_complexity_oracle(
        space, ParityConcept(space), UniformDistribution(space), Fraction(1, 4), max_leaves=8
    )
    # minimal found by exhaustive search; the analytic floor is p^n/2 = 2
    assert result.minimal_leaves == 3
    assert result.minimal_leaves >= space.size // 2
    assert result.achieved_risk == Fraction(1, 4)
    report = risk_report(result.witness, ParityConcept(space), UniformDistribution(space), space)
    assert report.exact_risk == Fraction(1, 4)


def test_oracle_parity_2_cubed():
    space = LatticeSpace(3, 2)
    concept = ParityConcept(space)
    dist = UniformDistribution(space)
    exact = tree_complexity_oracle(space, concept, dist, 0, max_leaves=8)
    assert exact.minimal_leaves == space.size  # zero error forces singleton leaves
    quarter = tree_complexity_oracle(space, concept, dist, Fraction(1, 4), max_leaves=8)
    assert quarter.minimal_leaves == 5
    assert quarter.minimal_leaves >= space.size // 2


# print_model of each witness, recorded when every split was spelled out
# per call site
ORACLE_WITNESSES = {
    (2, Fraction(0)): "(node 1 1 (node 2 1 (leaf +1) (leaf -1)) (node 2 1 (leaf -1) (leaf +1)))",
    (2, Fraction(1, 4)): "(node 1 1 (leaf -1) (node 2 1 (leaf -1) (leaf +1)))",
    (3, Fraction(0)): (
        "(node 1 1 (node 2 1 (node 3 1 (leaf -1) (leaf +1)) (node 3 1 (leaf +1) (leaf -1)))"
        " (node 2 1 (node 3 1 (leaf +1) (leaf -1)) (node 3 1 (leaf -1) (leaf +1))))"
    ),
    (3, Fraction(1, 4)): (
        "(node 1 1 (leaf -1) (node 2 1 (node 3 1 (leaf +1) (leaf -1))"
        " (node 3 1 (leaf -1) (leaf +1))))"
    ),
}


@pytest.mark.parametrize("n, epsilon", sorted(ORACLE_WITNESSES))
def test_oracle_witness_text_is_pinned(n, epsilon):
    space = LatticeSpace(n, 2)
    result = tree_complexity_oracle(
        space, ParityConcept(space), UniformDistribution(space), epsilon, max_leaves=8
    )
    assert print_model(result.witness) == ORACLE_WITNESSES[n, epsilon]


def test_oracle_infeasible_budget():
    space = LatticeSpace(2, 2)
    result = tree_complexity_oracle(
        space, ParityConcept(space), UniformDistribution(space), 0, max_leaves=3
    )
    assert result.minimal_leaves is None
    assert result.witness is None
    assert result.search_exhaustive


def test_oracle_node_budget():
    space = LatticeSpace(3, 2)
    with pytest.raises(SearchBudgetExceeded):
        tree_complexity_oracle(
            space, ParityConcept(space), UniformDistribution(space), 0, max_leaves=8,
            node_budget=10,
        )


def test_oracle_point_cap():
    space = LatticeSpace(4, 4)
    with pytest.raises(SpaceTooLarge):
        tree_complexity_oracle(
            space, ParityConcept(space), UniformDistribution(space), 0, max_leaves=4
        )


# ---------------------------------------------------------------------------
# forest leaf bound
# ---------------------------------------------------------------------------


def test_leafbound_tight_single_tree():
    space = LatticeSpace(2, 2)
    report = forest_zero_error_leafbound(Forest((PARITY_2x2,)), ParityConcept(space), space)
    assert report.total_leaf_count == 4
    assert report.space_size == 4
    assert report.holds


def test_leafbound_majority_forest():
    space = LatticeSpace(2, 2)
    forest = Forest((PARITY_2x2, PARITY_2x2, Leaf(1)))
    report = forest_zero_error_leafbound(forest, ParityConcept(space), space)
    assert report.total_leaf_count == 9
    assert report.holds


def test_leafbound_precondition():
    space = LatticeSpace(2, 2)
    with pytest.raises(PreconditionViolated):
        forest_zero_error_leafbound(Forest((Leaf(1),)), ParityConcept(space), space)
    # an even forest with a split vote is not "correct with probability 1"
    with pytest.raises(PreconditionViolated):
        forest_zero_error_leafbound(
            Forest((PARITY_2x2, Leaf(1))), ParityConcept(space), space
        )


# ---------------------------------------------------------------------------
# exact impurity gains
# ---------------------------------------------------------------------------


def _brute_force_gain(space, dist, concept, feature, cut):
    """Independent Fraction-arithmetic computation over raw point masses."""
    points = [tuple(x) for x in space.enumerate_points()]
    mass = {x: dist.mass_fraction(np.array(x)) for x in points}
    label = {x: concept.label(np.array(x)) for x in points}

    def gini(subset):
        total = sum((mass[x] for x in subset), Fraction(0))
        if total == 0:
            return Fraction(0), Fraction(0)
        impurity = Fraction(1)
        for c in {label[x] for x in subset}:
            share = sum((mass[x] for x in subset if label[x] == c), Fraction(0)) / total
            impurity -= share * share
        return impurity, total

    parent, _ = gini(points)
    left = [x for x in points if x[feature - 1] <= cut]
    right = [x for x in points if x[feature - 1] > cut]
    gain = parent
    for side in (left, right):
        impurity, total = gini(side)
        gain -= total * impurity
    return gain


def test_gini_uniform_is_flat():
    space = LatticeSpace(2, 4)
    gm = gini_gain_map(space, UniformDistribution(space), ParityConcept(space))
    assert len(gm.gains) == 6
    assert all(g == 0 for g in gm.gains.values())
    assert gm.parent_impurity == Fraction(1, 2)


def test_gini_product_root_argmax():
    space = LatticeSpace(2, 4)
    gm = gini_gain_map(space, ProductDistribution(space, 3), ParityConcept(space))
    assert gm.best == (1, 2)  # feature 1 at the 2/3 boundary (x = 2.5)
    assert gm.gains[(1, 2)] == Fraction(9, 392)


def test_gini_matches_brute_force():
    space = LatticeSpace(2, 4)
    dist = ProductDistribution(space, 3)
    concept = ParityConcept(space)
    gm = gini_gain_map(space, dist, concept)
    for (feature, cut), gain in gm.gains.items():
        assert gain == _brute_force_gain(space, dist, concept, feature, cut)


def test_gini_a2_breaks_midpoint():
    space = LatticeSpace(2, 4)
    gm = gini_gain_map(space, ProductDistribution(space, 2), ParityConcept(space))
    assert gm.best is not None and gm.best != (1, 2)


def test_gini_uniform_mirror_symmetry():
    space = LatticeSpace(2, 4)
    rng = generator(13, "gini-mirror")
    table = np.where(rng.random(space.size) < 0.5, -1, 1)
    concept = TabulatedConcept(space, table)
    gm = gini_gain_map(space, UniformDistribution(space), concept)
    points = space.enumerate_points()
    mirrored_table = np.empty_like(table)
    for rank, x in enumerate(points):
        mirror = x.copy()
        mirror[0] = space.p + 1 - mirror[0]
        mirrored_table[space.rank(mirror)] = table[rank]
    mirrored = gini_gain_map(space, UniformDistribution(space), TabulatedConcept(space, mirrored_table))
    for cut in range(1, space.p):
        assert gm.gains[(1, cut)] == mirrored.gains[(1, space.p - cut)]


def test_gini_subregion_and_errors():
    space = LatticeSpace(2, 4)
    dist = ProductDistribution(space, 3)
    concept = ParityConcept(space)
    gm = gini_gain_map(space, dist, concept, region=((1, 2), (1, 4)))
    assert all(feature in (1, 2) for feature, _ in gm.gains)
    assert all(cut in (1, 2, 3) for feature, cut in gm.gains if feature == 2)
    with pytest.raises(EmptyRegion):
        gini_gain_map(space, dist, concept, region=((2, 1), (1, 4)))


def test_gini_fully_resolved_region():
    space = LatticeSpace(2, 4)
    gm = gini_gain_map(space, UniformDistribution(space), ParityConcept(space), region=((2, 2), (3, 3)))
    assert gm.best is None
    assert gm.gains == {}


@pytest.mark.parametrize("region", [((0, 4), (1, 4)), ((1, 5), (1, 4)), ((1, 4),)])
def test_gini_rejects_regions_outside_the_lattice(region):
    space = LatticeSpace(2, 4)
    with pytest.raises(OutOfBounds):
        gini_gain_map(space, ProductDistribution(space, 3), ParityConcept(space), region=region)


# ---------------------------------------------------------------------------
# whole-region kernels against the per-point loops they replaced
# ---------------------------------------------------------------------------


def _points(region):
    return itertools.product(*[range(lo, hi + 1) for lo, hi in region])


def _point_weight(dist, point):
    w = 1
    for i, v in enumerate(point, start=1):
        w *= dist.dim_weight_ints(i)[0][v - 1]
    return w


def reference_gini_gain_map(space, dist, concept, region):
    """Per-point loop: one concept.label call and one weight product per point."""
    class_totals = {}
    marginals = [dict() for _ in range(space.n)]
    for point in _points(region):
        w = _point_weight(dist, point)
        label = concept.label(np.array(point, dtype=np.int64))
        class_totals[label] = class_totals.get(label, 0) + w
        for j, v in enumerate(point):
            marginals[j][(v, label)] = marginals[j].get((v, label), 0) + w
    total = sum(class_totals.values())
    classes = sorted(class_totals)
    parent = _gini([class_totals[c] for c in classes], total)
    gains = {}
    best = None
    for feature in range(1, space.n + 1):
        lo, hi = region[feature - 1]
        left = {c: 0 for c in classes}
        for cut in range(lo, hi):
            for c in classes:
                left[c] += marginals[feature - 1].get((cut, c), 0)
            left_total = sum(left.values())
            right_total = total - left_total
            gain = (
                parent
                - Fraction(left_total, total) * _gini(list(left.values()), left_total)
                - Fraction(right_total, total)
                * _gini([class_totals[c] - left[c] for c in classes], right_total)
            )
            gains[(feature, cut)] = gain
            if best is None or gain > gains[best]:
                best = (feature, cut)
    return parent, gains, best


def reference_risk(model, concept, dist, space):
    """Per-point sum of mass_fraction over the misclassified points."""
    points = space.enumerate_points()
    wrong = predict_batch(model, points.astype(np.float64)) != concept.labels(points)
    return sum((dist.mass_fraction(x) for x in points[wrong]), Fraction(0))


def reference_class_weights(dist, concept, region):
    w_pos = w_neg = 0
    for point in _points(region):
        w = _point_weight(dist, point)
        if concept.label(np.array(point, dtype=np.int64)) == 1:
            w_pos += w
        else:
            w_neg += w
    return w_pos, w_neg


def _random_region(rng, space):
    region = []
    for _ in range(space.n):
        lo, hi = sorted(int(v) for v in rng.integers(1, space.p + 1, size=2))
        region.append((lo, hi))
    return tuple(region)


def _concepts(space, rng):
    return (
        ParityConcept(space),
        TabulatedConcept(space, rng.choice([-1, 1, 3], size=space.size)),
        ConstantConcept(space, -1),
    )


def _distributions(space):
    return (UniformDistribution(space),) + tuple(
        ProductDistribution(space, a) for a in (3, 2, Fraction(5, 2))
    )


def _assert_gini_matches_reference(space, dist, concept, region):
    gm = gini_gain_map(space, dist, concept, region=region)
    parent, gains, best = reference_gini_gain_map(space, dist, concept, region)
    assert gm.parent_impurity == parent
    assert list(gm.gains.items()) == list(gains.items())
    assert gm.best == best


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_region_kernels_equal_per_point_reference(n):
    space = LatticeSpace(n, 4)
    rng = generator(n, "region-kernel-reference")
    for concept in _concepts(space, rng):
        for dist in _distributions(space):
            search = _OracleSearch(space, concept, dist, node_budget=1)
            regions = [tuple((1, 4) for _ in range(n))]
            regions += [_random_region(rng, space) for _ in range(3)]
            for region in regions:
                _assert_gini_matches_reference(space, dist, concept, region)
                assert search.region_class_weights(region) == reference_class_weights(
                    dist, concept, region
                )
            for _ in range(3):
                tree = random_tree(rng, space, max_extra_splits=8)
                report = risk_report(tree, concept, dist, space)
                assert report.exact_risk == reference_risk(tree, concept, dist, space)


def test_region_kernels_exact_past_int64():
    # at a=5 the point weights on [4]^8 reach 5**36; this box holds 5**30
    space = LatticeSpace(8, 4)
    dist = ProductDistribution(space, 5)
    region = ((1, 2), (1, 2), (1, 2), (2, 3), (3, 3), (3, 4), (2, 3), (3, 3))
    for concept in _concepts(space, generator(8, "region-kernel-int64")):
        w_pos, w_neg = reference_class_weights(dist, concept, region)
        assert w_pos + w_neg > 2**63
        search = _OracleSearch(space, concept, dist, node_budget=1)
        assert search.region_class_weights(region) == (w_pos, w_neg)
        _assert_gini_matches_reference(space, dist, concept, region)
