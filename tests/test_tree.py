import numpy as np
import pytest

from deeptrees.construct import compile_to_deeptree
from deeptrees.errors import DeepTreesError, FeatureOutOfRange, NonFiniteThreshold
from deeptrees.lattice import LatticeSpace, ParityConcept
from deeptrees.rng import generator
from deeptrees.tree import (
    Leaf,
    Node,
    dim_of,
    evaluate,
    evaluate_batch,
    leaf_count,
    leaf_regions,
    max_feature,
    region_size,
    threshold_cut,
    tree_labels,
    walk,
)

STUMP = Node(1, 1.0, Leaf(-1), Leaf(+1))

DEEP = 10_000  # far past the interpreter's default recursion limit


def deep_chain(depth):
    """Right-leaning chain over one feature, built bottom-up in a loop.

    The split at depth k sends x1 <= k + 1.5 to a leaf labeled (-1)**k, so
    integer x1 = k + 1 lands in that leaf and x1 > depth in the last one.
    """
    tree = Leaf(1)
    for k in reversed(range(depth)):
        tree = Node(1, k + 1.5, Leaf(-1 if k % 2 else 1), tree)
    return tree

# hand-built parity tree over [2]^2: split x1 then x2 in each half
PARITY_2x2 = Node(
    1,
    1.0,
    Node(2, 1.0, Leaf(+1), Leaf(-1)),
    Node(2, 1.0, Leaf(-1), Leaf(+1)),
)


def random_tree(rng, space, max_extra_splits=6):
    """In-range random tree for round-trip and partition properties."""

    def build(bounds, budget):
        open_dims = [(j, lo, hi) for j, (lo, hi) in enumerate(bounds) if hi > lo]
        if budget <= 0 or not open_dims or rng.random() < 0.3:
            return Leaf(-1 if rng.random() < 0.5 else 1)
        j, lo, hi = open_dims[int(rng.integers(len(open_dims)))]
        cut = int(rng.integers(lo, hi))
        left = list(bounds)
        left[j] = (lo, cut)
        right = list(bounds)
        right[j] = (cut + 1, hi)
        split = int(rng.integers(0, budget))
        return Node(j + 1, float(cut), build(left, split), build(right, budget - 1 - split))

    return build([(1, space.p)] * space.n, max_extra_splits)


def test_eval_constant():
    assert evaluate(Leaf(+1), (9.9,)) == 1


def test_eval_stump_threshold_semantics():
    assert evaluate(STUMP, (1.0,)) == -1
    assert evaluate(STUMP, (2.0,)) == 1
    assert evaluate(STUMP, (1.0 + 1e-12,)) == 1


def test_eval_parity_tree_exhaustive():
    space = LatticeSpace(2, 2)
    concept = ParityConcept(space)
    for x in space.enumerate_points():
        assert evaluate(PARITY_2x2, x.astype(float)) == concept.label(x)


def test_eval_feature_out_of_range():
    with pytest.raises(FeatureOutOfRange):
        evaluate(Node(3, 0.5, Leaf(-1), Leaf(1)), (1.0, 2.0))
    with pytest.raises(FeatureOutOfRange):
        evaluate_batch(Node(3, 0.5, Leaf(-1), Leaf(1)), np.ones((4, 2)))


def test_batch_matches_single():
    rng = generator(0, "tree-batch")
    space = LatticeSpace(3, 4)
    tree = random_tree(rng, space)
    X = rng.random((64, 3)) * 4 + 0.5
    batch = evaluate_batch(tree, X)
    assert batch.tolist() == [evaluate(tree, x) for x in X]


def test_dims():
    assert (dim_of(Leaf(1)), leaf_count(Leaf(1))) == (1, 1)
    assert (dim_of(STUMP), leaf_count(STUMP)) == (4, 2)
    assert (dim_of(PARITY_2x2), leaf_count(PARITY_2x2)) == (10, 4)


def test_dim_identity_random_trees():
    rng = generator(1, "tree-dims")
    space = LatticeSpace(3, 4)
    for _ in range(50):
        tree = random_tree(rng, space, max_extra_splits=10)
        assert dim_of(tree) == 3 * (leaf_count(tree) - 1) + 1


def test_max_feature():
    assert max_feature(Leaf(1)) == 0
    assert max_feature(Node(5, 0.0, Leaf(1), Node(2, 1.0, Leaf(-1), Leaf(1)))) == 5


def test_threshold_cut():
    assert threshold_cut(2.5) == 2
    assert threshold_cut(2.0) == 2
    assert threshold_cut(0.3) == 0


def test_leaf_regions_constant():
    space = LatticeSpace(2, 2)
    assert leaf_regions(Leaf(+1), space) == [(((1, 2), (1, 2)), 1)]


def test_leaf_regions_stump():
    space = LatticeSpace(2, 2)
    assert leaf_regions(STUMP, space) == [
        (((1, 1), (1, 2)), -1),
        (((2, 2), (1, 2)), 1),
    ]


def test_leaf_regions_parity_tree():
    space = LatticeSpace(2, 2)
    regions = leaf_regions(PARITY_2x2, space)
    assert len(regions) == 4
    assert all(region_size(bounds) == 1 for bounds, _ in regions)
    for bounds, label in regions:
        point = np.array([lo for lo, _ in bounds])
        assert label == ParityConcept(space).label(point)


def test_leaf_regions_partition_random_trees():
    rng = generator(2, "tree-regions")
    space = LatticeSpace(3, 4)
    points = space.enumerate_points()
    for _ in range(40):
        tree = random_tree(rng, space, max_extra_splits=8)
        regions = leaf_regions(tree, space)
        assert sum(region_size(bounds) for bounds, _ in regions) == space.size
        covered = np.zeros(space.size, dtype=int)
        for bounds, label in regions:
            inside = np.ones(space.size, dtype=bool)
            for j, (lo, hi) in enumerate(bounds):
                inside &= (points[:, j] >= lo) & (points[:, j] <= hi)
            covered += inside
            # eval agrees with the region label on every member point
            if inside.any():
                values = evaluate_batch(tree, points[inside].astype(float))
                assert set(values.tolist()) == {label}
        assert np.all(covered == 1)


def test_negative_feature_index_rejected():
    with pytest.raises(FeatureOutOfRange):
        Node(0, 1.0, Leaf(1), Leaf(-1))


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_threshold_rejected(threshold):
    with pytest.raises(NonFiniteThreshold):
        Node(1, threshold, Leaf(1), Leaf(-1))
    with pytest.raises(DeepTreesError):
        compile_to_deeptree(Node(1, threshold, Leaf(1), Leaf(-1)), LatticeSpace(1, 4))


class _Unreadable(Leaf):
    """A leaf whose label raises when read; built without __init__."""

    @property
    def label(self):
        raise AssertionError("compared past the first mismatch")


def test_equality_stops_at_the_first_mismatch():
    # the left subtrees differ at their root, which is compared before the
    # right subtrees, whose labels cannot be read
    a = Node(1, 5.0, Node(2, 1.0, Leaf(1), Leaf(-1)), object.__new__(_Unreadable))
    b = Node(1, 5.0, Node(2, 2.0, Leaf(1), Leaf(-1)), object.__new__(_Unreadable))
    assert a != b
    differing = [
        Node(2, 1.0, PARITY_2x2.left, PARITY_2x2.right),  # root feature
        Node(1, 1.5, PARITY_2x2.left, PARITY_2x2.right),  # root threshold
        Node(1, 1.0, PARITY_2x2.left, Node(2, 1.0, Leaf(-1), Leaf(-1))),  # a right leaf label
        Node(1, 1.0, PARITY_2x2.left, Leaf(1)),  # a node against a leaf
        Node(1, 1.0, Leaf(1), PARITY_2x2.right),  # a leaf against a node
    ]
    for other in differing:
        assert PARITY_2x2 != other and other != PARITY_2x2
    same = Node(1, 1, Node(2, 1.0, Leaf(1), Leaf(-1)), Node(2, 1.0, Leaf(-1), Leaf(1)))
    assert same == PARITY_2x2 and hash(same) == hash(PARITY_2x2)
    assert (PARITY_2x2 == "tree") is False


def test_deep_chain_walks_without_recursion():
    chain = deep_chain(DEEP)
    assert leaf_count(chain) == DEEP + 1
    assert dim_of(chain) == 3 * DEEP + 1
    assert max_feature(chain) == 1
    assert tree_labels(chain) == {-1, 1}
    values = np.array([1.0, 2.0, DEEP - 1.0, DEEP, DEEP + 1.0])
    expected = [1, -1, 1, -1, 1]
    assert [evaluate(chain, (v,)) for v in values] == expected
    assert evaluate_batch(chain, values[:, None]).tolist() == expected
    regions = leaf_regions(chain, LatticeSpace(1, DEEP + 1))
    assert [bounds for bounds, _ in regions] == [((v, v),) for v in range(1, DEEP + 2)]
    assert [label for _, label in regions[:4]] == [1, -1, 1, -1]
    assert chain == deep_chain(DEEP) and hash(chain) == hash(deep_chain(DEEP))
    assert chain != deep_chain(DEEP - 1)
    assert repr(chain).startswith("Node(feature=1, threshold=1.5, left=Leaf(label=1), right=Node(")


def test_walk_is_preorder_with_depths():
    order = [(getattr(node, "feature", None), getattr(node, "label", None), depth)
             for node, depth in walk(PARITY_2x2)]
    assert order == [
        (1, None, 0), (2, None, 1), (None, 1, 2), (None, -1, 2),
        (2, None, 1), (None, -1, 2), (None, 1, 2),
    ]


def test_training_annotations_are_not_identity():
    plain = Node(1, 1.0, Leaf(-1), Leaf(1))
    annotated = Node(1, 1.0, Leaf(-1), Leaf(1), majority=-1, order=0)
    assert plain == annotated and hash(plain) == hash(annotated)
    assert repr(annotated) == repr(plain)
    assert Node(1, 1.0, Leaf(-1), Leaf(1)) != Node(1, 2.0, Leaf(-1), Leaf(1))
    assert STUMP != Leaf(1) and Leaf(1) != STUMP
