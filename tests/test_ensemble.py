import numpy as np
import pytest

from deeptrees.construct import build_parity_deeptree
from deeptrees.ensemble import (
    TIE_NEGATIVE,
    TIE_POSITIVE,
    TIE_SEEDED,
    CascadeForest,
    DeepTree,
    Forest,
    SizeBudget,
    _break_tie,
    model_dim,
    resolve_votes,
    total_leaves,
)
from deeptrees.errors import FeatureOutOfRange, SizeBudgetExceeded
from deeptrees.lattice import LatticeSpace, ParityConcept
from deeptrees.learn import TrainConfig, train_cascade, train_forest
from deeptrees.rng import generator
from deeptrees.tree import Leaf, Node, evaluate, evaluate_batch

from test_tree import PARITY_2x2, random_tree


def test_majority_vote():
    forest = Forest((Leaf(1), Leaf(1), Leaf(-1)))
    assert forest.predict([0.0]) == 1


def test_tie_rules():
    pair = (Leaf(1), Leaf(-1))
    assert Forest(pair).predict([0.0]) == -1  # default breaks down
    assert Forest(pair, tie_rule=TIE_POSITIVE).predict([0.0]) == 1
    seeded = Forest(pair, tie_rule=TIE_SEEDED, tie_seed=5)
    x = np.array([[0.25], [0.75], [0.25]])
    first = seeded.predict_batch(x)
    again = seeded.predict_batch(x)
    assert np.array_equal(first, again)
    assert first[0] == first[2]  # same point, same coin


def reference_vote(votes, tie_rule, tie_seed, X):
    """Per-row majority over an (n_trees, m) vote matrix, ties one row at a time."""
    classes = np.unique(votes)
    counts = np.stack([(votes == c).sum(axis=0) for c in classes], axis=1)
    best = counts.max(axis=1)
    out = np.empty(X.shape[0], dtype=np.int64)
    for r in range(X.shape[0]):
        tied = classes[counts[r] == best[r]]
        if len(tied) == 1:
            out[r] = tied[0]
        else:
            out[r] = _break_tie(tied, tie_rule, tie_seed, X[r])
    return out


def lookup_tree(labels):
    """Tree sending a row whose feature 1 is i (0-based) to labels[i]."""

    def build(lo, hi):
        if hi - lo == 1:
            return Leaf(int(labels[lo]))
        mid = (lo + hi) // 2
        return Node(1, mid - 0.5, build(lo, mid), build(mid, hi))

    return build(0, len(labels))


@pytest.mark.parametrize(
    "labels", [(-1, 1), (0, 1, 2), (-7, -2, 3, 10), (2, 5, 11, 40, 41)]
)
@pytest.mark.parametrize("tie_rule", [TIE_NEGATIVE, TIE_POSITIVE, TIE_SEEDED])
def test_vote_matches_per_row_reference(labels, tie_rule):
    rng = generator(len(labels), "vote-reference", tie_rule)
    for n_trees in (2, 4, 6):  # even widths and few trees per class: many ties
        votes = np.array(labels)[rng.integers(0, len(labels), size=(n_trees, 40))]
        X = np.column_stack([np.arange(40.0), rng.random(40)])
        seeds = (3, 17, 2024) if tie_rule == TIE_SEEDED else (None,)
        for tie_seed in seeds:
            expected = reference_vote(votes, tie_rule, tie_seed, X)
            forest = Forest(
                tuple(lookup_tree(v) for v in votes), tie_rule=tie_rule, tie_seed=tie_seed
            )
            assert np.array_equal(forest.predict_batch(X), expected)
            assert [forest.predict(x) for x in X] == expected.tolist()
            # a superset of the voted classes changes nothing
            classes = np.array(sorted(set(labels) | {min(labels) - 5, max(labels) + 5}))
            counts = np.stack([(votes == c).sum(axis=0) for c in classes], axis=1)
            assert np.array_equal(resolve_votes(classes, counts, tie_rule, tie_seed, X), expected)


def test_forest_point_query_rejects_narrow_rows():
    # the member reading feature 3 is never reached on either branch of x1,
    # yet a row of width 2 must still be rejected
    wide = Node(1, 0.5, Leaf(1), Node(1, 5.0, Leaf(-1), Node(3, 0.0, Leaf(1), Leaf(-1))))
    forest = Forest((Leaf(1), wide, Node(2, 0.5, Leaf(-1), Leaf(1))))
    for x in ([0.0, 0.0], [1.0, 1.0]):
        with pytest.raises(FeatureOutOfRange):
            forest.predict(x)
        with pytest.raises(FeatureOutOfRange):
            forest.predict_batch(np.array([x]))
    assert forest.predict([0.0, 0.0, 0.0]) == forest.predict_batch(np.zeros((1, 3)))[0]
    with pytest.raises(FeatureOutOfRange):
        Forest((Node(2, 0.5, Leaf(-1), Leaf(1)),)).predict([0.0])


def test_odd_forests_never_tie():
    rng = generator(4, "odd-forest")
    space = LatticeSpace(2, 4)
    trees = tuple(random_tree(rng, space) for _ in range(5))
    votes = Forest(trees).member_predictions(space.enumerate_points().astype(float))
    counts = (votes == 1).sum(axis=0)
    assert np.all(counts * 2 != votes.shape[0])


def test_trained_forest_fits_parity_lattice():
    space = LatticeSpace(2, 2)
    points = space.enumerate_points()
    X = np.tile(points, (16, 1)).astype(float)
    y = np.tile(ParityConcept(space).labels(points), 16)
    forest = train_forest(X, y, TrainConfig(seed=1, n_trees=5))
    assert np.array_equal(
        forest.predict_batch(points.astype(float)), ParityConcept(space).labels(points)
    )


def test_single_layer_cascade_equals_tree():
    rng = generator(5, "cascade-single")
    space = LatticeSpace(3, 4)
    tree = random_tree(rng, space)
    cascade = DeepTree((tree,))
    X = rng.random((32, 3)) * 4 + 0.5
    assert np.array_equal(cascade.predict_batch(X), evaluate_batch(tree, X))


def test_cascade_reads_augmented_feature():
    # the second layer flips on the first layer's constant -1
    cascade = DeepTree((Leaf(-1), Node(3, 0.0, Leaf(1), Leaf(-1))))
    X = np.array([[1.0, 2.0], [4.0, 4.0]])
    assert cascade.predict_batch(X).tolist() == [1, 1]


def test_cascade_matches_manual_composition():
    rng = generator(6, "cascade-compose")
    space = LatticeSpace(2, 4)
    layer1 = random_tree(rng, space)
    aug_space = LatticeSpace(3, 4)
    layers = [layer1] + [random_tree(rng, aug_space) for _ in range(3)]
    cascade = DeepTree(tuple(layers))
    X = rng.random((40, 2)) * 4 + 0.5
    for x in X:
        y = evaluate(layers[0], x)
        for layer in layers[1:]:
            y = evaluate(layer, np.append(x, float(y)))
        assert cascade.predict(x) == y


def test_layer_predictions_are_the_depth_prefixes():
    rng = generator(6, "cascade-prefixes")
    layers = [random_tree(rng, LatticeSpace(2, 4))]
    layers += [random_tree(rng, LatticeSpace(3, 4)) for _ in range(3)]
    cascade = DeepTree(tuple(layers))
    X = rng.random((60, 2)) * 4 + 0.5
    items = list(cascade.layer_predictions(X))
    assert len(items) == len(layers)
    for k, labels in enumerate(items, start=1):
        assert labels.tolist() == DeepTree(tuple(layers[:k])).predict_batch(X).tolist()
    assert cascade.predict_batch(X).tolist() == items[-1].tolist()


def test_parity_cascade_exact_on_64_points():
    space = LatticeSpace(3, 4)
    cascade = build_parity_deeptree(4, 3)
    points = space.enumerate_points()
    assert np.array_equal(
        cascade.predict_batch(points.astype(float)), ParityConcept(space).labels(points)
    )


def test_dim_additivity():
    assert model_dim(Forest((Leaf(1), Leaf(1), Leaf(-1)))) == 3
    two_layer = DeepTree((PARITY_2x2, Node(3, 0.0, Leaf(1), Node(1, 1.0, Leaf(-1), Leaf(1)))))
    assert model_dim(two_layer) == 10 + 7
    assert model_dim(build_parity_deeptree(4, 2)) <= 80


def test_total_leaves():
    assert total_leaves(Forest((PARITY_2x2, Leaf(1)))) == 5
    assert total_leaves(DeepTree((Leaf(1), PARITY_2x2))) == 5


def test_size_budget():
    budget = SizeBudget(2)
    assert budget.max_dim == 13
    assert budget.admits(PARITY_2x2)  # dim 10
    big = Node(1, 1.0, PARITY_2x2, PARITY_2x2)  # dim 22
    assert not budget.admits(big)


def test_budget_enforced_on_construction():
    space_n = 1
    big = Node(1, 1.0, PARITY_2x2, PARITY_2x2)
    with pytest.raises(SizeBudgetExceeded):
        Forest((big,), ambient_dim=space_n)
    with pytest.raises(SizeBudgetExceeded):
        DeepTree((big, Leaf(1)), input_dim=space_n)
    # later layers get one extra ambient dimension
    DeepTree((Leaf(-1), Node(2, 0.0, Leaf(1), Leaf(-1))), input_dim=1)
    with pytest.raises(SizeBudgetExceeded):
        DeepTree((big,), input_dim=1)


def test_forest_requires_trees():
    with pytest.raises(ValueError):
        Forest(())
    with pytest.raises(ValueError):
        DeepTree(())


def test_cascade_forest_stages():
    layer1 = Forest((Leaf(0), Leaf(1), Leaf(0)))
    # second layer reads the vote-fraction columns appended after the raw input
    layer2 = Forest((Node(2, 0.5, Leaf(1), Leaf(0)),))
    cascade = CascadeForest((layer1, layer2), classes=(0, 1))
    X = np.array([[3.0]])
    stage2_inputs = cascade.augmented_inputs(X, 1)
    assert stage2_inputs.shape == (1, 3)
    assert stage2_inputs[0, 1] == pytest.approx(2 / 3)  # fraction voting class 0
    # the class-0 fraction 2/3 exceeds the 0.5 threshold, so layer 2 routes right
    assert cascade.predict(X[0]) == 0


@pytest.mark.parametrize("tie_rule", [TIE_NEGATIVE, TIE_POSITIVE, TIE_SEEDED])
def test_cascade_forest_point_matches_batch(tie_rule):
    # an even width and three classes leave ties in the last layer's vote
    rng = generator(7, "cascade-forest-point")
    X = rng.random((300, 3)) * 4
    y = np.floor(X[:, 0] + X[:, 1]).astype(np.int64) % 3
    trained = train_cascade(
        X, y, TrainConfig(max_depth=2, n_trees=4, cascade_depth=3, augment_mode="classvector")
    )
    cascade = CascadeForest(
        tuple(Forest(layer.trees, tie_rule=tie_rule, tie_seed=11) for layer in trained.layers),
        trained.classes,
    )
    rows = rng.random((200, 3)) * 4
    batch = cascade.predict_batch(rows)
    assert [cascade.predict(x) for x in rows] == batch.tolist()
    votes = cascade.layers[-1].member_predictions(cascade.augmented_inputs(rows, cascade.depth - 1))
    counts = np.stack([(votes == c).sum(axis=0) for c in cascade.classes], axis=1)
    tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.sum() >= 5, "the sample must exercise the tie rule"


def test_deeptree_point_query_rejects_narrow_rows():
    # layer 1 sees only the raw row, so feature n+1 is out of range there
    with pytest.raises(FeatureOutOfRange):
        DeepTree((Node(3, 0.0, Leaf(1), Leaf(-1)),)).predict([0.0, 0.0])
    assert DeepTree((Leaf(-1), Node(3, 0.0, Leaf(1), Leaf(-1)))).predict([0.0, 0.0]) == 1
