from collections import Counter

import numpy as np
import pytest

from deeptrees import ensemble
from deeptrees.construct import build_parity_deeptree
from deeptrees.ensemble import (
    CascadeForest,
    DeepTree,
    Forest,
    SizeBudget,
    model_dim,
    model_trees,
    predict_batch,
    resolve_votes,
    total_leaves,
)
from deeptrees.errors import FeatureOutOfRange
from deeptrees.lattice import LatticeSpace, ParityConcept
from deeptrees.learn import TrainConfig, train_cascade, train_forest
from deeptrees.rng import generator
from deeptrees.sexpr import parse_model, print_model
from deeptrees.tree import CHUNK_DEPTH, Leaf, Node, evaluate, evaluate_batch, point_router

from test_tree import DEEP, PARITY_2x2, deep_chain, random_tree


def test_majority_vote():
    forest = Forest((Leaf(1), Leaf(1), Leaf(-1)))
    assert forest.predict([0.0]) == 1


def test_tie_rules():
    for pair in ((Leaf(1), Leaf(-1)), (Leaf(-1), Leaf(1))):
        assert Forest(pair).predict([0.0]) == -1
        assert Forest(pair).predict_batch(np.zeros((2, 1))).tolist() == [-1, -1]


def reference_vote(votes):
    """Per-row majority over an (n_trees, m) vote matrix, and whether each
    row is tied; a tie goes to the lowest tied label."""
    out, tied_rows = [], []
    for column in votes.T:
        tally = Counter(column.tolist())
        best = max(tally.values())
        tied = [label for label, count in tally.items() if count == best]
        out.append(min(tied))
        tied_rows.append(len(tied) > 1)
    return np.array(out, dtype=np.int64), np.array(tied_rows)


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
def test_vote_matches_per_row_reference(labels):
    rng = generator(len(labels), "vote-reference")
    ties = 0
    for n_trees in (2, 4, 6):  # even widths and few trees per class: many ties
        votes = np.array(labels)[rng.integers(0, len(labels), size=(n_trees, 40))]
        X = np.column_stack([np.arange(40.0), rng.random(40)])
        expected, tied = reference_vote(votes)
        ties += int(tied.sum())
        forest = Forest(tuple(lookup_tree(v) for v in votes))
        assert np.array_equal(forest.predict_batch(X), expected)
        assert [forest.predict(x) for x in X] == expected.tolist()
        # a superset of the voted classes changes nothing
        classes = np.array(sorted(set(labels) | {min(labels) - 5, max(labels) + 5}))
        counts = np.stack([(votes == c).sum(axis=0) for c in classes], axis=1)
        assert np.array_equal(resolve_votes(classes, counts), expected)
    assert ties >= 10, "the sample must exercise ties"


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
    cascade = CascadeForest((Forest((Leaf(1), PARITY_2x2)), Forest((Leaf(-1),))), (-1, 1))
    assert model_trees(cascade) == [Leaf(1), PARITY_2x2, Leaf(-1)]
    assert (total_leaves(cascade), model_dim(cascade)) == (6, 12)
    for count in (model_trees, model_dim, total_leaves):
        with pytest.raises(TypeError):
            count([PARITY_2x2])


def test_size_budget():
    budget = SizeBudget(2)
    assert budget.max_dim == 13
    assert budget.admits(PARITY_2x2)  # dim 10
    big = Node(1, 1.0, PARITY_2x2, PARITY_2x2)  # dim 22
    assert not budget.admits(big)


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


def test_cascade_forest_point_matches_batch():
    # an even width and three classes leave ties in the last layer's vote
    rng = generator(7, "cascade-forest-point")
    X = rng.random((300, 3)) * 4
    y = np.floor(X[:, 0] + X[:, 1]).astype(np.int64) % 3
    cascade = train_cascade(
        X, y, TrainConfig(max_depth=2, n_trees=4, cascade_depth=3, augment_mode="classvector")
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


# ---------------------------------------------------------------------------
# single-row routing through the split table
# ---------------------------------------------------------------------------

MODEL_KINDS = ("forest", "deeptree", "cascade")
LABEL_SETS = ((-1, 1), (0, 1, 2), (-7, -2, 3, 10), (2, 5, 11, 40, 41))
N_RAW = 3


def reference_forest_point(forest, x):
    """The per-member Counter vote on Node objects that the split table
    replaced; a tie goes to the lowest tied label."""
    x = np.asarray(x, dtype=np.float64)
    votes = Counter(evaluate(tree, x) for tree in forest.trees)
    best = max(votes.values())
    return min(label for label, count in votes.items() if count == best)


def reference_point(model, x):
    """Single-row answer of any ensemble, one evaluate call per tree."""
    x = np.asarray(x, dtype=np.float64)
    if isinstance(model, Forest):
        return reference_forest_point(model, x)
    if isinstance(model, DeepTree):
        y = evaluate(model.layers[0], x)
        for layer in model.layers[1:]:
            y = evaluate(layer, np.append(x, float(y)))
        return y
    current = x
    for layer in model.layers[:-1]:
        votes = Counter(evaluate(tree, current) for tree in layer.trees)
        current = np.append(x, [votes[c] / len(layer.trees) for c in model.classes])
    return reference_forest_point(model.layers[-1], current)


def labelled_tree(rng, cuts, labels, splits):
    """Random tree with at most `splits` splits; feature j + 1 splits at a
    value drawn from cuts[j], and leaves carry labels drawn from labels."""
    if splits == 0 or rng.random() < 0.25:
        return Leaf(int(labels[int(rng.integers(len(labels)))]))
    j = int(rng.integers(len(cuts)))
    left = int(rng.integers(splits))
    return Node(
        j + 1, float(rng.choice(cuts[j])),
        labelled_tree(rng, cuts, labels, left), labelled_tree(rng, cuts, labels, splits - 1 - left),
    )


def random_model(rng, kind, labels):
    """A random forest, deep tree or class-vector cascade forest over N_RAW
    raw features on the half-integer grid 0..4.5, so rows hit thresholds
    exactly. Later layers also split on the augmented features: a previous
    label in a deep tree, vote fractions in a cascade forest."""
    raw = [np.arange(0.0, 5.0, 0.5)] * N_RAW
    label_cuts = np.array([v + d for v in labels for d in (-0.5, 0.0)])
    fraction_cuts = np.array([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0])

    def forest(cuts):
        n_trees = int(rng.integers(1, 8))
        trees = tuple(labelled_tree(rng, cuts, labels, int(rng.integers(7))) for _ in range(n_trees))
        return Forest(trees)

    depth = int(rng.integers(1, 5))
    if kind == "forest":
        return forest(raw)
    if kind == "deeptree":
        layers = [labelled_tree(rng, raw, labels, int(rng.integers(7)))]
        layers += [
            labelled_tree(rng, raw + [label_cuts], labels, int(rng.integers(7)))
            for _ in range(depth - 1)
        ]
        return DeepTree(tuple(layers))
    layers = [forest(raw)] + [forest(raw + [fraction_cuts] * len(labels)) for _ in range(depth - 1)]
    return CascadeForest(tuple(layers), labels)


def random_rows(rng, m, nan_share=0.1):
    X = rng.integers(0, 10, size=(m, N_RAW)) / 2.0
    X[rng.random(X.shape) < nan_share] = np.nan
    return X


def assert_point_answers(model, X):
    """Point answers equal the reference walk and the batch prediction."""
    point = [model.predict(x) for x in X]
    assert all(type(label) is int for label in point)
    assert point == [reference_point(model, x) for x in X]
    assert point == predict_batch(model, X).tolist()


def forest_ties(forest, X) -> int:
    votes = forest.member_predictions(X)
    counts = np.stack([(votes == c).sum(axis=0) for c in np.unique(votes)], axis=1)
    return int(((counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1).sum())


@pytest.mark.parametrize("labels", LABEL_SETS)
def test_point_router_matches_reference_and_batch(labels, monkeypatch):
    # chunk depths 1 and 2 send most of the same models through the trampoline
    for chunk_depth in (CHUNK_DEPTH, 1, 2):
        monkeypatch.setattr("deeptrees.tree.CHUNK_DEPTH", chunk_depth)
        rng = generator(len(labels), "point-router")
        ties = leaf_members = 0
        for kind in MODEL_KINDS:
            for trial in range(12):
                model = random_model(rng, kind, labels)
                X = random_rows(rng, 40)
                assert_point_answers(model, X)
                if kind == "forest":
                    ties += forest_ties(model, X)
                    leaf_members += sum(isinstance(t, Leaf) for t in model.trees)
        assert ties >= 10 and leaf_members >= 3, "the sample must exercise ties and leaf-only members"


def test_point_router_keeps_exact_thresholds():
    """Thresholds are written into the router's source as exact literals:
    signed zero, the smallest subnormal, the largest finite doubles,
    adjacent doubles and a numpy scalar, with numpy-integer features and
    labels."""
    big, below_one = 1.7976931348623157e308, float(np.nextafter(1.0, 0.0))
    thresholds = (-0.0, 5e-324, big, -big, below_one, 1.0, np.float64(0.1))
    values = [
        -np.inf, -big, np.nextafter(-big, 0.0), -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-323,
        0.1, np.nextafter(0.1, 0.0), np.nextafter(0.1, 1.0), below_one, 1.0,
        np.nextafter(1.0, 2.0), np.nextafter(big, 0.0), big, np.inf, np.nan,
    ]
    X = np.array(values)[:, None]
    one, two = np.int64(1), np.int64(2)
    for t in thresholds:
        stump = Node(one, t, Leaf(np.int64(-4)), Leaf(np.int64(9)))
        # layer 2 reads layer 1's label, then splits feature 1 again
        second = Node(two, np.float64(0.0), Leaf(np.int64(3)), Node(one, t, Leaf(np.int64(-4)), Leaf(one)))
        for model in (Forest((stump,)), DeepTree((stump, second))):
            assert_point_answers(model, X)


def test_point_router_on_trained_models():
    rng = generator(8, "point-router-trained")
    X = rng.random((400, 3)) * 4
    y = np.array([-3, 4, 9])[np.floor(X[:, 0] + X[:, 2]).astype(np.int64) % 3]
    models = (
        train_forest(X, y, TrainConfig(max_depth=4, seed=2, n_trees=6, feature_subsample="sqrt")),
        train_cascade(X, y, TrainConfig(max_depth=3, seed=2, cascade_depth=3)),
        train_cascade(
            X, y, TrainConfig(max_depth=2, seed=2, n_trees=4, cascade_depth=2, augment_mode="classvector")
        ),
    )
    rows = rng.random((150, 3)) * 4
    rows[::7, 1] = np.nan
    for model in models:
        assert_point_answers(model, rows)


def test_point_router_on_a_deep_chain():
    chain = deep_chain(DEEP)
    values = np.array([1.0, 2.0, DEEP - 1.0, DEEP, DEEP + 1.0, np.nan])
    X = values[:, None]
    forest = Forest((chain, Leaf(-1), chain))
    # layer 2 reads the chain's label: -1 goes left to a leaf, 1 walks the chain again
    deeptree = DeepTree((chain, Node(2, 0.0, Leaf(7), chain)))
    assert [forest.predict(x) for x in X] == [1, -1, 1, -1, 1, 1]
    assert [deeptree.predict(x) for x in X] == [1, 7, 1, 7, 1, 1]
    for model in (forest, deeptree):
        assert_point_answers(model, X)
    # below its first CHUNK_DEPTH levels, each chain fills whole chunk functions
    chunks = -(-DEEP // CHUNK_DEPTH) - 1
    for model, labels in ((forest, (-1, 1)), (deeptree, (-1, 1, 7))):
        route, model_labels, _ = model._router
        assert len(route.__globals__["C"]) == 2 * chunks and model_labels == labels


def test_nan_routes_right_in_point_and_batch_queries():
    stump = Node(1, 0.5, Leaf(-1), Leaf(1))
    X = np.array([[np.nan], [0.0], [1.0]])
    assert [evaluate(stump, x) for x in X] == evaluate_batch(stump, X).tolist() == [1, -1, 1]
    for model in (Forest((stump,)), DeepTree((stump, Node(2, 0.0, Leaf(3), Leaf(4))))):
        assert_point_answers(model, X)


def test_point_queries_reject_narrow_rows_up_front():
    # every out-of-range read sits on a branch the row never reaches
    late = DeepTree((Leaf(1), Node(1, 5.0, Leaf(1), Node(4, 0.0, Leaf(1), Leaf(-1)))))
    first = Forest((Node(1, 5.0, Leaf(0), Node(3, 0.5, Leaf(0), Leaf(1))),))
    wide = Forest((Node(1, 5.0, Leaf(0), Node(4, 0.5, Leaf(0), Leaf(1))),))
    cascades = (CascadeForest((first, wide), (0, 1)), CascadeForest((wide, first), (0, 1)))
    x = np.zeros(2)
    for model in (late,) + cascades:
        with pytest.raises(FeatureOutOfRange):
            model.predict(x)
        with pytest.raises(FeatureOutOfRange):
            predict_batch(model, x[None, :])
    assert late.predict(np.zeros(3)) == 1
    assert CascadeForest((wide, wide), (0, 1)).predict(np.zeros(4)) == 0


def test_point_query_keeps_model_identity():
    rng = generator(9, "point-identity")
    X = rng.random((200, 3)) * 4
    y = np.floor(X[:, 0] + X[:, 1]).astype(np.int64) % 2
    models = (
        train_forest(X, y, TrainConfig(max_depth=3, seed=1, n_trees=5)),
        train_cascade(X, y, TrainConfig(max_depth=3, seed=1, cascade_depth=3)),
        train_cascade(
            X, y, TrainConfig(max_depth=2, seed=1, n_trees=3, cascade_depth=2, augment_mode="classvector")
        ),
    )
    for model in models:
        copy = parse_model(print_model(model))
        model.predict(X[0])
        assert model == copy and hash(model) == hash(copy) and repr(model) == repr(copy)


def test_models_build_no_table_until_a_point_query(monkeypatch):
    built = []

    def counting_router(trees, chained=False):
        built.append(len(trees))
        return point_router(trees, chained)

    monkeypatch.setattr(ensemble, "point_router", counting_router)
    rng = generator(10, "lazy-table")
    X = rng.random((100, 2)) * 4
    y = (X[:, 0] > 2).astype(np.int64)
    forest = train_forest(X, y, TrainConfig(max_depth=2, seed=1, n_trees=3))
    deeptree = train_cascade(X, y, TrainConfig(max_depth=2, seed=1, cascade_depth=2))
    cascade = train_cascade(
        X, y, TrainConfig(max_depth=2, seed=1, n_trees=3, cascade_depth=2, augment_mode="classvector")
    )
    for model in (forest, deeptree, cascade):
        model.predict_batch(X)
    assert built == []
    for _ in range(3):
        forest.predict(X[0])
        deeptree.predict(X[0])
    assert built == [3, 2]
    cascade.predict(X[0])
    assert built == [3, 2, 3, 3]
