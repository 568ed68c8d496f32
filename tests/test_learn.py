import heapq
import math
from dataclasses import replace

import numpy as np
import pytest

from deeptrees import learn
from deeptrees.data_io import SimulationSpec, generate_simulation
from deeptrees.ensemble import (
    CascadeForest,
    DeepTree,
    model_dim,
    model_trees,
    predict_batch,
    total_leaves,
)
from deeptrees.errors import (
    DeepTreesError,
    EmptyDataset,
    FeatureOutOfRange,
    NonFiniteFeature,
    NonIntegralLabel,
    PreconditionViolated,
)
from deeptrees.lattice import LatticeSpace, ParityConcept
from deeptrees.learn import (
    TrainConfig,
    accuracy,
    depth_leaf_counts,
    predict,
    train_cascade,
    train_cascade_forest,
    train_forest,
    train_forest_grown,
    train_label_cascades,
    train_tree,
    train_tree_grown,
    truncate_depth,
    truncate_leaves,
)
from deeptrees.rng import generator
from deeptrees.sexpr import parse_model, print_model
from deeptrees.tree import (
    Leaf,
    Node,
    depth_labels,
    dim_from_leaves,
    evaluate_batch,
    leaf_count,
    max_feature,
    walk,
)

PLAIN = TrainConfig(bootstrap=False, feature_subsample="all")


def lattice_data(n=2, p=2):
    space = LatticeSpace(n, p)
    points = space.enumerate_points()
    return points.astype(float), ParityConcept(space).labels(points)


def random_data(seed, rows=300, cols=4, classes=(-1, 1)):
    rng = generator(seed, "learn-data")
    X = rng.random((rows, cols))
    y = np.array(classes)[rng.integers(0, len(classes), rows)]
    return X, y


def test_parity_lattice_depth2():
    X, y = lattice_data()
    cfg = TrainConfig(max_depth=2, bootstrap=False, feature_subsample="all")
    tree = train_tree(X, y, cfg)
    assert accuracy(tree, X, y) == 1.0
    assert leaf_count(tree) == 4


def test_parity_lattice_depth1_is_half_right():
    X, y = lattice_data()
    cfg = TrainConfig(max_depth=1, bootstrap=False, feature_subsample="all")
    tree = train_tree(X, y, cfg)
    assert accuracy(tree, X, y) == 0.5


def test_pure_data_single_leaf():
    X = np.array([[1.0], [2.0], [3.0]])
    y = np.array([7, 7, 7])
    assert train_tree(X, y, PLAIN) == Leaf(7)


def test_empty_dataset():
    with pytest.raises(EmptyDataset):
        train_tree(np.zeros((0, 2)), np.zeros(0, dtype=int), PLAIN)
    with pytest.raises(EmptyDataset):
        train_forest(np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig())
    with pytest.raises(EmptyDataset):
        train_cascade(np.zeros((0, 2)), np.zeros(0, dtype=int), TrainConfig())


def test_thresholds_are_midpoints():
    X = np.array([[1.0], [2.0], [4.0], [8.0]])
    y = np.array([-1, -1, 1, 1])
    tree = train_tree(X, y, PLAIN)
    assert tree == Node(1, 3.0, Leaf(-1), Leaf(1))


def test_leaf_tie_goes_to_lowest_class():
    X = np.array([[1.0], [1.0]])
    y = np.array([4, 2])
    assert train_tree(X, y, PLAIN) == Leaf(2)


def test_training_is_deterministic():
    X, y = random_data(20)
    cfg = TrainConfig(max_depth=6, seed=9, n_trees=5)
    assert train_forest(X, y, cfg) == train_forest(X, y, cfg)
    assert train_tree(X, y, PLAIN) == train_tree(X, y, PLAIN)
    cas_cfg = TrainConfig(max_depth=4, cascade_depth=3, seed=9)
    assert train_cascade(X, y, cas_cfg) == train_cascade(X, y, cas_cfg)


def test_truncate_depth_equals_retraining():
    X, y = random_data(21)
    grown = train_tree_grown(X, y, TrainConfig(max_depth=8, bootstrap=False, feature_subsample="all"))
    for depth in range(1, 9):
        direct = train_tree(X, y, TrainConfig(max_depth=depth, bootstrap=False, feature_subsample="all"))
        assert truncate_depth(grown, depth) == direct


def test_truncate_depth_equals_retraining_with_subsampling():
    X, y = random_data(22, rows=400, cols=6)
    cfg15 = TrainConfig(max_depth=7, seed=3, n_trees=3, bootstrap=True, feature_subsample="sqrt")
    grown = train_forest_grown(X, y, cfg15)
    for depth in (1, 3, 5):
        cfg_d = TrainConfig(max_depth=depth, seed=3, n_trees=3, bootstrap=True, feature_subsample="sqrt")
        direct = train_forest_grown(X, y, cfg_d)
        assert [truncate_depth(g, depth) for g in grown] == direct


def test_truncation_keeps_majority_and_order():
    """Truncation equals retraining also in what == ignores: every split's
    majority and best-first order. Truncating twice equals truncating once."""
    X, y = random_data(23, rows=240, cols=5, classes=(-1, 0, 2))
    sqrt_forest = TrainConfig(seed=5, n_trees=3, feature_subsample="sqrt")
    growers = (
        lambda **budget: [train_tree_grown(X, y, replace(PLAIN, **budget))],
        lambda **budget: train_forest_grown(X, y, replace(sqrt_forest, **budget)),
    )
    for grow in growers:
        grown = grow(max_depth=8)
        by_depth = [[truncate_depth(g, b) for g in grown] for b in range(9)]
        for b, truncated in enumerate(by_depth):
            assert_same_growth(truncated, grow(max_depth=b))
            if b < 8:
                assert_same_growth([truncate_depth(g, b) for g in by_depth[b + 1]], truncated)
        grown = grow(max_leaves=24)
        by_leaves = [[truncate_leaves(g, L) for g in grown] for L in range(1, 25)]
        for L, truncated in enumerate(by_leaves, start=1):
            assert_same_growth(truncated, grow(max_leaves=L))
            if L < 24:
                assert_same_growth([truncate_leaves(g, L) for g in by_leaves[L]], truncated)


def _grown_corpus(seed):
    """Grown trees of every kind on one random corpus, with held-out rows.

    The held-out rows spread past the training range, and a three-row set
    leaves most branches without rows.
    """
    classes = ((-1, 1), (-4, 0, 9), (2, 3, 5, 7))[seed % 3]
    X, y = random_data(seed, rows=160, cols=3, classes=classes)
    X = np.round(X * (2 + seed % 4))  # repeated values: fewer cuts, more ties
    rng = generator(seed, "depth-labels-holdout")
    held_out = (rng.random((60, 3)) * 8 - 2, rng.random((3, 3)) * 8 - 2)
    grown = [
        train_tree_grown(X, y, PLAIN),
        train_tree_grown(X, y, TrainConfig(max_depth=3, bootstrap=False)),
        *train_forest_grown(
            X, y, TrainConfig(seed=seed, n_trees=3, bootstrap=True, feature_subsample="sqrt")
        ),
        *train_forest_grown(
            X, y, TrainConfig(max_depth=5, seed=seed, n_trees=2, feature_subsample="sqrt")
        ),
    ]
    return grown, (X, *held_out)


@pytest.mark.parametrize("seed", range(6))
def test_depth_labels_equal_per_depth_truncation(seed):
    grown, matrices = _grown_corpus(seed)
    for g in grown:
        for max_depth in (0, 2, 12):
            leaves = depth_leaf_counts(g, max_depth)
            assert leaves.shape == (max_depth + 1,)
            for b in range(max_depth + 1):
                truncated = truncate_depth(g, b)
                assert leaves[b] == total_leaves(truncated)
                assert dim_from_leaves(leaves[b]) == model_dim(truncated)
            for X in matrices:
                labels = depth_labels(g, X, max_depth)
                assert labels.shape == (max_depth + 1, len(X))
                for b in range(max_depth + 1):
                    assert np.array_equal(labels[b], evaluate_batch(truncate_depth(g, b), X))


@pytest.mark.parametrize("seed", range(3))
def test_depth_labels_reject_narrow_rows_like_evaluate_batch(seed):
    grown, (X, *_) = _grown_corpus(seed)
    for g in grown:
        for max_depth in (0, 1, 12):
            for width in range(X.shape[1]):
                narrow = X[:5, :width]
                try:
                    evaluate_batch(truncate_depth(g, max_depth), narrow)
                except FeatureOutOfRange:
                    with pytest.raises(FeatureOutOfRange):
                        depth_labels(g, narrow, max_depth)
                else:
                    depth_labels(g, narrow, max_depth)


def test_forest_member_streams_are_prefix_stable():
    X, y = random_data(23)
    big = train_forest(X, y, TrainConfig(max_depth=4, seed=5, n_trees=6))
    small = train_forest(X, y, TrainConfig(max_depth=4, seed=5, n_trees=3))
    assert big.trees[:3] == small.trees


def test_best_first_budget_is_prefix():
    X, y = random_data(24, rows=500)
    cfg_big = TrainConfig(max_leaves=12, bootstrap=False, feature_subsample="all")
    grown = train_tree_grown(X, y, cfg_big)
    for budget in range(2, 13):
        cfg_small = TrainConfig(max_leaves=budget, bootstrap=False, feature_subsample="all")
        direct = train_tree(X, y, cfg_small)
        assert truncate_leaves(grown, budget) == direct
        assert leaf_count(direct) <= budget


def test_truncate_depth_rejects_collapsing_a_split_with_no_majority():
    parsed = parse_model("(node 1 1.5 (leaf 1) (node 1 2.5 (leaf -1) (leaf 1)))")
    for max_depth in (0, 1):
        with pytest.raises(PreconditionViolated, match="trained tree"):
            truncate_depth(parsed, max_depth)
    for max_depth in (2, 3):
        assert truncate_depth(parsed, max_depth) == parsed
        assert parse_model(print_model(truncate_depth(parsed, max_depth))) == parsed


def test_truncate_leaves_rejects_a_depth_first_tree():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    grown = train_tree_grown(X, np.array([1, -1, 1, -1]), TrainConfig(bootstrap=False))
    with pytest.raises(PreconditionViolated, match="best-first tree"):
        truncate_leaves(grown, 2)


def test_training_accuracy_monotone_in_leaf_budget():
    X, y = random_data(25, rows=400)
    previous = 0.0
    for budget in range(1, 20):
        cfg = TrainConfig(max_leaves=budget, bootstrap=False, feature_subsample="all")
        tree = train_tree(X, y, cfg)
        current = accuracy(tree, X, y)
        assert current >= previous - 1e-12
        previous = current


def test_degenerate_forest_equals_tree():
    X, y = random_data(26)
    cfg = TrainConfig(max_depth=5, n_trees=1, bootstrap=False, feature_subsample="all")
    forest = train_forest(X, y, cfg)
    tree = train_tree(X, y, TrainConfig(max_depth=5, bootstrap=False, feature_subsample="all"))
    assert forest.trees == (tree,)
    assert np.array_equal(forest.predict_batch(X), predict_batch(tree, X))


def test_cascade_depth1_equals_tree():
    X, y = random_data(27)
    cfg = TrainConfig(max_depth=4, cascade_depth=1)
    cascade = train_cascade(X, y, cfg)
    assert isinstance(cascade, DeepTree)
    tree = train_tree(X, y, TrainConfig(max_depth=4, bootstrap=False, feature_subsample="all"))
    assert cascade.layers == (tree,)


def test_cascade_later_layers_see_one_extra_feature():
    X, y = random_data(28, cols=3)
    cascade = train_cascade(X, y, TrainConfig(max_depth=4, cascade_depth=3))
    assert isinstance(cascade, DeepTree)
    assert max_feature(cascade.layers[0]) <= 3
    assert all(max_feature(layer) <= 4 for layer in cascade.layers[1:])
    # predictions flow: evaluating the cascade works on raw width 3
    assert len(cascade.predict_batch(X)) == len(X)


def test_cascade_first_layer_injection():
    X, y = random_data(29)
    cfg = TrainConfig(max_depth=3, cascade_depth=2)
    plain = train_cascade(X, y, cfg)
    tree = train_tree(X, y, TrainConfig(max_depth=3, bootstrap=False, feature_subsample="all"))
    injected = train_label_cascades(X, y, cfg, [3], first_layer=tree)[0]
    assert plain == injected
    # a first layer whose labels are no training labels reaches layer 2 as is
    foreign = Node(1, 0.5, Leaf(300), Leaf(-7))
    column = evaluate_batch(foreign, X).astype(np.float64)
    second = train_tree(np.column_stack((X, column)), y, TrainConfig(max_depth=3, bootstrap=False))
    assert train_label_cascades(X, y, cfg, [3], first_layer=foreign)[0].layers == (foreign, second)


def test_classvector_cascade_multiclass():
    rng = generator(30, "classvector")
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    X = np.concatenate([rng.normal(c, 0.3, size=(60, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 60)
    cfg = TrainConfig(max_depth=4, cascade_depth=2, n_trees=5, seed=2)
    cascade = train_cascade_forest(X, y, cfg)
    assert isinstance(cascade, CascadeForest)
    assert cascade.classes == (0, 1, 2)
    assert accuracy(cascade, X, y) > 0.95
    # layer 2 may reference the three vote-fraction columns
    widths = [max_feature(t) for t in cascade.layers[1].trees]
    assert max(widths) <= 2 + 3


def test_product_root_split_matches_exact_argmax():
    # sampled data should reproduce the exact root choice: feature 1 near 2.5
    data = generate_simulation(SimulationSpec(n=2, sample_count=40_000, seed=4))
    tree = train_tree(data.train_X, data.train_y, TrainConfig(max_depth=6, bootstrap=False, feature_subsample="all"))
    assert isinstance(tree, Node)
    assert tree.feature == 1
    assert 2.0 < tree.threshold < 3.0


def test_predict_and_accuracy_trivia():
    X, y = random_data(32)
    tree = train_tree(X, y, TrainConfig(max_depth=6, bootstrap=False, feature_subsample="all"))
    assert accuracy(tree, X, predict(tree, X)) == 1.0
    balanced_y = np.array([-1, 1] * 50)
    constant = Leaf(1)
    assert accuracy(constant, np.zeros((100, 1)), balanced_y) == 0.5
    flipped = np.array([-v for v in predict(tree, X)])
    assert accuracy(tree, X, flipped) == pytest.approx(1.0 - accuracy(tree, X, np.array(predict(tree, X))))


def test_multiclass_forest_tie_breaks_low():
    forest_members = (Leaf(2), Leaf(0), Leaf(2), Leaf(0))
    from deeptrees.ensemble import Forest

    forest = Forest(forest_members)
    assert forest.predict([0.0]) == 0


def test_splitter_agrees_with_reference_implementation():
    # independent cross-check: on tie-free nodes a best-gain midpoint
    # splitter is unique, so the trees must coincide; divergences come
    # only from equal-gain ties, which the reference breaks by a random
    # feature order while this trainer picks the lowest feature
    sklearn_tree = pytest.importorskip("sklearn.tree")
    rng = np.random.default_rng(0)
    structure_matches = 0
    trials = 20
    for _ in range(trials):
        # quantize so the reference's float32 view sees identical values
        X = np.round(rng.random((200, 3)), 3).astype(np.float32).astype(np.float64)
        y = np.where(X[:, 0] + 0.5 * X[:, 1] + 0.2 * rng.random(200) > 0.8, 1, -1)
        depth = int(rng.integers(1, 5))
        mine = train_tree(X, y, TrainConfig(max_depth=depth, bootstrap=False, feature_subsample="all"))
        reference = sklearn_tree.DecisionTreeClassifier(
            max_depth=depth, criterion="gini", random_state=0
        ).fit(X, y)

        def convert(node_id):
            t = reference.tree_
            if t.children_left[node_id] == -1:
                counts = t.value[node_id][0]
                return Leaf(int(reference.classes_[int(np.argmax(counts))]))
            return Node(
                int(t.feature[node_id]) + 1,
                float(t.threshold[node_id]),
                convert(t.children_left[node_id]),
                convert(t.children_right[node_id]),
            )

        def normalize(tree):
            if isinstance(tree, Leaf):
                return ("leaf", tree.label)
            return ("node", tree.feature, round(tree.threshold, 5),
                    normalize(tree.left), normalize(tree.right))

        if normalize(mine) == normalize(convert(0)):
            structure_matches += 1
    assert structure_matches >= 10, f"only {structure_matches}/{trials} trees matched"


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(n_trees=0)
    with pytest.raises(ValueError):
        TrainConfig(cascade_depth=0)
    with pytest.raises(ValueError):
        TrainConfig(feature_subsample="half")


def test_alternating_labels_grow_a_chain_of_any_depth():
    rows = 4000
    X = np.arange(rows, dtype=np.float64)[:, None]
    y = np.where(np.arange(rows) % 2 == 0, -1, 1)
    tree = train_tree(X, y, PLAIN)
    assert leaf_count(tree) == rows
    assert max(depth for _, depth in walk(tree)) == rows - 1
    assert np.array_equal(evaluate_batch(tree, X), y)
    shallow = truncate_depth(tree, 10)
    assert shallow == train_tree(X, y, TrainConfig(max_depth=10, bootstrap=False))
    assert truncate_depth(tree, rows) == tree
    sample = X[::397]
    labels = depth_labels(tree, sample, rows - 1)
    for budget in (0, 1, 10, rows // 2, rows - 1):
        assert np.array_equal(labels[budget], evaluate_batch(truncate_depth(tree, budget), sample))
    assert depth_leaf_counts(tree, rows - 1)[[0, 10, rows - 1]].tolist() == [1, 11, rows]


ADJACENT = 1.0 + 2.0**-52


@pytest.mark.parametrize(
    "lower, upper", [(ADJACENT, np.nextafter(ADJACENT, 2.0)), (1e308, 1.7e308)],
    ids=["adjacent", "overflow"],
)
def test_threshold_separates_rows_whose_midpoint_fails(lower, upper):
    """The midpoint of adjacent doubles rounds up to the upper one, and that
    of huge ones overflows; either way the threshold is the lower value, so
    the split separates the rows it was scored on."""
    X, y = np.array([[lower], [upper]]), np.array([0, 1])
    separated = Node(1, lower, Leaf(0), Leaf(1))
    assert train_tree(X, y, TrainConfig(max_depth=4, bootstrap=False)) == separated
    assert train_tree(X, y, PLAIN) == separated
    assert train_tree(X, y, TrainConfig(max_leaves=4, bootstrap=False)) == separated
    forest = train_forest(X, y, TrainConfig(n_trees=2, bootstrap=False, feature_subsample="sqrt"))
    assert forest.trees == (separated, separated)


def reference_label_cascade(X, y, budget, depth):
    """A label cascade trained one budget at a time: each layer a plain tree
    on the raw rows plus the layer below's training predictions."""
    layers, current = [], X
    for _ in range(depth):
        tree = train_tree(current, y, TrainConfig(max_depth=budget, bootstrap=False))
        layers.append(tree)
        current = np.column_stack((X, evaluate_batch(tree, current).astype(np.float64)))
    return DeepTree(tuple(layers))


def test_label_cascades_of_every_budget_equal_one_at_a_time(monkeypatch):
    data = generate_simulation(SimulationSpec(n=2, sample_count=600, seed=5))
    X, y = data.train_X, data.train_y
    budgets = [3, 1, 2, 4, 6, 8, 12, None, 6]
    members = []
    grow = learn._Grower.grow

    def counting(self, seeds, *args):
        members.append(len(seeds))
        return grow(self, seeds, *args)

    with monkeypatch.context() as patch:
        patch.setattr(learn._Grower, "grow", counting)
        cascades = train_label_cascades(X, y, TrainConfig(cascade_depth=4, seed=3), budgets)
    assert cascades == [reference_label_cascade(X, y, b, 4) for b in budgets]
    # one member on layer 1, and budgets whose inputs coincide share one
    assert members[0] == 1 and len(members) == 4
    assert sum(members[1:]) < 3 * len(set(budgets))
    # an injected first layer grown at the largest budget changes nothing
    grown = train_tree_grown(X, y, PLAIN)
    cfg = TrainConfig(cascade_depth=4, seed=3)
    assert train_label_cascades(X, y, cfg, budgets, first_layer=grown) == cascades


def test_label_cascades_with_a_leaf_budget():
    X, y = random_data(34, rows=200)
    cfg = TrainConfig(max_leaves=5, cascade_depth=3)
    one = train_cascade(X, y, replace(cfg, max_depth=3))
    assert train_label_cascades(X, y, cfg, [3, 3]) == [one, one]
    assert one.layers[0] == train_tree(X, y, TrainConfig(max_depth=3, max_leaves=5, bootstrap=False))
    with pytest.raises(ValueError):
        train_label_cascades(X, y, cfg, [2, 3])


def test_trained_thresholds_are_python_floats():
    X, y = random_data(31, rows=200, cols=4, classes=(0, 1, 2))
    models = [
        train_tree(X, y, PLAIN),
        train_tree(X, y, TrainConfig(max_leaves=6, bootstrap=False)),
        train_forest(X, y, TrainConfig(max_depth=4, n_trees=5, seed=2, feature_subsample="sqrt")),
        train_cascade(X, y, TrainConfig(max_depth=3, cascade_depth=3, seed=4)),
        train_cascade_forest(X, y, TrainConfig(max_depth=3, n_trees=3, cascade_depth=2)),
    ]
    for model in models:
        nodes = [node for tree in model_trees(model) for node, _ in walk(tree) if isinstance(node, Node)]
        assert nodes
        assert all(type(node.threshold) is float for node in nodes)
        assert "np.float64" not in repr(nodes[0])
        assert parse_model(print_model(model)) == model


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_training_rejects_non_finite_features(value):
    X, y = lattice_data(2, 2)
    X = np.tile(X, (2, 1))
    y = np.tile(y, 2)
    X[5, 1] = value
    trainers = (
        lambda: train_tree(X, y),
        lambda: train_tree_grown(X, y, PLAIN),
        lambda: train_forest(X, y, TrainConfig(n_trees=3)),
        lambda: train_cascade(X, y, TrainConfig(cascade_depth=2)),
        lambda: train_cascade_forest(X, y, TrainConfig(n_trees=2, cascade_depth=2)),
    )
    for train in trainers:
        with pytest.raises(NonFiniteFeature) as caught:
            train()
        assert (caught.value.row, caught.value.feature) == (5, 2)
        assert isinstance(caught.value, DeepTreesError)
        assert "row 5 feature 2" in str(caught.value)


@pytest.mark.parametrize("value", [0.5, 1.7, np.nan, np.inf, -np.inf, 2.0**70])
def test_training_rejects_non_integral_labels(value):
    X, y = lattice_data(2, 2)
    X = np.tile(X, (2, 1))
    y = np.tile(y, 2).astype(np.float64)
    y[5] = value
    trainers = (
        lambda: train_tree(X, y),
        lambda: train_tree_grown(X, y, PLAIN),
        lambda: train_tree(X, y, TrainConfig(max_leaves=3, bootstrap=False)),
        lambda: train_forest(X, y, TrainConfig(n_trees=3)),
        lambda: train_forest_grown(X, y, TrainConfig(n_trees=3)),
        lambda: train_cascade(X, y, TrainConfig(cascade_depth=2)),
        lambda: train_cascade_forest(X, y, TrainConfig(n_trees=2, cascade_depth=2)),
    )
    for train in trainers:
        with pytest.raises(NonIntegralLabel) as caught:
            train()
        assert caught.value.row == 5
        assert isinstance(caught.value, DeepTreesError)
        assert "row 5 label" in str(caught.value)


def test_integral_float_labels_train_like_integers():
    X, y = random_data(33, rows=120, classes=(-1, 0, 2))
    assert train_tree(X, y.astype(np.float64), PLAIN) == train_tree(X, y, PLAIN)
    cfg = TrainConfig(max_depth=3, cascade_depth=2, seed=1)
    assert train_cascade(X, y.astype(np.float64), cfg) == train_cascade(X, y, cfg)


# ---------------------------------------------------------------------------
# reference grower: the per-node grower the batch grower replaced. Each node
# sorts each feature of its own rows, one feature at a time; depth-first
# growth pops a stack, best-first growth a gain heap.
# ---------------------------------------------------------------------------


def _reference_feature_best(X, y_codes, idx, counts, parent_gini, f):
    """Best (gain, feature, threshold) along 0-based feature f, or None."""
    m = idx.size
    vals = X[idx, f]
    order = np.argsort(vals, kind="stable")
    sv = vals[order]
    boundaries = np.nonzero(sv[:-1] < sv[1:])[0]
    if boundaries.size == 0:
        return None
    sy = y_codes[idx][order]
    left_sizes = (boundaries + 1).astype(np.float64)
    right_sizes = m - left_sizes
    left_sq = np.zeros(boundaries.size, dtype=np.float64)
    right_sq = np.zeros(boundaries.size, dtype=np.float64)
    for c, total_c in enumerate(counts):
        if total_c == 0:
            continue
        cum_c = np.cumsum(sy == c)
        left_c = cum_c[boundaries].astype(np.float64)
        left_sq += left_c**2
        right_sq += (total_c - left_c) ** 2
    gini_left = 1.0 - left_sq / left_sizes**2
    gini_right = 1.0 - right_sq / right_sizes**2
    gains = parent_gini - (left_sizes * gini_left + right_sizes * gini_right) / m
    pos = int(np.argmax(gains))  # first maximum -> lowest threshold
    b = int(boundaries[pos])
    lower, upper = float(sv[b]), float(sv[b + 1])
    middle = (lower + upper) / 2.0  # the lower value when this overflows or rounds up
    return float(gains[pos]), f + 1, middle if math.isfinite(middle) and middle < upper else lower


def _reference_better(cand, best):
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


def reference_grow(X, y, cfg, rows, tree_seed):
    """The tree one member grows on X[rows], one node at a time."""
    X = np.asarray(X, dtype=np.float64)
    classes = np.unique(np.asarray(y, dtype=np.int64))
    y_codes = np.searchsorted(classes, np.asarray(y, dtype=np.int64))
    n_features = X.shape[1]
    n_examine = max(1, math.isqrt(n_features)) if cfg.feature_subsample == "sqrt" else n_features

    def best_split(idx, counts, node_id):
        parent_gini = 1.0 - float(np.sum((counts / idx.size) ** 2))
        if cfg.feature_subsample == "all":
            order = range(n_features)
        else:
            order = generator(tree_seed, "node", node_id).permutation(n_features)
        best = None
        for examined, f in enumerate(order, start=1):
            cand = _reference_feature_best(X, y_codes, idx, counts, parent_gini, int(f))
            if cand is not None and _reference_better(cand, best):
                best = cand
            if examined >= n_examine and best is not None:
                break
        return best

    best_first = cfg.max_leaves is not None
    push, pop = (heapq.heappush, heapq.heappop) if best_first else (list.append, list.pop)
    majority: dict = {}
    splits: dict = {}
    frontier: list = []

    def admit(idx, depth, node_id):
        counts = np.bincount(y_codes[idx], minlength=len(classes))
        majority[node_id] = int(classes[int(np.argmax(counts))])
        if int(counts.max()) == idx.size:
            return
        if cfg.max_depth is not None and depth >= cfg.max_depth:
            return
        best = best_split(idx, counts, node_id)
        if best is not None:
            push(frontier, (-best[0], len(majority), node_id, depth, idx, best))

    admit(np.asarray(rows), 0, 1)
    while frontier and not (best_first and len(splits) + 1 >= cfg.max_leaves):
        _, _, node_id, depth, idx, (_, feature, threshold) = pop(frontier)
        splits[node_id] = (feature, threshold, len(splits) if best_first else None)
        go_left = X[idx, feature - 1] <= threshold
        children = [(idx[go_left], 2 * node_id), (idx[~go_left], 2 * node_id + 1)]
        for child_idx, child_id in (children if best_first else reversed(children)):
            admit(child_idx, depth + 1, child_id)
    return learn._assemble(learn._levels_by_id(majority, splits))[0]


class ReferenceGrower:
    """Stands in for learn._Grower: each member grown alone by reference_grow,
    on the raw matrix plus its own column as the last feature, if it has one."""

    def __init__(self, X, y, cfg):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = y
        self.cfg = cfg

    def grow(self, seeds, member_rows, max_depths=None, own=None):
        trees = []
        for t, seed in enumerate(seeds):
            X = self.X if own is None else np.column_stack((self.X, own[t]))
            cfg = self.cfg if max_depths is None else replace(self.cfg, max_depth=max_depths[t])
            trees.append(reference_grow(X, self.y, cfg, member_rows(t), seed))
        return trees


def growth_corpus(seed, rows, cols, n_classes, levels):
    """Random rows with value ties (levels distinct values per feature),
    a constant feature, and skewed classes so some nodes lack a class."""
    rng = generator(seed, "growth-corpus")
    X = np.floor(rng.random((rows, cols)) * levels)
    X[:, int(rng.integers(cols))] = 1.5
    weights = rng.random(n_classes) ** 2 + 0.05
    y = rng.choice(np.arange(n_classes) * 3 - 2, size=rows, p=weights / weights.sum())
    return X, y


def unbounded_sqrt_forest(seed):
    return TrainConfig(seed=seed, n_trees=3, bootstrap=False, feature_subsample="sqrt")


def grown_by_every_entry_point(X, y, seed):
    """The trees of every training entry point, flattened in a fixed order."""
    models = [
        train_tree_grown(X, y, PLAIN),
        train_tree_grown(X, y, TrainConfig(max_depth=3, bootstrap=False)),
        train_tree_grown(X, y, TrainConfig(max_leaves=9, bootstrap=False)),
        *train_forest_grown(
            X, y, TrainConfig(seed=seed, n_trees=4, feature_subsample="sqrt")
        ),
        *train_forest_grown(X, y, unbounded_sqrt_forest(seed)),
        *train_forest_grown(
            X, y, TrainConfig(max_depth=4, seed=seed, n_trees=3, bootstrap=False, feature_subsample="sqrt")
        ),
        *train_forest_grown(
            X, y, TrainConfig(max_leaves=7, seed=seed, n_trees=3, feature_subsample="sqrt")
        ),
        train_cascade(X, y, TrainConfig(max_depth=6, seed=seed, cascade_depth=3)),
        train_cascade_forest(X, y, TrainConfig(max_depth=3, seed=seed, n_trees=3, cascade_depth=2)),
    ]
    return [tree for model in models for tree in model_trees(model)]


def assert_same_growth(mine, reference):
    """Same trees, and every split's majority and realization order too: a
    best-first split's position in its tree's growth, None for depth-first."""
    assert len(mine) == len(reference)
    for a, b in zip(mine, reference):
        assert a == b
        for (x, _), (z, _) in zip(walk(a), walk(b)):
            if isinstance(x, Node):
                assert (x.majority, x.order) == (z.majority, z.order)


def assert_grows_like_reference(monkeypatch, X, y, seed):
    mine = grown_by_every_entry_point(X, y, seed)
    with monkeypatch.context() as patch:
        patch.setattr(learn, "_Grower", ReferenceGrower)
        reference = grown_by_every_entry_point(X, y, seed)
    assert_same_growth(mine, reference)


@pytest.mark.parametrize("pass_rows", [None, 1, 10**9])
@pytest.mark.parametrize("seed", range(6))
def test_batch_growth_equals_reference_grower(monkeypatch, seed, pass_rows):
    if pass_rows is not None:
        monkeypatch.setattr(learn, "PASS_ROWS", pass_rows)
    X, y = growth_corpus(seed, rows=90 + 40 * seed, cols=2 + seed % 4, n_classes=2 + seed % 4,
                         levels=(3, 5, 40)[seed % 3])
    assert_grows_like_reference(monkeypatch, X, y, seed)


def test_deep_sqrt_forest_equals_reference_grower(monkeypatch):
    """Node ids past 2**32 and 2**64. Labels alternate along feature 1 and
    feature 2 mirrors it, so trees are chains and each node's own feature
    order decides which feature records its split."""
    x = np.arange(80, dtype=np.float64)
    X, y = np.column_stack((x, -x)), np.where(np.arange(80) % 2 == 0, -1, 1)
    forest = train_forest_grown(X, y, unbounded_sqrt_forest(0))
    assert min(max(depth for _, depth in walk(tree)) for tree in forest) > 64
    features = {node.feature for tree in forest for node, _ in walk(tree) if isinstance(node, Node)}
    assert features == {1, 2}
    assert_grows_like_reference(monkeypatch, X, y, 0)
