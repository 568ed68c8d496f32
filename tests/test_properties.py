"""Property tests drawn by hypothesis; the module skips when it is not
installed. The fixed-seed cases of the same properties live next to the
code they test and run without it."""

from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deeptrees import learn  # noqa: E402
from deeptrees.errors import FeatureOutOfRange  # noqa: E402
from deeptrees.learn import (  # noqa: E402
    TrainConfig,
    train_cascade,
    train_forest_grown,
    train_label_cascades,
    train_tree,
    train_tree_grown,
    truncate_depth,
)
from deeptrees.tree import Node, depth_labels, evaluate_batch, walk  # noqa: E402
from deeptrees.construct import build_parity_deeptree, compile_to_deeptree  # noqa: E402
from deeptrees.lattice import LatticeSpace  # noqa: E402
from deeptrees.rng import generator, permutations  # noqa: E402

from test_ensemble import (  # noqa: E402
    MODEL_KINDS,
    assert_point_answers,
    random_model,
    random_rows,
)
from test_learn import (  # noqa: E402
    assert_grows_like_reference,
    growth_corpus,
    reference_label_cascade,
)
from test_rng import per_node_permutations  # noqa: E402
from test_sexpr import assert_round_trip  # noqa: E402
from test_tree import random_tree  # noqa: E402


@settings(max_examples=80, deadline=None, database=None)
@given(
    labels=st.lists(st.integers(-50, 50), min_size=2, max_size=5, unique=True).map(sorted),
    kind=st.sampled_from(MODEL_KINDS),
    seed=st.integers(0, 2**32 - 1),
    nan_share=st.sampled_from((0.0, 0.1, 0.5)),
)
def test_point_router_equals_reference_and_batch(labels, kind, seed, nan_share):
    rng = generator(seed, "router-property")
    model = random_model(rng, kind, tuple(labels))
    assert_point_answers(model, random_rows(rng, 30, nan_share))


@settings(max_examples=80, deadline=None, database=None)
@given(
    labels=st.lists(st.integers(-50, 50), min_size=2, max_size=5, unique=True).map(sorted),
    kind=st.sampled_from(MODEL_KINDS),
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 5),
    n=st.integers(1, 4),
)
def test_print_parse_round_trip(labels, kind, seed, p, n):
    rng = generator(seed, "round-trip-property")
    space = LatticeSpace(n, p)
    assert_round_trip(random_model(rng, kind, tuple(labels)))
    assert_round_trip(build_parity_deeptree(p, n))
    assert_round_trip(compile_to_deeptree(random_tree(rng, space, max_extra_splits=8), space))


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 160),
    cols=st.integers(1, 5),
    n_classes=st.integers(2, 5),
    levels=st.sampled_from((2, 4, 50)),
    pass_rows=st.sampled_from((None, 1, 64, 10**9)),
)
def test_batch_growth_equals_reference_grower(seed, rows, cols, n_classes, levels, pass_rows):
    X, y = growth_corpus(seed, rows, cols, n_classes, levels)
    with pytest.MonkeyPatch.context() as patch:
        if pass_rows is not None:
            patch.setattr(learn, "PASS_ROWS", pass_rows)
        assert_grows_like_reference(patch, X, y, seed % 1000)


@settings(max_examples=60, deadline=None, database=None)
@given(
    pairs=st.lists(st.tuples(st.integers(0, 2**70 - 1), st.integers(0, 2**70 - 1)), max_size=50),
    n=st.integers(1, 40),
)
def test_batched_permutations_equal_per_node_streams(pairs, n):
    seeds = [seed for seed, _ in pairs]
    ids = [node_id for _, node_id in pairs]
    assert np.array_equal(
        permutations(seeds, "node", ids, n), per_node_permutations(seeds, "node", ids, n)
    )


# values whose neighbours' midpoints round up to the upper value (adjacent
# doubles) or overflow (huge magnitudes)
BASES = (0.0, 1.0, -3.5, 1.0 + 2.0**-52, 1e308, -1e308, 1.7e308, 5e-324)


@settings(max_examples=60, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 60),
    cols=st.integers(1, 3),
    classes=st.sampled_from(((-1, 1), (0, 1, 2))),
    max_depth=st.sampled_from((1, 3, 8)),
    pass_rows=st.sampled_from((None, 1)),
)
def test_every_split_separates_its_training_rows(seed, rows, cols, classes, max_depth, pass_rows):
    rng = generator(seed, "separation-property")
    X = np.array(BASES)[rng.integers(0, len(BASES), (rows, cols))]
    for _ in range(int(rng.integers(0, 3))):  # step some values up by one ulp
        X = np.where(rng.random(X.shape) < 0.5, np.nextafter(X, np.inf), X)
    X = np.where(np.isfinite(X), X, 1.7e308)
    y = np.array(classes)[rng.integers(0, len(classes), rows)]
    with pytest.MonkeyPatch.context() as patch:
        if pass_rows is not None:
            patch.setattr(learn, "PASS_ROWS", pass_rows)
        tree = train_tree(X, y, TrainConfig(max_depth=max_depth, bootstrap=False))
    stack = [(tree, np.arange(rows))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Node):
            go_left = X[idx, node.feature - 1] <= node.threshold
            assert go_left.any() and not go_left.all()
            stack += ((node.left, idx[go_left]), (node.right, idx[~go_left]))


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 120),
    cols=st.integers(1, 3),
    levels=st.sampled_from((2, 3, 8)),
    classes=st.sampled_from(((-1, 1), (-1, 0, 2))),
    budgets=st.lists(st.one_of(st.none(), st.integers(0, 6)), min_size=1, max_size=6),
    depth=st.integers(1, 4),
)
def test_label_cascades_equal_one_budget_at_a_time(seed, rows, cols, levels, classes, budgets, depth):
    """Small tie-heavy sets: deep budgets fit them early, so their inputs
    coincide and their layers come from one truncated member."""
    rng = generator(seed, "cascade-budget-property")
    X = np.floor(rng.random((rows, cols)) * levels)
    y = np.array(classes)[rng.integers(0, len(classes), rows)]
    cascades = train_label_cascades(X, y, TrainConfig(cascade_depth=depth, seed=seed % 7), budgets)
    assert cascades == [reference_label_cascade(X, y, b, depth) for b in budgets]


@settings(max_examples=30, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 120),
    classes=st.sampled_from(((-1, 1), (-1, 0, 2))),
    max_depth=st.sampled_from((None, 1, 2, 4)),
    depth=st.integers(1, 4),
)
def test_layer_prediction_prefixes_equal_retrained_cascades(seed, rows, classes, max_depth, depth):
    rng = generator(seed, "cascade-prefix-property")
    X = np.floor(rng.random((rows, 2)) * 4)
    y = np.array(classes)[rng.integers(0, len(classes), rows)]
    unseen = np.floor(rng.random((30, 2)) * 5) - 0.5
    cfg = TrainConfig(max_depth=max_depth, cascade_depth=depth)
    cascade = train_cascade(X, y, cfg)
    for rows_in in (X, unseen):
        for k, labels in enumerate(cascade.layer_predictions(rows_in), start=1):
            retrained = train_cascade(X, y, TrainConfig(max_depth=max_depth, cascade_depth=k))
            assert retrained.layers == cascade.layers[:k]
            assert np.array_equal(labels, retrained.predict_batch(rows_in))


def assert_scores_every_budget(grown, X, max_depth):
    """depth_labels(grown, X, D)[b] is the truncation to b evaluated, for
    every b <= D. Both raise FeatureOutOfRange when a split above depth D
    reads past X's width, whether or not rows reach it."""
    if any(isinstance(node, Node) and depth < max_depth and node.feature > X.shape[1]
           for node, depth in walk(grown)):
        with pytest.raises(FeatureOutOfRange):
            evaluate_batch(truncate_depth(grown, max_depth), X)
        with pytest.raises(FeatureOutOfRange):
            depth_labels(grown, X, max_depth)
        return
    labels = depth_labels(grown, X, max_depth)
    assert labels.shape == (max_depth + 1, len(X))
    for b in range(max_depth + 1):
        assert np.array_equal(labels[b], evaluate_batch(truncate_depth(grown, b), X))


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(2, 120),
    cols=st.integers(1, 4),
    n_classes=st.integers(2, 4),
    levels=st.sampled_from((2, 4, 50)),
    max_depth=st.sampled_from((None, 0, 1, 3, 6)),
    max_leaves=st.sampled_from((None, 5)),
    nan_share=st.sampled_from((0.0, 0.2)),
)
def test_depth_labels_equal_evaluated_truncations(
    seed, rows, cols, n_classes, levels, max_depth, max_leaves, nan_share
):
    """Grown trees of a single tree and a forest on tie-heavy rows, scored
    on their training rows, on unseen rows with NaN features, and on
    narrower rows, which some splits read past: three rows leave most
    branches empty, and a split inside the limit still raises."""
    X, y = growth_corpus(seed, rows, cols, n_classes, levels)
    cfg = TrainConfig(max_depth=max_depth, max_leaves=max_leaves, seed=seed % 1000, n_trees=2,
                      feature_subsample="sqrt")
    grown = train_forest_grown(X, y, cfg) + [train_tree_grown(X, y, replace(cfg, feature_subsample="all"))]
    rng = generator(seed, "depth-labels-property")
    unseen = np.floor(rng.random((40, cols)) * (levels + 2)) - 1.5
    unseen[rng.random(unseen.shape) < nan_share] = np.nan
    for g in grown:
        height = max(depth for _, depth in walk(g))
        for deepest in sorted({0, height // 2, height, height + 2}):
            for rows_in in (X, unseen, *(unseen[:3, :width] for width in range(cols))):
                assert_scores_every_budget(g, rows_in, deepest)
