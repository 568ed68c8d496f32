import numpy as np
import pytest

from deeptrees.construct import (
    LeafList,
    build_parity_deeptree,
    compile_report,
    compile_to_deeptree,
    extract_leaf_lists,
    snap_threshold,
)
from deeptrees.ensemble import SizeBudget, model_dim, predict_batch
from deeptrees.errors import FeatureOutOfRange, NonLatticeThreshold, PreconditionViolated
from deeptrees.lattice import LatticeSpace, ParityConcept
from deeptrees.rng import generator
from deeptrees.tree import Leaf, Node, dim_of, evaluate_batch, leaf_count, region_size

from test_tree import PARITY_2x2, deep_chain, random_tree


def _exact_parity(cascade, space):
    points = space.enumerate_points()
    return np.array_equal(
        cascade.predict_batch(points.astype(float)), ParityConcept(space).labels(points)
    )


def test_parity_cascade_p2_n1():
    cascade = build_parity_deeptree(2, 1)
    assert cascade.predict(np.array([1.0])) == -1
    assert cascade.predict(np.array([2.0])) == 1
    assert model_dim(cascade) <= 14


def test_parity_cascade_small_grid():
    for p in (1, 2, 3, 4):
        for n in (1, 2, 3):
            space = LatticeSpace(n, p)
            cascade = build_parity_deeptree(p, n)
            assert _exact_parity(cascade, space)
            assert model_dim(cascade) <= 10 * p * n


def test_first_stage_partial_dims():
    # after q layers the first stage has spent at most 7q parameters
    for p in (2, 3, 4):
        cascade = build_parity_deeptree(p, 3)
        running = 0
        for q, layer in enumerate(cascade.layers[:p], start=1):
            running += dim_of(layer)
            assert running <= 7 * q


def test_every_layer_within_budget():
    for p in (2, 4):
        for n in (1, 2, 5):
            cascade = build_parity_deeptree(p, n)
            assert SizeBudget(n).admits(cascade.layers[0])
            assert all(SizeBudget(n + 1).admits(layer) for layer in cascade.layers[1:])


def test_builder_validates_args():
    with pytest.raises(ValueError):
        build_parity_deeptree(0, 2)
    with pytest.raises(ValueError):
        build_parity_deeptree(2, 0)


def test_snap_threshold():
    assert snap_threshold(2.5, 4) == 2
    assert snap_threshold(2.0, 4) == 2
    with pytest.raises(NonLatticeThreshold):
        snap_threshold(0.3, 4)
    with pytest.raises(NonLatticeThreshold):
        snap_threshold(4.0, 4)


def test_extract_leaf_lists_constant():
    space = LatticeSpace(2, 2)
    leaves = extract_leaf_lists(Leaf(+1), space)
    assert leaves == LeafList((((1, 2), (1, 2)),), ())
    assert (leaves.d_plus, leaves.d_minus) == (1, 0)


def test_extract_leaf_lists_stump():
    space = LatticeSpace(2, 2)
    stump = Node(1, 1.0, Leaf(-1), Leaf(+1))
    leaves = extract_leaf_lists(stump, space)
    assert leaves.positive == (((2, 2), (1, 2)),)
    assert leaves.negative == (((1, 1), (1, 2)),)


def test_extract_leaf_lists_partition_and_counts():
    rng = generator(7, "leaf-lists")
    space = LatticeSpace(3, 4)
    for _ in range(30):
        tree = random_tree(rng, space, max_extra_splits=8)
        leaves = extract_leaf_lists(tree, space)
        assert leaves.d_plus + leaves.d_minus == leaf_count(tree)
        covered = sum(region_size(r) for r in leaves.positive + leaves.negative)
        assert covered == space.size


def test_compile_constant_sources():
    space = LatticeSpace(2, 2)
    for label in (-1, 1):
        cascade = compile_to_deeptree(Leaf(label), space)
        assert cascade.depth == 1
        assert model_dim(cascade) == 1
        assert cascade.predict(np.array([1.0, 1.0])) == label
    # all-same-label leaves behind a vacuous split still collapse
    degenerate = Node(1, 1.0, Leaf(1), Leaf(1))
    assert model_dim(compile_to_deeptree(degenerate, space)) == 1


def test_compile_parity_tree_dims():
    space = LatticeSpace(2, 2)
    cascade = compile_to_deeptree(PARITY_2x2, space)
    # D+ = D- = 2 and n = 2: exactly (6*2+4)*2 - 3
    assert model_dim(cascade) == 29
    assert model_dim(cascade) <= (4 * 2 + 1) * dim_of(PARITY_2x2)
    points = space.enumerate_points().astype(float)
    assert np.array_equal(cascade.predict_batch(points), predict_batch(PARITY_2x2, points))


def test_compile_random_corpus():
    rng = generator(8, "compile-corpus")
    space = LatticeSpace(3, 4)
    points = space.enumerate_points().astype(float)
    non_constant = 0
    for _ in range(40):
        source = random_tree(rng, space, max_extra_splits=8)
        cascade = compile_to_deeptree(source, space)
        assert np.array_equal(cascade.predict_batch(points), predict_batch(source, points))
        report = compile_report(source, space)
        assert report["compiled_dim"] == report["exact_formula_dim"]
        assert report["compiled_dim"] <= report["worst_case_bound"]
        if min(report["d_plus"], report["d_minus"]) > 0:
            non_constant += 1
            minority = min(report["d_plus"], report["d_minus"])
            assert report["compiled_dim"] == (6 * space.n + 4) * minority - 3
    assert non_constant > 20  # the corpus actually exercises the formula


def test_compile_layerwise_budgets():
    space = LatticeSpace(3, 4)
    cascade = compile_to_deeptree(PARITY_2x2, LatticeSpace(2, 2))
    assert dim_of(cascade.layers[0]) == 6 * 2 + 1
    assert all(dim_of(layer) == 6 * 2 + 4 for layer in cascade.layers[1:])
    rng = generator(9, "compile-budget")
    tree = random_tree(rng, space, max_extra_splits=8)
    compiled = compile_to_deeptree(tree, space)
    assert SizeBudget(space.n).admits(compiled.layers[0])
    assert all(SizeBudget(space.n + 1).admits(layer) for layer in compiled.layers[1:])


def test_compile_rejects_off_lattice_threshold():
    space = LatticeSpace(2, 4)
    bad = Node(1, 0.25, Leaf(-1), Leaf(1))
    with pytest.raises(NonLatticeThreshold):
        compile_to_deeptree(bad, space)
    with pytest.raises(NonLatticeThreshold):
        extract_leaf_lists(Node(2, 4.5, Leaf(-1), Leaf(1)), space)


def test_compile_minority_class_choice():
    # three positive leaves, one negative: the cascade marks the negative one
    space = LatticeSpace(2, 2)
    tree = Node(1, 1.0, Node(2, 1.0, Leaf(-1), Leaf(1)), Leaf(1))
    report = compile_report(tree, space)
    assert (report["d_plus"], report["d_minus"]) == (2, 1)
    assert report["layers"] == 1
    assert report["compiled_dim"] == (6 * 2 + 4) * 1 - 3


def test_extract_leaf_lists_error_order():
    space = LatticeSpace(2, 4)
    with pytest.raises(PreconditionViolated):
        extract_leaf_lists(Node(1, 2.0, Leaf(2), Leaf(-1)), space)
    # a bad feature or threshold anywhere wins over a bad label
    with pytest.raises(FeatureOutOfRange):
        extract_leaf_lists(Node(1, 2.0, Leaf(2), Node(3, 1.0, Leaf(1), Leaf(-1))), space)
    with pytest.raises(NonLatticeThreshold):
        extract_leaf_lists(Node(1, 2.0, Leaf(2), Node(2, 4.0, Leaf(1), Leaf(-1))), space)
    # the first offending node in pre-order decides between the two
    with pytest.raises(NonLatticeThreshold):
        extract_leaf_lists(Node(1, 0.5, Leaf(1), Node(3, 1.0, Leaf(1), Leaf(-1))), space)
    with pytest.raises(FeatureOutOfRange):
        extract_leaf_lists(Node(3, 0.5, Leaf(1), Node(1, 0.5, Leaf(1), Leaf(-1))), space)


def test_compile_deep_chain():
    depth = 2000
    space = LatticeSpace(1, depth + 1)
    chain = deep_chain(depth)
    leaves = extract_leaf_lists(chain, space)
    assert (leaves.d_plus, leaves.d_minus) == (depth // 2 + 1, depth // 2)
    compiled = compile_to_deeptree(chain, space)
    assert compiled.depth == depth // 2
    assert model_dim(compiled) == (6 * space.n + 4) * leaves.d_minus - 3
    points = space.enumerate_points().astype(float)
    assert np.array_equal(compiled.predict_batch(points), evaluate_batch(chain, points))
