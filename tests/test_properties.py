"""Property tests drawn by hypothesis; the module skips when it is not
installed. The fixed-seed cases of the same properties live next to the
code they test and run without it."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from deeptrees import learn  # noqa: E402
from deeptrees.construct import build_parity_deeptree, compile_to_deeptree  # noqa: E402
from deeptrees.lattice import LatticeSpace  # noqa: E402
from deeptrees.rng import generator, permutations  # noqa: E402

from test_ensemble import (  # noqa: E402
    MODEL_KINDS,
    assert_point_answers,
    random_model,
    random_rows,
)
from test_learn import assert_grows_like_reference, growth_corpus  # noqa: E402
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
