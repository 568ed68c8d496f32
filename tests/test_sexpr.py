import numpy as np
import pytest

from deeptrees.construct import build_parity_deeptree, compile_to_deeptree
from deeptrees.ensemble import CascadeForest, DeepTree, Forest
from deeptrees.errors import ArityError, LabelDomainError, ModelSyntaxError
from deeptrees.lattice import LatticeSpace
from deeptrees.learn import TrainConfig, train_cascade, train_forest, train_tree
from deeptrees.rng import generator
from deeptrees.sexpr import parse_model, print_model
from deeptrees.tree import Leaf, Node, evaluate_batch

from test_ensemble import LABEL_SETS, MODEL_KINDS, random_model
from test_tree import DEEP, deep_chain, random_tree


def assert_round_trip(model):
    """The model text holds the whole model: parsing it back gives an equal
    model with an equal hash."""
    copy = parse_model(print_model(model))
    assert copy == model and hash(copy) == hash(model)


def test_parse_leaf():
    assert parse_model("(leaf +1)") == Leaf(1)
    assert parse_model("(leaf -1)") == Leaf(-1)
    assert parse_model("(leaf 3)") == Leaf(3)


def test_parse_stump():
    assert parse_model("(node 1 1 (leaf -1) (leaf +1))") == Node(1, 1.0, Leaf(-1), Leaf(1))


def test_whitespace_insensitive():
    text = "(node 1\n  2.5\t(leaf -1)\n   (leaf +1))"
    assert parse_model(text) == Node(1, 2.5, Leaf(-1), Leaf(1))


def test_roundtrip_random_corpus():
    rng = generator(3, "sexpr-corpus")
    space = LatticeSpace(3, 4)
    for _ in range(100):
        tree = random_tree(rng, space, max_extra_splits=8)
        text = print_model(tree)
        assert parse_model(text) == tree
        # printing is a normal form: one more cycle is identical
        assert print_model(parse_model(text)) == text


def test_roundtrip_fractional_threshold():
    tree = Node(2, 2.4999999999999996, Leaf(-1), Leaf(1))
    assert parse_model(print_model(tree)) == tree


def test_roundtrip_ensembles():
    cascade = DeepTree((Leaf(-1), Node(3, 0.0, Leaf(1), Leaf(-1))))
    assert parse_model(print_model(cascade)) == cascade
    forest = Forest((Leaf(1), Leaf(-1), Leaf(1)))
    assert parse_model(print_model(forest)) == forest
    deep = CascadeForest((Forest((Leaf(0), Leaf(1))), Forest((Leaf(2),))), (0, 1, 2))
    assert parse_model(print_model(deep)) == deep


def test_roundtrip_trained_models():
    rng = generator(11, "sexpr-trained")
    X = rng.random((300, 3)) * 4
    y = np.array([-3, 4, 9])[np.floor(X[:, 0] + X[:, 1]).astype(np.int64) % 3]
    for model in (
        train_tree(X, y, TrainConfig(max_depth=5, bootstrap=False)),
        train_tree(X, y, TrainConfig(max_leaves=6, seed=1)),
        train_forest(X, y, TrainConfig(max_depth=4, seed=2, n_trees=6, feature_subsample="sqrt")),
        train_cascade(X, y, TrainConfig(max_depth=3, seed=2, cascade_depth=3)),
        train_cascade(
            X, y, TrainConfig(max_depth=2, seed=2, n_trees=4, cascade_depth=2, augment_mode="classvector")
        ),
    ):
        assert_round_trip(model)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_roundtrip_random_models(kind):
    rng = generator(12, "sexpr-random-models", kind)
    for labels in LABEL_SETS:
        for _ in range(10):
            assert_round_trip(random_model(rng, kind, labels))


def test_roundtrip_constructed_cascades():
    for p, n in ((1, 1), (2, 1), (4, 2), (3, 3), (5, 4)):
        assert_round_trip(build_parity_deeptree(p, n))
    rng = generator(13, "sexpr-compiled")
    for n in (1, 2, 3):
        space = LatticeSpace(n, 4)
        assert_round_trip(compile_to_deeptree(Leaf(1), space))
        for _ in range(10):
            assert_round_trip(compile_to_deeptree(random_tree(rng, space, max_extra_splits=8), space))


def test_integer_thresholds_print_bare():
    assert print_model(Node(1, 2.0, Leaf(-1), Leaf(1))) == "(node 1 2 (leaf -1) (leaf +1))"


def test_error_positions():
    with pytest.raises(ModelSyntaxError) as err:
        parse_model("(node 1 1 (leaf -1)\n  (oops +1))")
    assert err.value.line == 2
    with pytest.raises(ArityError):
        parse_model("(node 1 (leaf +1))")
    with pytest.raises(LabelDomainError):
        parse_model("(leaf x)")
    with pytest.raises(LabelDomainError):
        parse_model("(leaf 1.5)")


@pytest.mark.parametrize("label", ["99999999999999999999999", "9223372036854775808", "-9223372036854775809"])
def test_label_outside_int64_rejected_at_its_token(label):
    with pytest.raises(LabelDomainError) as err:
        parse_model(f"(node 1 1.5 (leaf 1)\n (leaf {label}))")
    assert (err.value.line, err.value.column) == (2, 8)


@pytest.mark.parametrize("label", [2**63 - 1, -(2**63)])
def test_int64_edge_labels_parse_and_evaluate(label):
    tree = parse_model(f"(node 1 1.5 (leaf 1) (leaf {label}))")
    assert tree.right == Leaf(label)
    assert evaluate_batch(tree, np.array([[1.0], [2.0]])).tolist() == [1, label]


def test_unbalanced_and_trailing():
    with pytest.raises(ModelSyntaxError):
        parse_model("(leaf +1")
    with pytest.raises(ModelSyntaxError):
        parse_model("(leaf +1))")
    with pytest.raises(ModelSyntaxError):
        parse_model("(leaf +1) junk")
    with pytest.raises(ModelSyntaxError):
        parse_model("")
    with pytest.raises(ModelSyntaxError):
        parse_model("leaf")


def test_bad_feature_and_threshold():
    with pytest.raises(ModelSyntaxError):
        parse_model("(node 0 1 (leaf -1) (leaf +1))")
    with pytest.raises(ModelSyntaxError):
        parse_model("(node x 1 (leaf -1) (leaf +1))")
    with pytest.raises(ModelSyntaxError):
        parse_model("(node 1 abc (leaf -1) (leaf +1))")


def test_deepforest_requires_classes():
    with pytest.raises(ModelSyntaxError):
        parse_model("(deepforest (forest (leaf 0)) (forest (leaf 1)))")
    with pytest.raises(ArityError):
        parse_model("(deepforest (classes 0 1))")


def test_empty_forms():
    with pytest.raises(ArityError):
        parse_model("(forest)")
    with pytest.raises(ArityError):
        parse_model("(cascade)")
    with pytest.raises(ModelSyntaxError):
        parse_model("(banana 1)")


def test_roundtrip_deep_chain():
    chain = deep_chain(DEEP)
    text = print_model(chain)
    assert text.startswith("(node 1 1.5 (leaf +1) (node 1 2.5 (leaf -1) ")
    assert text.endswith("(leaf +1)" + ")" * DEEP)
    parsed = parse_model(text)
    assert parsed == chain
    assert hash(parsed) == hash(chain)
    assert print_model(parsed) == text
    assert print_model(parse_model(f"(forest {text} {text})")) == f"(forest {text} {text})"


@pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "+inf", "Infinity"])
def test_non_finite_threshold_rejected_at_its_token(token):
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(f"(node 1 {token} (leaf +1) (leaf -1))")
    assert (err.value.line, err.value.column) == (1, 9)
    assert token in str(err.value)
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(f"(cascade (leaf -1)\n  (node 2 0.5 (leaf +1)\n    (node 1 {token} (leaf +1) (leaf -1))))")
    assert (err.value.line, err.value.column) == (3, 13)
    # a tab or a non-ASCII space is one column; only "\n" ends a line
    for space in ("\t", "\u00a0", "\u3000", "\u2028"):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(f"(node{space}1{space}{token} (leaf +1) (leaf -1))")
        assert (err.value.line, err.value.column) == (1, 9)
    with pytest.raises(ModelSyntaxError) as err:
        parse_model(f"(cascade (leaf -1)\r\n  (node 2 0.5 (leaf +1)\r\n\t\u3000  (node 1 {token} (leaf +1) (leaf -1))))")
    assert (err.value.line, err.value.column) == (3, 13)
