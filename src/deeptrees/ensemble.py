"""Forests (majority vote) and deep trees (cascade composition).

A deep tree applies its layers in order: layer 1 reads the raw features,
every later layer reads the raw features plus one augmented feature
holding the previous layer's label as a float. A cascade forest stacks
forests the same way but augments with per-class vote fractions instead
of a single hard label.

Single-row queries (predict) run one generated Python function per
forest or deep tree (tree.point_router), with every member or layer
written out as nested if-blocks; a cascade forest runs its layer
forests' functions. The function is compiled once per model, by the
first point query, at about 25-40 us per split on a 2-vCPU VM, and
cached on the model; it is not a dataclass field, so equality, hashing
and repr never see it, and models that only ever answer batch queries
never build one.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import FeatureOutOfRange
from .tree import Leaf, Node, Tree, dim_of, evaluate_batch, leaf_count, max_feature, point_router


@dataclass(frozen=True)
class SizeBudget:
    """Restricted-size membership: dim(tree) <= 6 * ambient_dim + 1."""

    ambient_dim: int

    @property
    def max_dim(self) -> int:
        return 6 * self.ambient_dim + 1

    def admits(self, tree: Tree) -> bool:
        return dim_of(tree) <= self.max_dim


def resolve_votes(classes, counts) -> np.ndarray:
    """Majority label of each row of an (m, n_classes) vote-count matrix.

    classes must be ascending, so a row's first maximum is its lowest tied
    label. A class nobody voted for never changes the result.
    """
    return np.asarray(classes, dtype=np.int64)[counts.argmax(axis=1)]


@dataclass(frozen=True)
class Forest:
    """Majority vote over member trees; a tie goes to the lowest tied label."""

    trees: tuple

    def __post_init__(self):
        object.__setattr__(self, "trees", tuple(self.trees))
        if not self.trees:
            raise ValueError("a forest needs at least one tree")

    def member_predictions(self, X) -> np.ndarray:
        """(n_trees, m) label matrix."""
        return np.stack([evaluate_batch(tree, X) for tree in self.trees])

    @cached_property
    def _router(self) -> tuple:
        """(point_router of the members, their ascending labels, the
        largest feature they read), built by the first point query."""
        route, labels = point_router(self.trees)
        return route, labels, max(map(max_feature, self.trees))

    def _member_votes(self, row: list) -> tuple:
        """(labels, vote counts) on one row of Python floats. A row
        narrower than any member reads is rejected, reached or not."""
        route, labels, widest = self._router
        if widest > len(row):
            raise FeatureOutOfRange(f"forest reads feature {widest} but input has width {len(row)}")
        return labels, route(row)

    def _majority(self, row: list) -> int:
        """Vote on one row; labels ascend, so the first maximum is the
        lowest tied label."""
        labels, votes = self._member_votes(row)
        return labels[votes.index(max(votes))]

    def predict(self, x) -> int:
        """Vote of the members on a single row."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("expected a 1-d input row")
        return self._majority(x.tolist())

    def predict_batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        votes = self.member_predictions(X)
        classes = np.unique(votes)
        counts = np.stack([(votes == c).sum(axis=0) for c in classes], axis=1)
        return resolve_votes(classes, counts)

    def vote_fractions(self, X, classes) -> np.ndarray:
        """(m, n_classes) fraction of member votes per class, in class order."""
        votes = self.member_predictions(X)
        return np.stack([(votes == c).mean(axis=0) for c in classes], axis=1)


@dataclass(frozen=True)
class DeepTree:
    """Cascade of trees; layer d >= 2 reads feature n+1 = previous label."""

    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("a deep tree needs at least one layer")

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def _router(self) -> tuple:
        """(chained point_router of the layers, their ascending labels, the
        narrowest raw row they can read: later layers also read feature
        n+1), built by the first point query."""
        later = max((max_feature(layer) for layer in self.layers[1:]), default=0)
        route, labels = point_router(self.layers, chained=True)
        return route, labels, max(max_feature(self.layers[0]), later - 1)

    def predict(self, x) -> int:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("expected a 1-d input row")
        route, labels, min_width = self._router
        if min_width > x.shape[0]:
            raise FeatureOutOfRange(
                f"deep tree needs input width {min_width} but input has width {x.shape[0]}"
            )
        row = x.tolist()
        row.append(0.0)  # feature n+1: the previous layer's label
        return labels[route(row)]

    def layer_predictions(self, X) -> Iterator[np.ndarray]:
        """Labels after each layer, in order: item k - 1 is the prediction of
        DeepTree(layers[:k]), so one pass scores every depth prefix."""
        X = np.asarray(X, dtype=np.float64)
        y = evaluate_batch(self.layers[0], X)
        yield y
        for layer in self.layers[1:]:
            augmented = np.column_stack([X, y.astype(np.float64)])
            y = evaluate_batch(layer, augmented)
            yield y

    def predict_batch(self, X) -> np.ndarray:
        for y in self.layer_predictions(X):
            pass
        return y


@dataclass(frozen=True)
class CascadeForest:
    """Stack of forests; each later layer sees per-class vote fractions."""

    layers: tuple
    classes: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "classes", tuple(int(c) for c in self.classes))
        if not self.layers:
            raise ValueError("a cascade forest needs at least one layer")
        if not self.classes:
            raise ValueError("a cascade forest needs a class list")

    @property
    def depth(self) -> int:
        return len(self.layers)

    def augmented_inputs(self, X, layer_index: int) -> np.ndarray:
        """Input matrix consumed by the given 0-based layer."""
        X = np.asarray(X, dtype=np.float64)
        current = X
        for layer in self.layers[:layer_index]:
            fractions = layer.vote_fractions(current, self.classes)
            current = np.column_stack([X, fractions])
        return current

    def predict_batch(self, X) -> np.ndarray:
        return self.layers[-1].predict_batch(self.augmented_inputs(X, len(self.layers) - 1))

    def predict(self, x) -> int:
        """Single-row prediction on Python lists; each layer's vote fractions
        are count / n_trees, the same float64 values as vote_fractions' mean
        of a bool column."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("expected a 1-d input row")
        raw = x.tolist()
        row = raw
        for layer in self.layers[:-1]:
            votes = dict(zip(*layer._member_votes(row)))
            n_trees = len(layer.trees)
            row = raw + [votes.get(c, 0) / n_trees for c in self.classes]
        return self.layers[-1]._majority(row)


def model_trees(model) -> list:
    """Every tree of a model in order: a tree itself, a forest's members, a
    deep tree's layers, or each cascade-forest layer's members."""
    if isinstance(model, (Leaf, Node)):
        return [model]
    if isinstance(model, Forest):
        return list(model.trees)
    if isinstance(model, DeepTree):
        return list(model.layers)
    if isinstance(model, CascadeForest):
        return [tree for layer in model.layers for tree in layer.trees]
    raise TypeError(f"not a model: {type(model).__name__}")


def model_dim(model) -> int:
    """Total parameter count; additive over ensemble members and layers."""
    return sum(dim_of(tree) for tree in model_trees(model))


def total_leaves(model) -> int:
    """Summed leaf count over every tree in the model."""
    return sum(leaf_count(tree) for tree in model_trees(model))


def predict_batch(model, X) -> np.ndarray:
    """Uniform prediction entry point for any model kind."""
    if isinstance(model, (Leaf, Node)):
        return evaluate_batch(model, X)
    return model.predict_batch(X)
