"""Binary decision trees as recursive parameter tuples.

A tree is either a Leaf carrying an integer class label or a Node with a
1-based feature index, a real threshold (route left when x[feature] <=
threshold), and two subtrees. The size of a tree counts the scalars of
its flattened parameter tuple: one per leaf plus two per parent node,
which is 3m + 1 for m parent nodes, or equivalently 3*(leaves - 1) + 1.
"""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import FeatureOutOfRange
from .lattice import LatticeSpace


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Node:
    feature: int
    threshold: float
    left: "Tree"
    right: "Tree"

    def __post_init__(self):
        if self.feature < 1:
            raise FeatureOutOfRange(f"feature index must be >= 1, got {self.feature}")


Tree = Union[Leaf, Node]


def leaf_count(tree: Tree) -> int:
    if isinstance(tree, Leaf):
        return 1
    return leaf_count(tree.left) + leaf_count(tree.right)


def dim_from_leaves(leaves):
    """Parameter count of a tree with this many leaves: 3*(leaves - 1) + 1.

    Elementwise on an array of leaf counts.
    """
    return 3 * (leaves - 1) + 1


def dim_of(tree: Tree) -> int:
    """Parameter count: 3*(leaf_count - 1) + 1."""
    return dim_from_leaves(leaf_count(tree))


def max_feature(tree: Tree) -> int:
    """Largest feature index referenced anywhere in the tree (0 for a leaf)."""
    if isinstance(tree, Leaf):
        return 0
    return max(tree.feature, max_feature(tree.left), max_feature(tree.right))


def tree_labels(tree: Tree) -> set:
    if isinstance(tree, Leaf):
        return {tree.label}
    return tree_labels(tree.left) | tree_labels(tree.right)


def evaluate_row(tree: Tree, row: list) -> int:
    """Route one row, given as a list of Python floats, to its leaf label.

    Point queries convert their row once with ``tolist()`` and compare on
    Python floats, which are the same float64 values without the per-node
    cost of indexing a numpy array.
    """
    width = len(row)
    while isinstance(tree, Node):
        if tree.feature > width:
            raise FeatureOutOfRange(
                f"tree reads feature {tree.feature} but input has width {width}"
            )
        tree = tree.left if row[tree.feature - 1] <= tree.threshold else tree.right
    return tree.label


def evaluate(tree: Tree, x) -> int:
    """Route a single input vector to its leaf label."""
    return evaluate_row(tree, np.asarray(x, dtype=np.float64).tolist())


def evaluate_batch(tree: Tree, X) -> np.ndarray:
    """Leaf labels for every row of an (m, d) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-d row matrix")
    width = X.shape[1]
    out = np.empty(X.shape[0], dtype=np.int64)
    stack = [(tree, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if isinstance(node, Leaf):
            out[idx] = node.label
            continue
        if node.feature > width:
            raise FeatureOutOfRange(
                f"tree reads feature {node.feature} but input has width {width}"
            )
        go_left = X[idx, node.feature - 1] <= node.threshold
        stack.append((node.left, idx[go_left]))
        stack.append((node.right, idx[~go_left]))
    return out


def threshold_cut(threshold: float) -> int:
    """Integer cut equivalent to the threshold on integer-valued features.

    x <= threshold holds for integer x exactly when x <= floor(threshold).
    """
    return math.floor(threshold)


Region = tuple[tuple[int, int], ...]


def region_size(bounds: Region) -> int:
    size = 1
    for lo, hi in bounds:
        size *= max(0, hi - lo + 1)
    return size


def leaf_regions(tree: Tree, space: LatticeSpace) -> list[tuple[Region, int]]:
    """Per-leaf hyperrectangles of lattice points, in left-to-right order.

    Regions are inclusive integer bounds per dimension; they partition the
    lattice (a region may be empty when a split is vacuous over it).
    """
    out: list[tuple[Region, int]] = []

    def walk(node: Tree, bounds: list[tuple[int, int]]):
        if isinstance(node, Leaf):
            out.append((tuple(bounds), node.label))
            return
        if node.feature > space.n:
            raise FeatureOutOfRange(
                f"tree reads feature {node.feature} but the lattice has n = {space.n}"
            )
        j = node.feature - 1
        lo, hi = bounds[j]
        cut = threshold_cut(node.threshold)
        bounds[j] = (lo, min(hi, cut))
        walk(node.left, bounds)
        bounds[j] = (max(lo, cut + 1), hi)
        walk(node.right, bounds)
        bounds[j] = (lo, hi)

    walk(tree, [(1, space.p)] * space.n)
    return out
