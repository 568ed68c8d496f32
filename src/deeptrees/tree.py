"""Binary decision trees and the one iterative walk every tree operation uses.

A tree is either a Leaf carrying an integer class label or a Node with a
1-based feature index, a real threshold (route left when x[feature] <=
threshold), and two subtrees. Trained nodes also carry their rows'
majority label, and best-first trained nodes their split order; neither
is part of a model's identity. The size of a tree counts the scalars of
its flattened parameter tuple: one per leaf plus two per parent node,
which is 3m + 1 for m parent nodes, or equivalently 3*(leaves - 1) + 1.
Every walk uses an explicit stack, so no depth hits the interpreter's
recursion limit.

Single-row queries on ensembles do not chase Node objects: split_table
compiles a sequence of trees into parallel flat lists (feature,
threshold, left child, right child per split, one root per tree), and a
row is routed by a tight loop over those lists. Batches of rows take one
walk, _route, which evaluate_batch and depth_labels both read.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import FeatureOutOfRange, NonFiniteThreshold
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
    majority: Optional[int] = field(default=None, compare=False, repr=False)
    order: Optional[int] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.feature < 1:
            raise FeatureOutOfRange(f"feature index must be >= 1, got {self.feature}")
        if not math.isfinite(self.threshold):
            raise NonFiniteThreshold(f"threshold must be finite, got {self.threshold!r}")

    def __eq__(self, other):
        """Same pre-order (feature, threshold) / (label,) sequence, compared in
        lockstep on one explicit stack and stopping at the first mismatch."""
        if not isinstance(other, Node):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if isinstance(a, Leaf):
                if not (isinstance(b, Leaf) and a.label == b.label):
                    return False
            elif isinstance(b, Node) and a.feature == b.feature and a.threshold == b.threshold:
                stack += ((a.right, b.right), (a.left, b.left))
            else:
                return False
        return True

    def __hash__(self):
        return hash(tuple(_signature(self)))

    def __repr__(self):
        return render(
            self, repr, lambda n: f"Node(feature={n.feature!r}, threshold={n.threshold!r}, left=",
            ", right=", ")",
        )


Tree = Union[Leaf, Node]


def walk(tree: Tree) -> Iterator[tuple[Tree, int]]:
    """(node, depth) of every node and leaf in pre-order (node, left, right)."""
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        if isinstance(node, Node):
            stack += ((node.right, depth + 1), (node.left, depth + 1))


def _signature(tree: Tree) -> list:
    """The pre-order (feature, threshold) / (label,) sequence print_model
    writes; Node's hash reads it, so trees that compare equal hash equal."""
    return [
        (node.feature, node.threshold) if isinstance(node, Node) else (node.label,)
        for node, _ in walk(tree)
    ]


def render(tree: Tree, leaf: Callable, opening: Callable, between: str, closing: str) -> str:
    """Text of a tree: leaf(leaf), or opening(node) left between right closing."""
    parts, stack = [], [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, Leaf):
            parts.append(leaf(item))
        else:
            parts.append(opening(item))
            stack += (closing, item.right, between, item.left)
    return "".join(parts)


def leaf_count(tree: Tree) -> int:
    return sum(isinstance(node, Leaf) for node, _ in walk(tree))


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
    return max((node.feature for node, _ in walk(tree) if isinstance(node, Node)), default=0)


def tree_labels(tree: Tree) -> set:
    return {node.label for node, _ in walk(tree) if isinstance(node, Leaf)}


def evaluate(tree: Tree, x) -> int:
    """Route a single input vector to its leaf label.

    The row is converted once with ``tolist()`` and compared on Python
    floats, which are the same float64 values without the per-node cost of
    indexing a numpy array. Ensembles route their point queries through a
    split_table instead, compiled once per model.
    """
    row = np.asarray(x, dtype=np.float64).tolist()
    width = len(row)
    while isinstance(tree, Node):
        if tree.feature > width:
            raise FeatureOutOfRange(
                f"tree reads feature {tree.feature} but input has width {width}"
            )
        tree = tree.left if row[tree.feature - 1] <= tree.threshold else tree.right
    return tree.label


def split_table(trees) -> tuple:
    """Flat routing table of a sequence of trees, for single-row queries.

    Returns (features, thresholds, lefts, rights, roots, labels). Split s
    sends a row left to lefts[s] when row[features[s]] <= thresholds[s]
    (a 0-based feature, a Python-float threshold) and right to rights[s]
    otherwise, so a NaN feature goes right, as in evaluate_batch. roots
    holds one entry per tree and labels the ascending leaf labels. A child
    or root c >= 0 is split c; c < 0 is the leaf labels[~c]. Splits are
    numbered in pre-order, tree after tree, on one explicit stack.
    """
    labels = tuple(sorted({int(label) for tree in trees for label in tree_labels(tree)}))
    leaf_ref = {label: ~i for i, label in enumerate(labels)}
    features, thresholds, lefts, rights, roots = [], [], [], [], []
    for tree in trees:
        stack = [(tree, roots, len(roots))]
        roots.append(None)
        while stack:
            node, slots, slot = stack.pop()
            if isinstance(node, Leaf):
                slots[slot] = leaf_ref[node.label]
                continue
            s = slots[slot] = len(features)
            features.append(node.feature - 1)
            thresholds.append(float(node.threshold))
            lefts.append(None)
            rights.append(None)
            stack += ((node.right, rights, s), (node.left, lefts, s))
    return features, thresholds, lefts, rights, roots, labels


def _route(tree: Tree, X: np.ndarray, max_depth: Optional[int] = None) -> Iterator[tuple]:
    """(node, depth, rows) of every node at depth <= max_depth (None: no
    limit), rows indexing the rows of X that reach it; NaN goes right. A
    split above max_depth that reads past X's width raises
    FeatureOutOfRange, whether or not rows reach it."""
    width = X.shape[1]
    stack = [(tree, 0, np.arange(X.shape[0]))]
    while stack:
        node, depth, idx = stack.pop()
        yield node, depth, idx
        if isinstance(node, Leaf) or depth == max_depth:
            continue
        if node.feature > width:
            raise FeatureOutOfRange(f"tree reads feature {node.feature} but input has width {width}")
        go_left = X[idx, node.feature - 1] <= node.threshold
        stack.append((node.left, depth + 1, idx[go_left]))
        stack.append((node.right, depth + 1, idx[~go_left]))


def _row_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-d row matrix")
    return X


def evaluate_batch(tree: Tree, X) -> np.ndarray:
    """Leaf labels for every row of an (m, d) matrix."""
    X = _row_matrix(X)
    out = np.empty(X.shape[0], dtype=np.int64)
    for node, _, idx in _route(tree, X):
        if isinstance(node, Leaf):
            out[idx] = node.label
    return out


def depth_labels(grown: Tree, X, max_depth: int) -> np.ndarray:
    """Labels of every depth budget from one walk of a grown tree.

    Row b of the (max_depth + 1, m) result equals
    evaluate_batch(truncate_depth(grown, b), X): a split at depth d writes
    its majority into row d, the leaf it collapses to under budget d, and a
    leaf at depth d writes its label into rows d..max_depth. Raises
    FeatureOutOfRange where evaluating the max_depth truncation would.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    X = _row_matrix(X)
    out = np.empty((max_depth + 1, X.shape[0]), dtype=np.int64)
    for node, depth, idx in _route(grown, X, max_depth):
        if isinstance(node, Leaf):
            out[depth:, idx] = node.label
        else:
            out[depth, idx] = node.majority
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


def leaf_regions(tree: Tree, space: LatticeSpace, cut=threshold_cut) -> list[tuple[Region, int]]:
    """Per-leaf hyperrectangles of lattice points, in left-to-right order.

    Regions are inclusive integer bounds per dimension; they partition the
    lattice (a region may be empty when a split is vacuous over it). cut
    maps a threshold to its integer cut; it may raise to reject one.
    """
    out: list[tuple[Region, int]] = []
    stack = [(tree, ((1, space.p),) * space.n)]
    while stack:
        node, bounds = stack.pop()
        if isinstance(node, Leaf):
            out.append((bounds, node.label))
            continue
        if node.feature > space.n:
            raise FeatureOutOfRange(
                f"tree reads feature {node.feature} but the lattice has n = {space.n}"
            )
        j = node.feature - 1
        lo, hi = bounds[j]
        q = cut(node.threshold)
        stack.append((node.right, bounds[:j] + ((max(lo, q + 1), hi),) + bounds[j + 1:]))
        stack.append((node.left, bounds[:j] + ((lo, min(hi, q)),) + bounds[j + 1:]))
    return out
