"""Greedy tree training, random forests, and cascade training.

The splitter is the usual sorted-sweep CART: candidate thresholds are
midpoints between consecutive distinct feature values, the split with
the highest Gini gain wins, and ties break to the lowest feature index
then the lowest threshold. Impure nodes split even at zero gain, which
is what lets a tree fit parity under the uniform distribution.

Training returns plain Leaf/Node trees whose nodes also record their
majority label and realization order, so a single deep run can be
truncated to any smaller depth or leaf budget; the truncation equals
retraining with the smaller budget because split decisions depend only
on the node's own rows. Growth, assembly and truncation use explicit
stacks, so no depth is too deep to train.
"""

import heapq
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .ensemble import CascadeForest, DeepTree, Forest, predict_batch
from .errors import EmptyDataset, FeatureOutOfRange, NonFiniteFeature
from .rng import generator, seed_sequence
from .tree import Leaf, Node, Tree, evaluate_batch, walk


@dataclass(frozen=True)
class TrainConfig:
    max_depth: Optional[int] = None
    max_leaves: Optional[int] = None
    min_samples_split: int = 2
    seed: int = 0
    n_trees: int = 1
    feature_subsample: str = "all"  # "all" | "sqrt"
    bootstrap: bool = True
    cascade_depth: int = 1
    augment_mode: str = "label"  # "label" | "classvector"

    def __post_init__(self):
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.cascade_depth < 1:
            raise ValueError("cascade_depth must be >= 1")
        if self.feature_subsample not in ("all", "sqrt"):
            raise ValueError(f"unknown feature_subsample {self.feature_subsample!r}")
        if self.augment_mode not in ("label", "classvector"):
            raise ValueError(f"unknown augment_mode {self.augment_mode!r}")


def _assemble(majority: dict, splits: dict) -> Tree:
    """Tree from records keyed by node id (root 1, children 2i and 2i + 1):
    majority[i] for every node, splits[i] = (feature, threshold, order) for
    those that split. Children are recorded after their parent, so reverse
    record order builds every child before its parent."""
    built = {}
    for node_id in reversed(majority):
        split = splits.get(node_id)
        if split is None:
            built[node_id] = Leaf(majority[node_id])
        else:
            feature, threshold, order = split
            left = built.pop(2 * node_id)
            right = built.pop(2 * node_id + 1)
            built[node_id] = Node(feature, threshold, left, right, majority[node_id], order)
    return built[1]


def _prune(grown: Tree, keep) -> Tree:
    """Copy of a grown tree that keeps the splits keep(node, depth) accepts
    and collapses every other split to a leaf of its majority."""
    majority: dict = {}
    splits: dict = {}
    stack = [(grown, 0, 1)]
    while stack:
        node, depth, node_id = stack.pop()
        if isinstance(node, Leaf):
            majority[node_id] = node.label
            continue
        majority[node_id] = node.majority
        if keep(node, depth):
            splits[node_id] = (node.feature, node.threshold, node.order)
            stack += ((node.right, depth + 1, 2 * node_id + 1), (node.left, depth + 1, 2 * node_id))
    return _assemble(majority, splits)


def truncate_depth(grown: Tree, max_depth: int) -> Tree:
    """The tree a run with this max_depth would have produced."""
    return _prune(grown, lambda node, depth: depth < max_depth)


def depth_labels(grown: Tree, X, max_depth: int) -> np.ndarray:
    """Labels of every depth budget from one walk of a grown tree.

    Row b of the (max_depth + 1, m) result equals
    evaluate_batch(truncate_depth(grown, b), X): a split at depth d writes
    its majority into row d, the leaf it collapses to under budget d, and a
    leaf at depth d writes its label into rows d..max_depth. Raises
    FeatureOutOfRange where evaluating the max_depth truncation would.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("expected a 2-d row matrix")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    width = X.shape[1]
    out = np.empty((max_depth + 1, X.shape[0]), dtype=np.int64)
    stack = [(grown, 0, np.arange(X.shape[0]))]
    while stack:
        node, depth, idx = stack.pop()
        if isinstance(node, Leaf):
            out[depth:, idx] = node.label
            continue
        out[depth, idx] = node.majority
        if depth == max_depth:
            continue
        if node.feature > width:
            raise FeatureOutOfRange(
                f"tree reads feature {node.feature} but input has width {width}"
            )
        go_left = X[idx, node.feature - 1] <= node.threshold
        stack.append((node.left, depth + 1, idx[go_left]))
        stack.append((node.right, depth + 1, idx[~go_left]))
    return out


def depth_leaf_counts(grown: Tree, max_depth: int) -> np.ndarray:
    """Leaf count of truncate_depth(grown, b) for every budget b in 0..max_depth.

    Under budget b the leaves are the grown leaves at depth <= b plus the
    splits at depth b, which collapse to their majority.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    leaves = np.zeros(max_depth + 1, dtype=np.int64)
    collapsed = np.zeros(max_depth + 1, dtype=np.int64)
    for node, depth in walk(grown):
        if depth <= max_depth:
            (leaves if isinstance(node, Leaf) else collapsed)[depth] += 1
    return np.cumsum(leaves) + collapsed


def truncate_leaves(grown: Tree, max_leaves: int) -> Tree:
    """Prefix of a best-first grown tree with at most max_leaves leaves."""
    return _prune(grown, lambda node, depth: node.order < max_leaves - 1)


# ---------------------------------------------------------------------------
# splitter
# ---------------------------------------------------------------------------


def _feature_best(X, y_codes, idx, counts, parent_gini, f):
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
    return float(gains[pos]), f + 1, float((sv[b] + sv[b + 1]) / 2.0)


def _better(cand, best):
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    return (cand[1], cand[2]) < (best[1], best[2])


class _Grower:
    def __init__(self, X, y, cfg: TrainConfig, tree_seed: int):
        if len(X) == 0:
            raise EmptyDataset("cannot train on an empty dataset")
        self.X = np.asarray(X, dtype=np.float64)
        if not np.isfinite(self.X).all():
            row, f = (int(v) for v in np.argwhere(~np.isfinite(self.X))[0])
            raise NonFiniteFeature(
                f"row {row} feature {f + 1} is {float(self.X[row, f])!r}; "
                "training needs finite features", row, f + 1,
            )
        y = np.asarray(y, dtype=np.int64)
        self.classes = np.unique(y)
        self.y_codes = np.searchsorted(self.classes, y)
        self.cfg = cfg
        self.tree_seed = tree_seed
        self.n_features = self.X.shape[1]
        if cfg.feature_subsample == "sqrt":
            self.n_examine = max(1, math.isqrt(self.n_features))
        else:
            self.n_examine = self.n_features

    def _node_stats(self, idx):
        counts = np.bincount(self.y_codes[idx], minlength=len(self.classes))
        majority = int(self.classes[int(np.argmax(counts))])  # first max = lowest class
        return counts, majority

    def _feature_order(self, node_id):
        if self.cfg.feature_subsample == "all":
            return range(self.n_features)
        rng = generator(self.tree_seed, "node", node_id)
        return rng.permutation(self.n_features)

    def _best_split(self, idx, counts, node_id):
        m = idx.size
        parent_gini = 1.0 - float(np.sum((counts / m) ** 2))
        best = None
        for examined, f in enumerate(self._feature_order(node_id), start=1):
            cand = _feature_best(self.X, self.y_codes, idx, counts, parent_gini, int(f))
            if cand is not None and _better(cand, best):
                best = cand
            # keep looking past the subsample size until a valid split shows up
            if examined >= self.n_examine and best is not None:
                break
        return best

    def _splittable(self, idx, counts, depth):
        if idx.size < self.cfg.min_samples_split:
            return False
        if self.cfg.max_depth is not None and depth >= self.cfg.max_depth:
            return False
        return int(counts.max()) < idx.size  # impure

    def grow(self, rows=None) -> Tree:
        """Grow depth-first, or best-first until the leaf budget when there is one.

        Each admitted node records its majority and puts its best split, if
        any, on the frontier: a stack realizes splits in pre-order, a gain
        heap highest-gain first. Splits are numbered in realization order.
        """
        idx = np.arange(len(self.X)) if rows is None else np.asarray(rows)
        if idx.size == 0:
            raise EmptyDataset("cannot train on an empty row selection")
        best_first = self.cfg.max_leaves is not None
        push, pop = (heapq.heappush, heapq.heappop) if best_first else (list.append, list.pop)
        majority: dict = {}
        splits: dict = {}
        frontier: list = []

        def admit(idx, depth, node_id):
            counts, majority[node_id] = self._node_stats(idx)
            if not self._splittable(idx, counts, depth):
                return
            best = self._best_split(idx, counts, node_id)
            if best is not None:
                push(frontier, (-best[0], len(majority), node_id, depth, idx, best))

        admit(idx, 0, 1)
        while frontier and not (best_first and len(splits) + 1 >= self.cfg.max_leaves):
            _, _, node_id, depth, idx, (_, feature, threshold) = pop(frontier)
            splits[node_id] = (feature, threshold, len(splits))
            go_left = self.X[idx, feature - 1] <= threshold
            children = [(idx[go_left], 2 * node_id), (idx[~go_left], 2 * node_id + 1)]
            # the stack pops the left child first; the heap breaks gain ties left first
            for child_idx, child_id in (children if best_first else reversed(children)):
                admit(child_idx, depth + 1, child_id)
        return _assemble(majority, splits)


def _derived_seed(master_seed: int, *tags) -> int:
    words = seed_sequence(master_seed, *tags).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def train_tree_grown(X, y, cfg: TrainConfig, rows=None, tree_seed: Optional[int] = None) -> Tree:
    """Greedy tree; truncate_depth / truncate_leaves give sub-budget trees."""
    if tree_seed is None:
        tree_seed = _derived_seed(cfg.seed, "tree")
    return _Grower(X, y, cfg, tree_seed).grow(rows)


def train_tree(X, y, cfg: TrainConfig = TrainConfig()) -> Tree:
    return train_tree_grown(X, y, cfg)


def train_forest_grown(X, y, cfg: TrainConfig) -> list[Tree]:
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    grown = []
    for t in range(cfg.n_trees):
        tree_seed = _derived_seed(cfg.seed, "forest-member", t)
        rows = None
        if cfg.bootstrap:
            rng = generator(cfg.seed, "bootstrap", t)
            rows = rng.integers(0, len(X), size=len(X))
        grown.append(_Grower(X, y, cfg, tree_seed).grow(rows))
    return grown


def train_forest(X, y, cfg: TrainConfig) -> Forest:
    """Bagged forest; per-tree streams keep results schedule-independent."""
    return Forest(tuple(train_forest_grown(X, y, cfg)))


def train_cascade(X, y, cfg: TrainConfig, first_layer: Optional[Tree] = None):
    """Layer-wise cascade training.

    In label mode each layer is a single tree and later layers see the
    previous layer's hard label as feature n+1; the result is a DeepTree.
    In classvector mode each layer is a forest and later layers see the
    layer's per-class vote fractions; the result is a CascadeForest.

    first_layer optionally injects a pre-trained first layer (label mode
    only); layer-1 training is seed-free here, so any greedy tree trained
    on the same rows with the same budgets is identical.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(X) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if cfg.augment_mode == "label":
        layer_cfg = replace(cfg, n_trees=1, bootstrap=False, feature_subsample="all")
        layers = []
        current = X
        for d in range(cfg.cascade_depth):
            if d == 0 and first_layer is not None:
                tree = first_layer
            else:
                tree_seed = _derived_seed(cfg.seed, "cascade-layer", d)
                tree = _Grower(current, y, layer_cfg, tree_seed).grow()
            layers.append(tree)
            if d + 1 < cfg.cascade_depth:
                predictions = evaluate_batch(tree, current)
                current = np.column_stack([X, predictions.astype(np.float64)])
        return DeepTree(tuple(layers))
    if first_layer is not None:
        raise ValueError("first_layer injection only applies to label mode")
    classes = tuple(int(c) for c in np.unique(y))
    layers = []
    current = X
    for d in range(cfg.cascade_depth):
        layer_cfg = replace(cfg, seed=_derived_seed(cfg.seed, "cascade-forest", d))
        forest = train_forest(current, y, layer_cfg)
        layers.append(forest)
        if d + 1 < cfg.cascade_depth:
            fractions = forest.vote_fractions(current, classes)
            current = np.column_stack([X, fractions])
    return CascadeForest(tuple(layers), classes)


def predict(model, X) -> np.ndarray:
    return predict_batch(model, np.asarray(X, dtype=np.float64))


def accuracy(model, X, y) -> float:
    y = np.asarray(y, dtype=np.int64)
    if len(y) == 0:
        raise EmptyDataset("cannot score an empty dataset")
    return float(np.mean(predict(model, X) == y))
