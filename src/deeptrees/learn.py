"""Greedy tree training, random forests, and cascade training.

The splitter is the usual sorted-sweep CART: candidate thresholds are
midpoints between consecutive distinct feature values, the split with
the highest Gini gain wins, and ties break to the lowest feature index
then the lowest threshold. Impure nodes split even at zero gain, which
is what lets a tree fit parity under the uniform distribution.

Training keeps an annotated "grown" tree around so a single deep run can
be truncated to any smaller depth or leaf budget; the truncation equals
retraining with the smaller budget because split decisions depend only
on the node's own rows.
"""

import heapq
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .ensemble import CascadeForest, DeepTree, Forest, predict_batch
from .errors import EmptyDataset, FeatureOutOfRange
from .rng import generator, seed_sequence
from .tree import Leaf, Node, Tree, evaluate_batch


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


@dataclass(frozen=True)
class GrownLeaf:
    label: int


@dataclass(frozen=True)
class GrownSplit:
    feature: int  # 1-based
    threshold: float
    left: object
    right: object
    majority: int  # label this subtree collapses to when truncated
    order: int  # realization order during growth


def to_params(grown) -> Tree:
    if isinstance(grown, GrownLeaf):
        return Leaf(grown.label)
    return Node(grown.feature, grown.threshold, to_params(grown.left), to_params(grown.right))


def truncate_depth(grown, max_depth: int) -> Tree:
    """The tree a run with this max_depth would have produced."""

    def walk(node, depth):
        if isinstance(node, GrownLeaf):
            return Leaf(node.label)
        if depth >= max_depth:
            return Leaf(node.majority)
        return Node(node.feature, node.threshold, walk(node.left, depth + 1), walk(node.right, depth + 1))

    return walk(grown, 0)


def depth_labels(grown, X, max_depth: int) -> np.ndarray:
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
        if isinstance(node, GrownLeaf):
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


def depth_leaf_counts(grown, max_depth: int) -> np.ndarray:
    """Leaf count of truncate_depth(grown, b) for every budget b in 0..max_depth.

    Under budget b the leaves are the grown leaves at depth <= b plus the
    splits at depth b, which collapse to their majority.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    leaves = np.zeros(max_depth + 1, dtype=np.int64)
    collapsed = np.zeros(max_depth + 1, dtype=np.int64)
    stack = [(grown, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, GrownLeaf):
            leaves[depth] += 1
            continue
        collapsed[depth] += 1
        if depth < max_depth:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return np.cumsum(leaves) + collapsed


def truncate_leaves(grown, max_leaves: int) -> Tree:
    """Prefix of a best-first grown tree with at most max_leaves leaves."""

    def walk(node):
        if isinstance(node, GrownLeaf):
            return Leaf(node.label)
        if node.order >= max_leaves - 1:
            return Leaf(node.majority)
        return Node(node.feature, node.threshold, walk(node.left), walk(node.right))

    return walk(grown)


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
    return float(gains[pos]), f + 1, (sv[b] + sv[b + 1]) / 2.0


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

    def grow_depth_first(self, idx) -> object:
        order_counter = [0]

        def walk(idx, depth, node_id):
            counts, majority = self._node_stats(idx)
            if not self._splittable(idx, counts, depth):
                return GrownLeaf(majority)
            best = self._best_split(idx, counts, node_id)
            if best is None:
                return GrownLeaf(majority)
            _, feature, threshold = best
            order = order_counter[0]
            order_counter[0] += 1
            go_left = self.X[idx, feature - 1] <= threshold
            left = walk(idx[go_left], depth + 1, node_id * 2)
            right = walk(idx[~go_left], depth + 1, node_id * 2 + 1)
            return GrownSplit(feature, threshold, left, right, majority, order)

        return walk(idx, 0, 1)

    def grow_best_first(self, idx) -> object:
        """Realize splits highest-gain-first until the leaf budget is hit."""
        records: dict[int, dict] = {}
        heap: list = []
        seq = 0

        def admit(idx, depth, node_id):
            nonlocal seq
            counts, majority = self._node_stats(idx)
            records[node_id] = {"majority": majority, "split": None}
            if not self._splittable(idx, counts, depth):
                return
            best = self._best_split(idx, counts, node_id)
            if best is None:
                return
            heapq.heappush(heap, (-best[0], seq, node_id, depth, idx, best))
            seq += 1

        admit(idx, 0, 1)
        leaves = 1
        order = 0
        while heap and leaves < self.cfg.max_leaves:
            _, _, node_id, depth, node_idx, best = heapq.heappop(heap)
            _, feature, threshold = best
            records[node_id]["split"] = (feature, threshold, order)
            order += 1
            leaves += 1
            go_left = self.X[node_idx, feature - 1] <= threshold
            admit(node_idx[go_left], depth + 1, node_id * 2)
            admit(node_idx[~go_left], depth + 1, node_id * 2 + 1)

        def assemble(node_id):
            record = records[node_id]
            if record["split"] is None:
                return GrownLeaf(record["majority"])
            feature, threshold, order = record["split"]
            return GrownSplit(
                feature, threshold, assemble(node_id * 2), assemble(node_id * 2 + 1),
                record["majority"], order,
            )

        return assemble(1)

    def grow(self, rows=None) -> object:
        idx = np.arange(len(self.X)) if rows is None else np.asarray(rows)
        if idx.size == 0:
            raise EmptyDataset("cannot train on an empty row selection")
        if self.cfg.max_leaves is not None:
            return self.grow_best_first(idx)
        return self.grow_depth_first(idx)


def _derived_seed(master_seed: int, *tags) -> int:
    words = seed_sequence(master_seed, *tags).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def train_tree_grown(X, y, cfg: TrainConfig, rows=None, tree_seed: Optional[int] = None):
    """Annotated greedy tree; truncate_depth / truncate_leaves give sub-budget trees."""
    if tree_seed is None:
        tree_seed = _derived_seed(cfg.seed, "tree")
    return _Grower(X, y, cfg, tree_seed).grow(rows)


def train_tree(X, y, cfg: TrainConfig = TrainConfig()) -> Tree:
    return to_params(train_tree_grown(X, y, cfg))


def train_forest_grown(X, y, cfg: TrainConfig) -> list:
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
    return Forest(tuple(to_params(g) for g in train_forest_grown(X, y, cfg)))


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
                tree = to_params(_Grower(current, y, layer_cfg, tree_seed).grow())
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
