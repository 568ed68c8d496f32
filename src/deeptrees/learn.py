"""Greedy tree training, random forests, and cascade training.

There is one trainer per model kind, and TrainConfig holds only settings:
train_tree, train_forest, train_cascade (the label cascade, a DeepTree of
trees that read the layer below's label) and train_cascade_forest (the
class-vector CascadeForest, whose forests read its vote fractions).

The splitter is the usual sorted-sweep CART: candidate thresholds are
midpoints between consecutive distinct feature values, the split with
the highest Gini gain wins, and ties break to the lowest feature index
then the lowest threshold. A midpoint that rounds up to the upper value
or overflows falls back to the lower value, so every threshold sends
the rows it was scored on both ways. Impure nodes split even at zero
gain, which is what lets a tree fit parity under the uniform
distribution.

Trees grow in batches: a forest's members together, a single tree (T)
as a batch of one, and a label-cascade layer as one member per distinct
input. Every member reads the raw features from one column-major copy of
the training matrix and its ranks; a batch may also give each member a
column of its own, read as feature n + 1, and each member has its own
depth limit. Depth-first growth runs level by level over one frontier
shared by the whole batch. Each splittable node reads the features in
the order of its own seed stream, generator(tree seed, "node", node id);
a level derives all its nodes' orders in one batch (rng.permutations),
the same permutations the per-node streams give. Step s scores every
node's s-th feature, one scoring pass per run of consecutive frontier
nodes that read the same column and hold at most PASS_ROWS rows; a
larger node is scored alone. So a level of many small nodes costs a few
numpy calls per feature, not per node. A node's gains read only its own
rows' class counts at boundaries between distinct values, with the same
elementwise float operations in a pass of any length, so batching, pass
budget and the order of equal values change no tree. Best-first growth
(a leaf budget) grows each member alone, highest gain first, on a gain
heap.

Training returns plain Leaf/Node trees whose nodes also record their
majority label, and best-first splits the order in which they were
realized, so a single deep run can be truncated to any smaller depth or
leaf budget; the truncation equals retraining with the smaller budget
because split decisions depend only on the node's own rows, and
tree.depth_labels scores every depth budget of a grown tree in one walk.
Label cascades use truncation across depth budgets: at each layer,
budgets whose input (the raw rows plus the layer below's training
predictions) is the same form a group, the group grows one member at its
largest budget, and its smaller budgets take truncations of it.
Depth-first growth, best-first growth and truncation all build their
trees in one assembler, from per-level records of each node's majority
and split; growth and truncation loop over levels, so no depth is too
deep to train.
"""

import heapq
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .ensemble import CascadeForest, DeepTree, Forest, predict_batch
from .errors import ConfigError, EmptyDataset, NonFiniteFeature, NonIntegralLabel, PreconditionViolated
from .rng import generator, permutations, seed_sequence
from .tree import Leaf, Node, Tree, evaluate_batch, walk


@dataclass(frozen=True)
class TrainConfig:
    max_depth: Optional[int] = None
    max_leaves: Optional[int] = None
    seed: int = 0
    n_trees: int = 1
    feature_subsample: str = "all"  # "all" | "sqrt"
    bootstrap: bool = True
    cascade_depth: int = 1

    def __post_init__(self):
        if self.max_depth is not None and self.max_depth < 0:
            raise ConfigError(f"max_depth must be >= 0, got {self.max_depth}")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ConfigError(f"max_leaves must be >= 1, got {self.max_leaves}")
        if self.n_trees < 1:
            raise ConfigError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.cascade_depth < 1:
            raise ConfigError(f"cascade_depth must be >= 1, got {self.cascade_depth}")
        if self.feature_subsample not in ("all", "sqrt"):
            raise ConfigError(f"unknown feature_subsample {self.feature_subsample!r}")


def _assemble(levels) -> list:
    """The trees whose roots are level 0's nodes, from per-level records.

    levels[d] = (labels, splits) over the nodes at depth d, left to right:
    each node's majority, and (j, feature, threshold, order) for each node
    j that splits, in ascending j. Level d's s-th split has level d + 1's
    nodes 2s and 2s + 1 as children. Only best-first growth records an
    order; depth-first splits carry None.
    """
    built: list = []
    for labels, splits in reversed(levels):
        nodes = [Leaf(label) for label in labels]
        for s, (j, feature, threshold, order) in enumerate(splits):
            nodes[j] = Node(feature, threshold, built[2 * s], built[2 * s + 1], labels[j], order)
        built = nodes
    return built


def _levels_by_id(majority: dict, splits: dict) -> list:
    """Level records of a tree recorded by node id (root 1, children 2i and
    2i + 1): majority[i] for every node, splits[i] = (feature, threshold,
    order) for those that split."""
    levels, ids = [], [1]
    while ids:
        split = [(j, *splits[i]) for j, i in enumerate(ids) if i in splits]
        levels.append(([majority[i] for i in ids], split))
        ids = [child for j, *_ in split for child in (2 * ids[j], 2 * ids[j] + 1)]
    return levels


def _prune(grown: Tree, keep) -> Tree:
    """Copy of a grown tree that keeps the splits keep(node, depth) accepts
    and collapses every other split to a leaf of its majority, built level
    by level. PreconditionViolated when a split to collapse records no
    majority, as in a parsed or constructed tree."""
    levels, nodes, depth = [], [grown], 0
    while nodes:
        labels = [node.label if isinstance(node, Leaf) else node.majority for node in nodes]
        splits = [
            (j, node.feature, node.threshold, node.order)
            for j, node in enumerate(nodes) if isinstance(node, Node) and keep(node, depth)
        ]
        kept = {j for j, *_ in splits}
        if any(label is None for j, label in enumerate(labels) if j not in kept):
            raise PreconditionViolated("truncation needs a trained tree: a split records no majority")
        levels.append((labels, splits))
        nodes = [child for j, *_ in splits for child in (nodes[j].left, nodes[j].right)]
        depth += 1
    return _assemble(levels)[0]


def truncate_depth(grown: Tree, max_depth: int) -> Tree:
    """The tree a run with this max_depth would have produced."""
    return _prune(grown, lambda node, depth: depth < max_depth)


def depth_leaf_counts(grown: Tree, max_depth: int) -> np.ndarray:
    """Leaf count of truncate_depth(grown, b) for every budget b in 0..max_depth.

    Under budget b the leaves are the grown leaves at depth <= b plus the
    splits at depth b, which collapse to their majority.
    """
    if max_depth < 0:
        raise ConfigError(f"max_depth must be >= 0, got {max_depth}")
    leaves = np.zeros(max_depth + 1, dtype=np.int64)
    collapsed = np.zeros(max_depth + 1, dtype=np.int64)
    for node, depth in walk(grown):
        if depth <= max_depth:
            (leaves if isinstance(node, Leaf) else collapsed)[depth] += 1
    return np.cumsum(leaves) + collapsed


def truncate_leaves(grown: Tree, max_leaves: int) -> Tree:
    """Prefix of a best-first grown tree with at most max_leaves leaves: the
    first max_leaves - 1 splits its growth realized, by Node.order."""
    if isinstance(grown, Node) and grown.order is None:
        raise PreconditionViolated("leaf truncation needs a best-first tree: a split has no order")
    return _prune(grown, lambda node, depth: node.order < max_leaves - 1)


# ---------------------------------------------------------------------------
# splitter
# ---------------------------------------------------------------------------

# Rows one scoring pass may hold. Consecutive frontier nodes that read the
# same feature share a pass while their rows add up to at most this many;
# a larger node is scored alone. A pass costs a fixed numpy overhead plus
# time linear in its rows, so small nodes want long passes, while a pass's
# temporaries (a score of arrays of its length) want short ones. Measured
# on sim data: growth time was flat from 4096 to 8192 rows at 700, 1750 and
# 70k training rows and 7% lower at 8192 at 14k, while 8192 added about
# 0.25 MB to a 700-row sim-n8 sweep's peak memory.
PASS_ROWS = 4096


def _passes(sizes) -> list:
    """Slices of consecutive nodes whose rows add up to at most PASS_ROWS;
    a node larger than that gets a slice of its own."""
    cuts = []
    lo = rows = 0
    for j, size in enumerate(sizes.tolist()):
        if j > lo and rows + size > PASS_ROWS:
            cuts.append(slice(lo, j))
            lo = j
            rows = 0
        rows += size
    if len(sizes):
        cuts.append(slice(lo, len(sizes)))
    return cuts


def _feature_best(column, y_codes, rows, start, size, counts, parent_gini, rank=None):
    """Best split along one column of every node of one scoring pass.

    column holds every training row's value. Node j of the pass holds
    rows[start[j]:start[j] + size[j]], its class counts counts[j] and its
    Gini impurity parent_gini[j]. A one-node pass sorts its values; a
    longer one sorts (node, rank[row]), with rank the rank of each
    training row's value in the column. Returns (gain, threshold) arrays,
    gain -inf where a node's values are all equal. A threshold is the
    midpoint of the two values it falls between, or the lower value when
    the midpoint overflows or rounds up to the upper one, so it always
    sends the lower value left and the upper right.

    The arithmetic is elementwise and in the same order for every node, so
    a node's gains are the same floats in a pass of any length.
    """
    k = len(start)
    if k == 1:
        lo = int(start[0])
        r = rows[lo:lo + int(size[0])]
        vals = column[r]
        order = vals.argsort()
        r, sv = r[order], vals[order]
        cut = sv[:-1] < sv[1:]
    else:
        offset = size.cumsum() - size  # each node's first position in the pass
        node = np.arange(k).repeat(size)
        r = rows[(start - offset).repeat(size) + np.arange(node.size)]
        r = r[(node * rank.size + rank[r]).argsort()]
        sv = column[r]
        cut = (sv[:-1] < sv[1:]) & (node[:-1] == node[1:])
    boundaries = cut.nonzero()[0]
    gain = np.empty(k)
    gain[:] = -np.inf
    threshold = np.zeros(k)
    if boundaries.size == 0:
        return gain, threshold
    # per-boundary node statistics: scalars in a one-node pass
    at = node[boundaries] if k > 1 else 0
    first = offset[at] if k > 1 else 0
    m = size[at]
    sy = y_codes[r]
    left_sizes = (boundaries + 1 - first).astype(np.float64)
    right_sizes = m - left_sizes
    left_sq = right_sq = 0.0  # 0.0 + x is x, so the sums match starting from zeros
    for c in counts.any(axis=0).nonzero()[0]:
        cum_c = (sy == c).cumsum()
        left_c = cum_c[boundaries]
        if k > 1:
            left_c = left_c - (cum_c[offset] - (sy[offset] == c))[at]
        left_c = left_c.astype(np.float64)
        left_sq = left_sq + left_c**2
        right_sq = right_sq + (counts[at, c] - left_c) ** 2
    gini_left = 1.0 - left_sq / left_sizes**2
    gini_right = 1.0 - right_sq / right_sizes**2
    gains = parent_gini[at] - (left_sizes * gini_left + right_sizes * gini_right) / m
    # each node's first maximum -> its lowest threshold
    if k == 1:
        pos = gains.argmax()
        owner = 0
    else:
        per_node = np.bincount(at, minlength=k)
        owner = per_node.nonzero()[0]
        heads = (per_node.cumsum() - per_node)[owner]
        top = np.maximum.reduceat(gains, heads).repeat(per_node[owner])
        pos = np.minimum.reduceat(np.where(gains == top, np.arange(gains.size), gains.size), heads)
    b = boundaries[pos]
    gain[owner] = gains[pos]
    # on Python floats, whose sum overflows to inf without a warning
    if k == 1:
        threshold[0] = _between(float(sv[b]), float(sv[b + 1]))
    else:
        threshold[owner] = [_between(lo, hi) for lo, hi in zip(sv[b].tolist(), sv[b + 1].tolist())]
    return gain, threshold


def _between(lower: float, upper: float) -> float:
    """A threshold that sends lower left and upper right: their midpoint, or
    lower when the midpoint overflows or rounds up to upper."""
    middle = (lower + upper) / 2.0
    return middle if math.isfinite(middle) and middle < upper else lower


def _checked_labels(y) -> np.ndarray:
    """Labels as int64; NonIntegralLabel names the first that is not a finite integer."""
    y = np.asarray(y)
    if y.dtype.kind not in "biu":
        values = y.astype(np.float64)
        integral = np.isfinite(values) & (np.floor(values) == values) & (np.abs(values) < 2.0**63)
        if not integral.all():
            row = int(np.argmin(integral))
            raise NonIntegralLabel(
                f"row {row} label is {float(values[row])!r}; training needs integer labels", row
            )
    return y.astype(np.int64)


class _Grower:
    """Batches of trees grown on the same training matrix.

    The matrix is held a column at a time: columns[p] is physical column
    p, every training row's value. Raw feature f + 1 is column f, shared
    by every member; a batch may add one column per member, member t's
    feature n + 1, at column n + t, which replace the previous batch's.
    Ranks of the raw columns are kept across batches, so a grower reused
    for several batches ranks each raw column once.

    Every member's rows sit in one index array, each tree in its own block,
    and a node owns a contiguous segment of it; a split partitions its
    segment in place. A frontier is parallel arrays over its nodes: owning
    tree, segment start and size, class counts, plus Python node ids.
    """

    def __init__(self, X, y, cfg: TrainConfig):
        if len(X) == 0:
            raise EmptyDataset("cannot train on an empty dataset")
        X = np.asarray(X, dtype=np.float64)
        if not np.isfinite(X).all():
            row, f = (int(v) for v in np.argwhere(~np.isfinite(X))[0])
            raise NonFiniteFeature(
                f"row {row} feature {f + 1} is {float(X[row, f])!r}; "
                "training needs finite features", row, f + 1,
            )
        self.classes, self.y_codes = np.unique(_checked_labels(y), return_inverse=True)
        self.cfg = cfg
        self.n_rows, self.n_raw = X.shape
        self.columns = np.ascontiguousarray(X.T)
        self.index_dtype = np.int32 if self.n_rows < 2**31 else np.int64
        self.ranks: dict = {}

    def _rank(self, p):
        """Each training row's rank in column p: the number of rows with a
        smaller value, so equal values share a rank."""
        if p not in self.ranks:
            column = self.columns[p]
            self.ranks[p] = np.searchsorted(np.sort(column), column).astype(self.index_dtype)
        return self.ranks[p]

    def grow(self, seeds, member_rows, max_depths=None, own=None) -> list:
        """One grown tree per tree seed; member t trains on member_rows(t),
        indices into X, the same count for every member. max_depths[t] is
        member t's depth limit (None: no limit; default cfg.max_depth for
        every member) and own[t], when own is given, its feature n + 1.

        Depth-first growth (no leaf budget) runs level by level over one
        frontier shared by all members; best-first growth grows each
        member alone, highest gain first.
        """
        first = np.asarray(member_rows(0))
        if first.size == 0:
            raise EmptyDataset("cannot train on an empty row selection")
        if max_depths is None:
            max_depths = [self.cfg.max_depth] * len(seeds)
        self.seeds = list(seeds)
        self.limits = np.array([math.inf if d is None else d for d in max_depths])
        self.shallowest = self.limits.min()
        if own is not None:
            columns = np.empty((self.n_raw + len(own), self.n_rows))
            columns[:self.n_raw] = self.columns[:self.n_raw]
            columns[self.n_raw:] = own
            self.columns = columns
        self.n_features = self.n_raw + (own is not None)
        if self.cfg.feature_subsample == "sqrt":
            self.n_examine = max(1, math.isqrt(self.n_features))
        else:
            self.n_examine = self.n_features
        block = first.size
        self.rows = np.empty(len(seeds) * block, dtype=self.index_dtype)
        for t in range(len(seeds)):
            self.rows[t * block:(t + 1) * block] = first if t == 0 else member_rows(t)
        del first
        start = np.arange(len(seeds), dtype=np.int64) * block
        size = np.full(len(seeds), block, dtype=np.int64)
        counts = np.stack([
            np.bincount(self.y_codes[self.rows[s:s + block]], minlength=len(self.classes))
            for s in start.tolist()
        ])
        if self.cfg.max_leaves is not None:
            grown = [
                self._grow_best_first(t, start[t:t + 1], size[t:t + 1], counts[t:t + 1])
                for t in range(len(seeds))
            ]
        else:
            grown = self._grow_levels(start, size, counts)
        # keep the raw columns' ranks for the next batch
        self.rows = None
        self.ranks = {p: rank for p, rank in self.ranks.items() if p < self.n_raw}
        return grown

    def _grow_levels(self, start, size, counts) -> list:
        levels = []
        tree = np.arange(len(start))
        ids = [1] * len(start)
        depth = 0
        while ids:
            labels, split, _, feature, threshold = self._admit(tree, ids, start, size, counts, depth)
            splits = zip(split.tolist(), feature.tolist(), threshold.tolist())
            levels.append((labels.tolist(), [(j, f, t, None) for j, f, t in splits]))
            start, size, tree = start[split], size[split], tree[split]
            left, right = self._partition(start, size, tree, feature, threshold)
            left_size = left.sum(axis=1)
            # children interleaved, left first, so segments stay in row order
            start = np.column_stack((start, start + left_size)).ravel()
            size = np.column_stack((left_size, size - left_size)).ravel()
            counts = np.stack((left, right), axis=1).reshape(-1, len(self.classes))
            tree = tree.repeat(2)
            ids = [child for j in split.tolist() for child in (2 * ids[j], 2 * ids[j] + 1)]
            depth += 1
        return _assemble(levels)

    def _grow_best_first(self, t, start, size, counts) -> Tree:
        """Member t, each admitted node's best split on a gain heap; the
        highest gain splits next, ties to the earliest admitted."""
        majority: dict = {}
        splits: dict = {}
        frontier: list = []
        admitted = itertools.count()
        ids, depth = [1], 0
        while True:
            labels, split, gain, feature, threshold = self._admit(
                np.full(len(ids), t), ids, start, size, counts, depth
            )
            majority.update(zip(ids, labels.tolist()))
            chosen = dict(zip(split.tolist(), zip(gain.tolist(), feature.tolist(), threshold.tolist())))
            for j, node_id in enumerate(ids):
                sequence = next(admitted)
                if j in chosen:
                    entry = (node_id, depth, start[j : j + 1], size[j : j + 1], *chosen[j])
                    heapq.heappush(frontier, (-entry[4], sequence, entry))
            if not frontier or len(splits) + 1 >= self.cfg.max_leaves:
                return _assemble(_levels_by_id(majority, splits))[0]
            node_id, depth, start, size, _, feature, threshold = heapq.heappop(frontier)[2]
            splits[node_id] = (feature, threshold, len(splits))
            left, right = self._partition(start, size, t, np.array([feature]), np.array([threshold]))
            left_size = left.sum(axis=1)
            start = np.concatenate((start, start + left_size))
            size = np.concatenate((left_size, size - left_size))
            counts = np.concatenate((left, right))
            ids, depth = [2 * node_id, 2 * node_id + 1], depth + 1

    def _admit(self, tree, ids, start, size, counts, depth):
        """(labels, split, gain, feature, threshold) of a frontier: each
        node's majority, the indices of the nodes that split, and their
        splits. tree[j] is node j's member."""
        labels = self.classes[counts.argmax(axis=1)]  # first max = lowest class
        splittable = counts.max(axis=1) < size  # impure, so at least two rows
        if depth >= self.shallowest:  # some member's depth limit is reached
            splittable &= depth < self.limits[tree]
        candidates = splittable.nonzero()[0]
        if len(candidates) == len(ids):  # every node: no gathers
            gain, feature, threshold = self._search(tree, ids, start, size, counts)
        else:
            gain, feature, threshold = self._search(
                tree[candidates], [ids[j] for j in candidates.tolist()],
                start[candidates], size[candidates], counts[candidates],
            )
        found = gain > -np.inf
        return labels, candidates[found], gain[found], feature[found], threshold[found]

    def _search(self, tree, ids, start, size, counts):
        """Best (gain, 1-based feature, threshold) of each node, gain -inf
        when none: highest gain, then lowest feature, then lowest threshold.

        Step s scores the s-th feature of every node's order, one scoring
        pass per run of nodes that read the same column: a raw feature's
        readers share one, and feature n + 1's readers split by member,
        which the frontier keeps contiguous. A node stops once it has
        examined n_examine features and found a valid split.
        """
        k, n = len(start), self.n_features
        parent_gini = 1.0 - ((counts / size[:, None]) ** 2).sum(axis=1)
        orders = None  # every node reads the features in index order
        if self.cfg.feature_subsample != "all":
            orders = permutations([self.seeds[t] for t in tree.tolist()], "node", ids, n)
        gains = np.empty((n, k))  # by feature; -inf where not examined or constant
        gains[:] = -np.inf
        thresholds = np.zeros((n, k))
        active = np.arange(k)
        everyone = _passes(size) if orders is None else None  # when all read one column
        for step in range(n):
            if orders is None:
                readers_of = [(step, None)]
            else:
                wanted = orders[active, step]
                readers_of = [
                    (f, active[wanted == f])
                    for f in np.bincount(wanted, minlength=n).nonzero()[0].tolist()
                ]
            for f, readers in readers_of:
                runs = [(f, readers)]
                if f >= self.n_raw:  # each member reads its own column
                    readers = np.arange(k) if readers is None else readers
                    members, heads = np.unique(tree[readers], return_index=True)
                    runs = zip((self.n_raw + members).tolist(), np.split(readers, heads[1:]))
                for p, readers in runs:
                    column = self.columns[p]
                    for cut in everyone if readers is None else _passes(size[readers]):
                        nodes = cut if readers is None else readers[cut]
                        gains[f, nodes], thresholds[f, nodes] = _feature_best(
                            column, self.y_codes, self.rows, start[nodes], size[nodes],
                            counts[nodes], parent_gini[nodes],
                            self._rank(p) if cut.stop - cut.start > 1 else None,
                        )
            # keep looking past the subsample size until a valid split shows up
            if self.n_examine <= step + 1 < n:
                active = active[(gains[:, active] == -np.inf).all(axis=0)]
                if active.size == 0:
                    break
        # the first maximum over features: highest gain, then lowest feature
        feature = gains.argmax(axis=0)
        nodes = np.arange(k)
        return gains[feature, nodes], feature + 1, thresholds[feature, nodes]

    def _partition(self, start, size, tree, feature, threshold):
        """Stably partition each splitting node's segment in place, rows
        going left first; the left and right children's class counts.
        tree[j] (or a scalar tree) is node j's member."""
        column = feature - 1
        if self.n_features > self.n_raw:  # feature n + 1 is each member's own column
            column = np.where(column < self.n_raw, column, self.n_raw + tree)
        n_classes = len(self.classes)
        left = np.empty((len(start), n_classes), dtype=np.int64)
        right = np.empty_like(left)
        for cut in _passes(size):
            st, sz, p, t = start[cut], size[cut], column[cut], threshold[cut]
            k = len(st)
            if k == 1:  # one node: a plain slice, without per-row node bookkeeping
                where = slice(int(st[0]), int(st[0] + sz[0]))
                r = self.rows[where]
                node = 0
                go_left = self.columns[p[0]][r] <= t[0]
            else:
                offset = sz.cumsum() - sz
                node = np.arange(k).repeat(sz)
                here = np.arange(node.size)
                where = (st - offset).repeat(sz) + here
                r = self.rows[where]
                go_left = self.columns[p[node], r] <= t[node]
            tally = np.bincount(
                (2 * node + ~go_left) * n_classes + self.y_codes[r], minlength=2 * k * n_classes
            ).reshape(k, 2, n_classes)
            left[cut], right[cut] = tally[:, 0], tally[:, 1]
            if k == 1:
                self.rows[where] = np.concatenate((r[go_left], r[~go_left]))
                continue
            n_left = tally[:, 0].sum(axis=1)
            before = go_left.cumsum() - go_left  # left rows ahead of each row in the pass
            lead = before[offset]
            dest = np.where(
                go_left, before + (offset - lead)[node], here - before + (n_left + lead)[node]
            )
            placed = np.empty_like(r)
            placed[dest] = r
            self.rows[where] = placed
        return left, right


def _derived_seed(master_seed: int, *tags) -> int:
    words = seed_sequence(master_seed, *tags).generate_state(2)
    return int(words[0]) | (int(words[1]) << 32)


def train_tree_grown(X, y, cfg: TrainConfig) -> Tree:
    """Greedy tree; truncate_depth / truncate_leaves give sub-budget trees."""
    grower = _Grower(X, y, cfg)
    return grower.grow([_derived_seed(cfg.seed, "tree")], lambda t: np.arange(len(X)))[0]


def train_tree(X, y, cfg: TrainConfig = TrainConfig()) -> Tree:
    return train_tree_grown(X, y, cfg)


def train_forest_grown(X, y, cfg: TrainConfig) -> list[Tree]:
    """Every member grown in one batch; member t depends only on (seed, t)."""
    grower = _Grower(X, y, cfg)
    n = len(X)

    def member_rows(t):
        if cfg.bootstrap:
            return generator(cfg.seed, "bootstrap", t).integers(0, n, size=n)
        return np.arange(n)

    seeds = [_derived_seed(cfg.seed, "forest-member", t) for t in range(cfg.n_trees)]
    return grower.grow(seeds, member_rows)


def train_forest(X, y, cfg: TrainConfig) -> Forest:
    """Bagged forest; per-tree streams keep results schedule-independent."""
    return Forest(tuple(train_forest_grown(X, y, cfg)))


def train_label_cascades(X, y, cfg: TrainConfig, budgets, first_layer: Optional[Tree] = None) -> list:
    """Label cascades of cfg.cascade_depth layers, one per depth budget,
    trained together: cascade i equals
    train_cascade(X, y, replace(cfg, max_depth=budgets[i])), and a budget of
    None sets no depth limit.

    Layer by layer, budgets whose input is the same (the raw rows, plus
    from layer 2 on the layer below's training predictions as feature
    n + 1) form a group. Each group grows one member at its largest
    budget, and its smaller budgets take truncate_depth of that member,
    which equals retraining. A layer's members grow in one batch on the
    shared raw columns, each with its own feature n + 1 and depth limit.
    With a leaf budget truncation is not retraining, so every budget must
    then be the same.

    first_layer optionally injects layer 1 as grown at the largest budget:
    that budget uses it as it is and smaller ones truncate it. Layer-1
    training is seed-free, so any greedy tree grown on the same rows at
    that budget is the one training would grow.
    """
    budgets = list(budgets)
    if cfg.max_leaves is not None and len(set(budgets)) > 1:
        raise ConfigError("with a leaf budget every depth budget must be the same")
    X = np.asarray(X, dtype=np.float64)
    grower = _Grower(X, y, replace(cfg, n_trees=1, bootstrap=False, feature_subsample="all"))
    every_row = np.arange(len(X))
    reach = [math.inf if b is None else b for b in budgets]
    layers: list = [[] for _ in budgets]
    columns: list = [None]  # the layer's distinct feature n + 1 columns; none on layer 1
    source = [0] * len(budgets)  # the column each budget's layer reads
    for d in range(cfg.cascade_depth):
        groups = [[i for i, j in enumerate(source) if j == g] for g in range(len(columns))]
        tops = [max(group, key=reach.__getitem__) for group in groups]
        if d == 0 and first_layer is not None:
            grown = [first_layer]
        else:
            seed = _derived_seed(cfg.seed, "cascade-layer", d)
            grown = grower.grow(
                [seed] * len(groups), lambda t: every_row, [budgets[i] for i in tops],
                None if d == 0 else columns,
            )
        following: list = []
        for group, top, tree, column in zip(groups, tops, grown, columns):
            height = max(depth for _, depth in walk(tree))
            cut = {i: height if reach[i] == reach[top] else min(budgets[i], height) for i in group}
            pruned = {
                c: tree if c == height else truncate_depth(tree, c) for c in sorted(set(cut.values()))
            }
            for i in group:
                layers[i].append(pruned[cut[i]])
            if d + 1 == cfg.cascade_depth:
                continue
            seen = X if column is None else np.column_stack((X, column))
            for c, layer in pruned.items():
                labels = evaluate_batch(layer, seen)
                # a few classes: keep them in the narrowest integer type
                labels = labels.astype(
                    np.result_type(np.min_scalar_type(labels.min()), np.min_scalar_type(labels.max()))
                )
                same = [j for j, known in enumerate(following) if np.array_equal(known, labels)]
                if not same:
                    following.append(labels)
                for i in group:
                    if cut[i] == c:
                        source[i] = same[0] if same else len(following) - 1
        columns = following
    return [DeepTree(tuple(cascade)) for cascade in layers]


def train_cascade(X, y, cfg: TrainConfig) -> DeepTree:
    """Label cascade of cfg.cascade_depth layers: each layer is a single
    tree, and later layers see the layer below's hard label as feature
    n + 1. The one-budget case of train_label_cascades."""
    return train_label_cascades(X, y, cfg, [cfg.max_depth])[0]


def train_cascade_forest(X, y, cfg: TrainConfig) -> CascadeForest:
    """Class-vector cascade forest of cfg.cascade_depth layers: each layer
    is a forest, and later layers see the raw rows plus the layer below's
    per-class vote fractions. Layer d's seed depends only on (seed, d)."""
    X = np.asarray(X, dtype=np.float64)
    y = _checked_labels(y)
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
