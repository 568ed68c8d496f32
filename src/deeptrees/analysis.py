"""Exact combinatorics over lattice concepts and models.

Everything here enumerates; nothing samples. Probabilities are exact
rationals built from the distributions' integer weight tables, so the
zero-error and tight-bound checks need no tolerances. A region's point
weights (products of ``dim_weight_ints``) are held as an n-d numpy array
and summed whole-array. Its dtype is int64 when the region's bound, the
product over axes of the axis weights summed over the region's range,
is at most 2**63 - 1; the bound caps every point weight and every sum
over the region, so no sum can wrap. Past it (a=5 on [4]^8 passes 2**63)
the array holds Python ints in dtype object. Either way every sum leaves
numpy as a Python int before any Fraction or square is formed, so the
integers, and every mass, gain and risk built from them, are the same.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .ensemble import Forest, predict_batch, total_leaves
from .errors import (
    ConfigError,
    EmptyRegion,
    OutOfBounds,
    PreconditionViolated,
    SearchBudgetExceeded,
    SpaceTooLarge,
)
from .lattice import Concept, LatticeDistribution, LatticeSpace
from .tree import Leaf, Node, Region, Tree, full_region, region_size, split_region

PARTITION_CAP = 2**20
ORACLE_POINT_CAP = 2**6
INT64_MAX = 2**63 - 1


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


@dataclass
class LabelPartition:
    """Partition of the lattice into maximal same-label connected classes."""

    space: LatticeSpace
    radius: int
    classes: list  # list of sorted point-index arrays, ordered by smallest member
    labels: list  # one label per class
    class_of: np.ndarray  # class index per enumeration rank

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def count_with_label(self, label: int) -> int:
        return sum(1 for v in self.labels if v == label)


def _l1_offsets(n: int, r: int):
    """Nonzero offsets with L1 norm <= r, one per unordered pair."""
    out = []
    for delta in itertools.product(range(-r, r + 1), repeat=n):
        if sum(abs(d) for d in delta) == 0 or sum(abs(d) for d in delta) > r:
            continue
        if delta > tuple([0] * n):  # lexicographically positive half
            out.append(delta)
    return out


def label_partition(space: LatticeSpace, concept: Concept, r: int = 1, cap: int = PARTITION_CAP) -> LabelPartition:
    """Connected components of the same-label, L1-distance <= r graph."""
    if r < 1:
        raise ConfigError(f"radius r must be >= 1, got {r}")
    points = space.enumerate_points(cap)
    labels = concept.labels(points)
    uf = _UnionFind(space.size)
    strides = np.array([space.p ** (space.n - 1 - j) for j in range(space.n)], dtype=np.int64)
    for delta in _l1_offsets(space.n, r):
        delta_arr = np.array(delta, dtype=np.int64)
        shifted = points + delta_arr
        valid = np.all((shifted >= 1) & (shifted <= space.p), axis=1)
        ranks = np.arange(space.size, dtype=np.int64)
        neighbor = ranks + delta_arr @ strides
        same = valid.copy()
        same[valid] = labels[ranks[valid]] == labels[neighbor[valid]]
        for a, b in zip(ranks[same], neighbor[same]):
            uf.union(int(a), int(b))
    groups: dict[int, list[int]] = {}
    for i in range(space.size):
        groups.setdefault(uf.find(i), []).append(i)
    ordered = sorted(groups.values(), key=lambda members: members[0])
    class_of = np.empty(space.size, dtype=np.int64)
    class_labels = []
    classes = []
    for ci, members in enumerate(ordered):
        arr = np.array(members, dtype=np.int64)
        classes.append(arr)
        class_labels.append(int(labels[arr[0]]))
        class_of[arr] = ci
    return LabelPartition(space, r, classes, class_labels, class_of)


def _region_grid(space: LatticeSpace, concept: Concept, dist: LatticeDistribution,
                 region: Region) -> tuple[np.ndarray, np.ndarray]:
    """Labels and exact weights of every lattice point of a region.

    Both arrays are shaped like the region, axis j running over feature
    j+1's values lo..hi, so their ravel order is enumeration order.
    Weights are the outer product of the per-dimension integer weights,
    unnormalized (the full lattice sums to dist.total_weight_int()). Their
    dtype is int64 when the region's bound, the product over axes of the
    weights summed over lo..hi, is at most INT64_MAX, and object (Python
    ints) otherwise. Weights are positive, so the bound caps every partial
    product and every sum, and both dtypes hold the same integers.
    Callers convert sums to Python ints (int(), .tolist()) before
    squaring them.
    """
    if len(region) != space.n or any(lo < 1 or hi > space.p for lo, hi in region):
        raise OutOfBounds(f"region {region} is not a box inside [{space.p}]^{space.n}")
    grid = np.meshgrid(*[np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in region],
                       indexing="ij", copy=False)
    labels = concept.labels(np.stack(grid, axis=-1).reshape(-1, space.n)).reshape(grid[0].shape)
    axis_weights = [dist.dim_weight_ints(i)[0][lo - 1:hi] for i, (lo, hi) in enumerate(region, start=1)]
    bound = 1
    for dim_weights in axis_weights:
        bound *= sum(dim_weights)
    dtype = np.int64 if bound <= INT64_MAX else object
    weights = np.array(1, dtype=dtype)
    for dim_weights in axis_weights:
        weights = np.multiply.outer(weights, np.array(dim_weights, dtype=dtype))
    return labels, weights


@dataclass
class RiskReport:
    error_set_size: int
    proper_set_size: int
    exact_risk: Fraction
    leaf_count: int
    space_size: int

    @property
    def risk(self) -> float:
        return float(self.exact_risk)


def risk_report(model, concept: Concept, dist: LatticeDistribution, space: LatticeSpace,
                cap: int = PARTITION_CAP) -> RiskReport:
    """Exact misclassified mass of a model against a concept."""
    points = space.enumerate_points(cap)
    predictions = predict_batch(model, points.astype(np.float64))
    truth, weights = _region_grid(space, concept, dist, full_region(space))
    wrong = predictions != truth.ravel()
    error_size = int(np.count_nonzero(wrong))
    exact = Fraction(int(weights.ravel()[wrong].sum()), dist.total_weight_int())
    return RiskReport(
        error_set_size=error_size,
        proper_set_size=space.size - error_size,
        exact_risk=exact,
        leaf_count=total_leaves(model),
        space_size=space.size,
    )


@dataclass
class LeafBoundReport:
    total_leaf_count: int
    space_size: int
    holds: bool


def forest_zero_error_leafbound(forest: Forest, concept: Concept, space: LatticeSpace,
                                cap: int = PARTITION_CAP) -> LeafBoundReport:
    """Check total leaves >= p^n for a forest that is strictly-majority correct everywhere."""
    points = space.enumerate_points(cap)
    votes = forest.member_predictions(points.astype(np.float64))
    truth = concept.labels(points)
    correct_votes = (votes == truth[None, :]).sum(axis=0)
    if not bool(np.all(correct_votes * 2 > len(forest.trees))):
        raise PreconditionViolated(
            "forest is not strictly-majority correct on every lattice point"
        )
    total = total_leaves(forest)
    return LeafBoundReport(total_leaf_count=total, space_size=space.size, holds=total >= space.size)


# ---------------------------------------------------------------------------
# exhaustive approximation-complexity search
# ---------------------------------------------------------------------------


@dataclass
class ComplexityResult:
    family: str
    epsilon: Fraction
    max_leaves: int
    minimal_dim: Optional[int]
    minimal_leaves: Optional[int]
    witness: Optional[Tree]
    achieved_risk: Optional[Fraction]
    search_exhaustive: bool
    states_explored: int


class _OracleSearch:
    """Bottom-up minimal-error DP over hyperrectangles and leaf budgets.

    Restricting thresholds to integer cuts loses nothing on a lattice: a
    split on (feature i, real threshold t) sends integer x left iff
    x <= floor(t), so it partitions lattice points exactly like the cut
    q = clamp(floor(t), 0, p). Cuts outside [1, p-1] leave one side
    empty, and a tree with an empty-side split is outperformed or
    matched by the same tree with that split removed (one leaf fewer,
    identical labeling). Hence the minimum over integer-cut trees with
    at most L leaves equals the minimum over all real-threshold trees
    with at most L leaves, and exhausting the former is exhaustive over
    the hypothesis family restricted to the lattice.
    """

    def __init__(self, space, concept, dist, node_budget):
        self.space = space
        self.concept = concept
        self.dist = dist
        self.node_budget = node_budget
        self.states = 0
        self._memo: dict[tuple[Region, int], tuple[int, object]] = {}
        self._class_weights: dict[Region, tuple[int, int]] = {}

    def region_class_weights(self, region: Region) -> tuple[int, int]:
        """(positive weight, negative weight) of the region, exact ints."""
        cached = self._class_weights.get(region)
        if cached is not None:
            return cached
        labels, weights = _region_grid(self.space, self.concept, self.dist, region)
        w_pos = int(weights[labels == 1].sum())
        w_neg = int(weights.sum()) - w_pos
        self._class_weights[region] = (w_pos, w_neg)
        return w_pos, w_neg

    def min_error(self, region: Region, budget: int) -> tuple[int, object]:
        """Minimal error weight over subtrees with at most `budget` leaves.

        The choice is None for a leaf (pick the majority-weight label,
        ties to -1) or (feature, cut, left_budget) for the best split.
        """
        key = (region, budget)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        self.states += 1
        if self.states > self.node_budget:
            raise SearchBudgetExceeded(f"oracle exceeded {self.node_budget} search states")
        w_pos, w_neg = self.region_class_weights(region)
        best_err, best_choice = min(w_pos, w_neg), None
        if budget >= 2 and best_err > 0:
            for feature in range(1, self.space.n + 1):
                lo, hi = region[feature - 1]
                for cut in range(lo, hi):
                    left, right = split_region(region, feature - 1, cut)
                    for left_budget in range(1, budget):
                        el, _ = self.min_error(left, left_budget)
                        er, _ = self.min_error(right, budget - left_budget)
                        if el + er < best_err:
                            best_err = el + er
                            best_choice = (feature, cut, left_budget)
        self._memo[key] = (best_err, best_choice)
        return best_err, best_choice

    def build_witness(self, region: Region, budget: int) -> Tree:
        _, choice = self.min_error(region, budget)
        if choice is None:
            w_pos, w_neg = self.region_class_weights(region)
            return Leaf(-1 if w_pos <= w_neg else +1)
        feature, cut, left_budget = choice
        left, right = split_region(region, feature - 1, cut)
        return Node(
            feature,
            float(cut),
            self.build_witness(left, left_budget),
            self.build_witness(right, budget - left_budget),
        )


def tree_complexity_oracle(space: LatticeSpace, concept: Concept, dist: LatticeDistribution,
                           epsilon, max_leaves: int, node_budget: int = 500_000,
                           point_cap: int = ORACLE_POINT_CAP) -> ComplexityResult:
    """Minimal tree size reaching misclassification mass <= epsilon.

    Exhausts the integer-cut tree family up to max_leaves leaves; minimal
    over that family equals minimal over all real-threshold trees because
    lattice routing only sees the integer cut.
    """
    if space.size > point_cap:
        raise SpaceTooLarge(f"oracle limited to p^n <= {point_cap}, got {space.size}")
    if max_leaves < 1:
        raise ConfigError(f"max_leaves must be >= 1, got {max_leaves}")
    try:
        epsilon = Fraction(epsilon)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"epsilon must be a rational number such as 1/4, got {epsilon!r}") from None
    search = _OracleSearch(space, concept, dist, node_budget)
    total_weight = dist.total_weight_int()
    region = full_region(space)
    for leaves in range(1, max_leaves + 1):
        err, _ = search.min_error(region, leaves)
        if Fraction(err, total_weight) <= epsilon:
            witness = search.build_witness(region, leaves)
            return ComplexityResult(
                family="tree",
                epsilon=epsilon,
                max_leaves=max_leaves,
                minimal_dim=3 * (leaves - 1) + 1,
                minimal_leaves=leaves,
                witness=witness,
                achieved_risk=Fraction(err, total_weight),
                search_exhaustive=True,
                states_explored=search.states,
            )
    return ComplexityResult(
        family="tree",
        epsilon=epsilon,
        max_leaves=max_leaves,
        minimal_dim=None,
        minimal_leaves=None,
        witness=None,
        achieved_risk=None,
        search_exhaustive=True,
        states_explored=search.states,
    )


# ---------------------------------------------------------------------------
# exact impurity gains
# ---------------------------------------------------------------------------


@dataclass
class GiniGainMap:
    """Exact impurity gains for every candidate split of a region."""

    region: Region
    parent_impurity: Fraction
    gains: dict  # (feature, cut) -> Fraction
    best: Optional[tuple[int, int]]  # argmax; ties to lowest feature then cut

    def best_gain(self) -> Fraction:
        return self.gains[self.best] if self.best is not None else Fraction(0)


def _gini(term_weights, total) -> Fraction:
    if total == 0:
        return Fraction(0)
    return 1 - Fraction(sum(w * w for w in term_weights), total * total)


def gini_gain_map(space: LatticeSpace, dist: LatticeDistribution, concept: Concept,
                  region: Optional[Region] = None, cap: int = PARTITION_CAP) -> GiniGainMap:
    """Gini gain of every (feature, integer cut) split under the conditional law.

    A cut with class weights L_c left and R_c right of totals L and R
    (T = L + R, T_c = L_c + R_c) has gain parent - (L/T) gini(left) -
    (R/T) gini(right), formed as the one rational
    (sum L_c^2 R T + sum R_c^2 L T - sum T_c^2 L R) / (L R T^2),
    and 0 when a side is empty.
    """
    if region is None:
        region = full_region(space)
    if space.size > cap:
        raise SpaceTooLarge(f"p^n = {space.size} exceeds cap {cap}")
    if region_size(region) == 0:
        raise EmptyRegion(f"region {region} holds no lattice point")
    labels, weights = _region_grid(space, concept, dist, region)
    class_totals = []
    # marginals[j][k][v - lo_j]: weight of the k-th class at value v of feature j+1
    marginals = [[] for _ in range(space.n)]
    for c in np.unique(labels):
        masked = np.where(labels == c, weights, 0)
        class_totals.append(int(masked.sum()))
        for j in range(space.n):
            marginals[j].append(masked.sum(axis=tuple(k for k in range(space.n) if k != j)).tolist())
    total = sum(class_totals)
    if total == 0:
        raise EmptyRegion(f"region {region} has zero probability mass")
    parent = _gini(class_totals, total)
    total_squares = sum(t * t for t in class_totals)
    gains: dict[tuple[int, int], Fraction] = {}
    best = None
    best_gain = None
    for feature in range(1, space.n + 1):
        lo, hi = region[feature - 1]
        left_by_class = [0] * len(class_totals)
        for cut in range(lo, hi):
            for k, class_marginal in enumerate(marginals[feature - 1]):
                left_by_class[k] += class_marginal[cut - lo]
            left = sum(left_by_class)
            right = total - left
            if left == 0 or right == 0:
                gain = Fraction(0)
            else:
                left_squares = sum(w * w for w in left_by_class)
                right_squares = sum((t - w) ** 2 for t, w in zip(class_totals, left_by_class))
                gain = Fraction(
                    (left_squares * right + right_squares * left) * total
                    - total_squares * left * right,
                    left * right * total * total,
                )
            gains[(feature, cut)] = gain
            if best_gain is None or gain > best_gain:
                best = (feature, cut)
                best_gain = gain
    return GiniGainMap(region=region, parent_impurity=parent, gains=gains, best=best)
