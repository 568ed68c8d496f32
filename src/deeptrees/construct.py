"""Executable constructions: the parity cascade and the tree-to-cascade compiler.

Both constructions emit integer thresholds so the printed model text can
be checked by eye, and both keep every layer inside the restricted-size
budget of its own ambient space.
"""

import math
from dataclasses import dataclass

from .ensemble import DeepTree, model_dim
from .errors import NonLatticeThreshold, PreconditionViolated
from .lattice import LatticeSpace
from .tree import Leaf, Node, Region, Tree, dim_of, leaf_regions


def _passthrough(aug: int) -> Node:
    # y <= 0 keeps -1, y > 0 keeps +1
    return Node(aug, 0.0, Leaf(-1), Leaf(+1))


def _negate(aug: int) -> Node:
    return Node(aug, 0.0, Leaf(+1), Leaf(-1))


def build_parity_deeptree(p: int, n: int) -> DeepTree:
    """Cascade computing (-1)**(x1 + ... + xn) on the whole lattice.

    Stage d sweeps feature d with one layer per feature value: the stage
    opener handles value 1 and each later layer extends the handled range
    by one value, reading the running label through feature n+1. Total
    size stays under 10*p*n.
    """
    if p < 1 or n < 1:
        raise ValueError(f"requires p >= 1 and n >= 1, got p={p}, n={n}")
    aug = n + 1
    layers: list[Tree] = [Leaf(-1)]
    for q in range(2, p + 1):
        edge = Leaf(+1 if q % 2 == 0 else -1)
        layers.append(Node(1, float(q - 1), _passthrough(aug), edge))
    for d in range(2, n + 1):
        layers.append(_negate(aug))
        for q in range(2, p + 1):
            layers.append(Node(d, float(q - 1), _passthrough(aug), _negate(aug)))
    return DeepTree(tuple(layers))


def snap_threshold(threshold: float, p: int) -> int:
    """Integer cut q with x <= threshold iff x <= q on lattice values.

    Only cuts that separate two lattice values are meaningful; anything
    outside [1, p-1] is rejected.
    """
    cut = math.floor(threshold)
    if not 1 <= cut <= p - 1:
        raise NonLatticeThreshold(
            f"threshold {threshold} does not cut between lattice values 1..{p}"
        )
    return cut


@dataclass(frozen=True)
class LeafList:
    """Leaf hyperrectangles of a source tree, split by label sign."""

    positive: tuple
    negative: tuple

    @property
    def d_plus(self) -> int:
        return len(self.positive)

    @property
    def d_minus(self) -> int:
        return len(self.negative)


def extract_leaf_lists(source: Tree, space: LatticeSpace) -> LeafList:
    """Positive and negative leaf regions with snapped integer bounds.

    Keeps every leaf (even ones whose region holds no lattice point) so
    the counts match the source's leaf count exactly. Raises
    FeatureOutOfRange or NonLatticeThreshold at the first offending node
    in pre-order, then PreconditionViolated for a label outside {-1, +1}.
    """
    regions = leaf_regions(source, space, cut=lambda threshold: snap_threshold(threshold, space.p))
    for _, label in regions:
        if label not in (-1, 1):
            raise PreconditionViolated(f"compiler expects labels in {{-1, +1}}, got {label}")
    return LeafList(
        tuple(region for region, label in regions if label == 1),
        tuple(region for region, label in regions if label == -1),
    )


def _box_chain(region: Region, n: int, inside: int) -> Tree:
    """Chain testing membership in the box; labels `inside` there, -inside off.

    Two nodes per dimension, emitted even for vacuous bounds so the
    compiled size is exactly 6n+1.
    """
    outside = -inside
    chain: Tree = Leaf(inside)
    for q in range(n, 0, -1):
        lo, hi = region[q - 1]
        chain = Node(q, float(lo - 1), Leaf(outside), Node(q, float(hi), chain, Leaf(outside)))
    return chain


def compile_to_deeptree(source: Tree, space: LatticeSpace) -> DeepTree:
    """Cascade agreeing with the source tree on every lattice point.

    One layer per leaf of the smaller label class; a constant source
    collapses to a single leaf layer. For a non-constant source the total
    size is exactly (6n+4)*min(D+, D-) - 3.
    """
    leaves = extract_leaf_lists(source, space)
    if leaves.d_plus == 0:
        return DeepTree((Leaf(-1),))
    if leaves.d_minus == 0:
        return DeepTree((Leaf(+1),))
    # ties go to the positive class
    if leaves.d_plus <= leaves.d_minus:
        marked, mark = leaves.positive, +1
    else:
        marked, mark = leaves.negative, -1
    n = space.n
    aug = n + 1
    layers: list[Tree] = [_box_chain(marked[0], n, mark)]
    for region in marked[1:]:
        chain = _box_chain(region, n, mark)
        if mark == 1:
            # already-marked points stay +1, the rest take this box's verdict
            layers.append(Node(aug, 0.0, chain, Leaf(+1)))
        else:
            layers.append(Node(aug, 0.0, Leaf(-1), chain))
    return DeepTree(tuple(layers))


def compile_report(source: Tree, space: LatticeSpace) -> dict:
    """Numbers a reviewer wants next to a compiled model."""
    leaves = extract_leaf_lists(source, space)
    compiled = compile_to_deeptree(source, space)
    source_dim = dim_of(source)
    compiled_dim = model_dim(compiled)
    minority = min(leaves.d_plus, leaves.d_minus)
    return {
        "d_plus": leaves.d_plus,
        "d_minus": leaves.d_minus,
        "source_dim": source_dim,
        "compiled_dim": compiled_dim,
        "exact_formula_dim": (6 * space.n + 4) * minority - 3 if minority > 0 else 1,
        "worst_case_bound": (4 * space.n + 1) * source_dim,
        "layers": compiled.depth,
    }
