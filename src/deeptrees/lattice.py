"""Discrete input spaces, target concepts, and distributions over them.

Points of the space live on the integer lattice {1..p}^n and are handled
as int64 arrays. Enumeration order is fixed lexicographic (first
coordinate slowest) so every brute-force check in the package is
reproducible.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, OutOfBounds, SpaceTooLarge, UnsupportedCardinality
from .rng import generator

DEFAULT_ENUMERATION_CAP = 2**24


@dataclass(frozen=True)
class LatticeSpace:
    """The lattice {1..p}^n: n features, each taking values 1..p."""

    n: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ConfigError(f"lattice requires n >= 1 and p >= 1, got n={self.n}, p={self.p}")

    @property
    def size(self) -> int:
        return self.p**self.n

    def contains(self, x) -> bool:
        x = np.asarray(x)
        return x.shape == (self.n,) and bool(np.all((x >= 1) & (x <= self.p)))

    def check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.int64)
        if not self.contains(x):
            raise OutOfBounds(f"point {x.tolist()} outside [{self.p}]^{self.n}")
        return x

    def enumerate_points(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """All p^n points as an (p^n, n) array in lexicographic order."""
        if self.size > cap:
            raise SpaceTooLarge(f"p^n = {self.size} exceeds cap {cap}")
        idx = np.arange(self.size, dtype=np.int64)
        cols = []
        for j in range(self.n):
            stride = self.p ** (self.n - 1 - j)
            cols.append((idx // stride) % self.p + 1)
        return np.stack(cols, axis=1)

    def rank(self, x) -> int:
        """Lexicographic index of a point within enumerate_points."""
        x = self.check_point(x)
        r = 0
        for v in x:
            r = r * self.p + (int(v) - 1)
        return r


def parity_label(x) -> int:
    """(-1)**(coordinate sum); flips on every unit step along any axis."""
    return 1 - 2 * (int(np.sum(np.asarray(x, dtype=np.int64))) & 1)


class Concept:
    """Total labeling of a lattice space with integer class labels."""

    space: LatticeSpace

    def label(self, x) -> int:
        raise NotImplementedError

    def labels(self, points: np.ndarray) -> np.ndarray:
        """Vectorized labels for an (m, n) array of points."""
        return np.array([self.label(x) for x in points], dtype=np.int64)


@dataclass(frozen=True)
class ParityConcept(Concept):
    """The generalized parity target: +1 on even coordinate sums, -1 on odd."""

    space: LatticeSpace

    def label(self, x) -> int:
        self.space.check_point(x)
        return parity_label(x)

    def labels(self, points: np.ndarray) -> np.ndarray:
        sums = np.sum(np.asarray(points, dtype=np.int64), axis=1)
        return 1 - 2 * (sums & 1)


@dataclass(frozen=True)
class ConstantConcept(Concept):
    space: LatticeSpace
    value: int = 1

    def label(self, x) -> int:
        self.space.check_point(x)
        return self.value

    def labels(self, points: np.ndarray) -> np.ndarray:
        return np.full(len(points), self.value, dtype=np.int64)


class TabulatedConcept(Concept):
    """Explicit label table indexed in enumeration order."""

    def __init__(self, space: LatticeSpace, table):
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (space.size,):
            raise ValueError(f"table must have {space.size} entries, got {table.shape}")
        self.space = space
        self.table = table

    def label(self, x) -> int:
        return int(self.table[self.space.rank(x)])

    def labels(self, points: np.ndarray) -> np.ndarray:
        ranks = np.zeros(len(points), dtype=np.int64)
        for j in range(self.space.n):
            ranks = ranks * self.space.p + (np.asarray(points)[:, j] - 1)
        return self.table[ranks]

    def __eq__(self, other):
        return (
            isinstance(other, TabulatedConcept)
            and self.space == other.space
            and bool(np.array_equal(self.table, other.table))
        )


class LatticeDistribution:
    """Distribution over a lattice space with exact per-point masses."""

    space: LatticeSpace

    def mass_fraction(self, x) -> Fraction:
        raise NotImplementedError

    def dim_mass_fractions(self, i: int) -> tuple[Fraction, ...]:
        """Exact masses of values 1..p along 1-based dimension i."""
        raise NotImplementedError

    def dim_weight_ints(self, i: int) -> tuple[tuple[int, ...], int]:
        """Integer-scaled masses (weights, total) of dimension i.

        weights[k] / total == dim_mass_fractions(i)[k]; used by the exact
        impurity paths so per-point weights stay integers.
        """
        fracs = self.dim_mass_fractions(i)
        denom = 1
        for f in fracs:
            denom = denom * f.denominator // math.gcd(denom, f.denominator)
        weights = tuple(int(f * denom) for f in fracs)
        return weights, denom

    def dim_masses(self, i: int) -> np.ndarray:
        return np.array([float(f) for f in self.dim_mass_fractions(i)], dtype=np.float64)

    def total_weight_int(self) -> int:
        t = 1
        for i in range(1, self.space.n + 1):
            t *= self.dim_weight_ints(i)[1]
        return t

    def sample(self, count: int, seed: int) -> np.ndarray:
        """count i.i.d. points, deterministic per seed; shape (count, n)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        cols = []
        for i in range(1, self.space.n + 1):
            cdf = np.cumsum(self.dim_masses(i))
            cdf[-1] = 1.0
            u = generator(seed, "lattice.sample", i).random(count)
            cols.append(np.searchsorted(cdf, u, side="right").astype(np.int64) + 1)
        return np.stack(cols, axis=1) if cols else np.zeros((count, 0), np.int64)


@dataclass(frozen=True)
class UniformDistribution(LatticeDistribution):
    space: LatticeSpace

    def mass_fraction(self, x) -> Fraction:
        self.space.check_point(x)
        return Fraction(1, self.space.size)

    def dim_mass_fractions(self, i: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(1, self.space.p) for _ in range(self.space.p))

    def dim_weight_ints(self, i: int) -> tuple[tuple[int, ...], int]:
        return tuple(1 for _ in range(self.space.p)), self.space.p

    def sample(self, count: int, seed: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be >= 0")
        rng = generator(seed, "lattice.sample.uniform")
        return rng.integers(1, self.space.p + 1, size=(count, self.space.n), dtype=np.int64)


class ProductDistribution(LatticeDistribution):
    """The asymmetric product distribution used to learn parity greedily.

    Per-dimension masses over the four values are (1, a, a^i, 1) / b_i
    with b_i = 2 + a + a^i, so only the first dimension is mirror
    symmetric once a > 1. Defined for p = 4 only; the default a = 3 makes
    greedy impurity splitting pick feature midpoints, while a = 2 breaks
    that pattern.
    """

    def __init__(self, space: LatticeSpace, a=3):
        if space.p != 4:
            raise UnsupportedCardinality(f"product distribution requires p = 4, got p = {space.p}")
        self.space = space
        self.a = Fraction(a)
        if self.a <= 0:
            raise ConfigError(f"a must be positive, got {a}")

    def __eq__(self, other):
        return (
            isinstance(other, ProductDistribution)
            and self.space == other.space
            and self.a == other.a
        )

    def dim_mass_fractions(self, i: int) -> tuple[Fraction, ...]:
        if not 1 <= i <= self.space.n:
            raise OutOfBounds(f"dimension {i} outside 1..{self.space.n}")
        b = 2 + self.a + self.a**i
        return (Fraction(1) / b, self.a / b, self.a**i / b, Fraction(1) / b)

    def mass_fraction(self, x) -> Fraction:
        x = self.space.check_point(x)
        m = Fraction(1)
        for i, v in enumerate(x, start=1):
            m *= self.dim_mass_fractions(i)[int(v) - 1]
        return m
