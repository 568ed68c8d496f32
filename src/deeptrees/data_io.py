"""Synthetic dataset generation, CSV round-trips, and benchmark fetching.

Synthetic rows are noisy lattice samples: a point drawn from the lattice
distribution plus uniform noise in [-0.5, 0.5)^n, labeled by the parity
of the underlying lattice point (equivalently, of the nearest lattice
point, since the noise never reaches magnitude 0.5). CSV files are
written with 17 significant digits so round-trips are bit-exact.
"""

import hashlib
import os
import shutil
import tempfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    ChecksumMismatch,
    ConfigError,
    EmptyDataset,
    MalformedRow,
    UnreachableSource,
    UnreadableFile,
    UnwritableFile,
)
from .lattice import LatticeSpace, ParityConcept, ProductDistribution, UniformDistribution
from .rng import generator

DEFAULT_CACHE_ENV = "DEEPTREES_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(DEFAULT_CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "deeptrees"


@dataclass
class LabeledDataset:
    """Feature rows with integer labels and a train/test split."""

    X: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")

    @property
    def train_X(self) -> np.ndarray:
        return self.X[self.train_idx]

    @property
    def train_y(self) -> np.ndarray:
        return self.y[self.train_idx]

    @property
    def test_X(self) -> np.ndarray:
        return self.X[self.test_idx]

    @property
    def test_y(self) -> np.ndarray:
        return self.y[self.test_idx]


@dataclass(frozen=True)
class SimulationSpec:
    n: int
    p: int = 4
    a: int = 3
    sample_count: int = 100_000
    split_fraction: float = 0.7
    seed: int = 0
    distribution: str = "product"  # "product" | "uniform"

    def __post_init__(self):
        if self.sample_count < 1:
            raise ConfigError(f"sample_count must be >= 1, got {self.sample_count}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ConfigError("split_fraction must lie in (0, 1)")
        if self.distribution not in ("product", "uniform"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")


def simulation_distribution(spec: SimulationSpec):
    space = LatticeSpace(spec.n, spec.p)
    if spec.distribution == "product":
        return ProductDistribution(space, spec.a)
    return UniformDistribution(space)


def split_sizes(sample_count: int, split_fraction: float = 0.7) -> tuple[int, int]:
    """(train, test) row counts of generate_simulation's shuffled split."""
    n_train = int(round(split_fraction * sample_count))
    return n_train, sample_count - n_train


def generate_simulation(spec: SimulationSpec) -> LabeledDataset:
    """Noisy parity dataset with a seeded 70/30-style shuffle split."""
    dist = simulation_distribution(spec)
    points = dist.sample(spec.sample_count, spec.seed)
    noise = generator(spec.seed, "simulation.noise").random((spec.sample_count, spec.n)) - 0.5
    X = points.astype(np.float64) + noise
    y = ParityConcept(dist.space).labels(points)
    perm = generator(spec.seed, "simulation.split").permutation(spec.sample_count)
    n_train, _ = split_sizes(spec.sample_count, spec.split_fraction)
    return LabeledDataset(
        X=X,
        y=y,
        train_idx=perm[:n_train],
        test_idx=perm[n_train:],
        name=f"sim-n{spec.n}",
    )


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def read_text(path) -> str:
    """A UTF-8 text file's contents; UnreadableFile names the path when it
    is missing, is a directory or cannot be read or decoded."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UnreadableFile(f"cannot read {path}: {exc.strerror or exc}", path) from None
    except UnicodeDecodeError:
        raise UnreadableFile(f"cannot read {path}: not UTF-8 text", path) from None


def write_text(path, text: str):
    """Write text to a file as UTF-8; UnwritableFile names the path when it
    cannot be written."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UnwritableFile(f"cannot write {path}: {exc.strerror or exc}", path) from None


def make_dir(path) -> Path:
    """Create a directory and its missing parents; UnwritableFile names the
    path when it cannot be made (a file in its place or on its way)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UnwritableFile(f"cannot make directory {path}: {exc.strerror or exc}", path) from None
    return Path(path)


def write_csv(X, y, path, feature_names=None):
    """Header row of feature names plus "label"; floats at 17 significant digits."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if feature_names is None:
        feature_names = [f"f{j + 1}" for j in range(X.shape[1])]
    lines = [",".join(list(feature_names) + ["label"])]
    for row, label in zip(X, y):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{int(label)}")
    write_text(path, "\n".join(lines) + "\n")


def _require_finite(X: np.ndarray, line_nos: list, where: str = ""):
    """MalformedRow at the file line of the first NaN or infinite feature."""
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        row, j = bad[0]
        raise MalformedRow(
            f"{where}feature {j + 1} is {float(X[row, j])!r}; features must be finite",
            line_nos[row],
        )


def read_csv(path):
    """(X, y, feature_names) from a file written by write_csv.

    Errors carry the file's own line number; blank lines are skipped.
    """
    text = read_text(path)
    lines = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise EmptyDataset(f"{path} holds no rows")
    header_no, header_line = lines[0]
    header = header_line.split(",")
    if header[-1] != "label":
        raise MalformedRow("header must end with 'label'", header_no)
    width = len(header) - 1
    rows = []
    labels = []
    for line_no, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != width + 1:
            raise MalformedRow(f"expected {width + 1} fields, got {len(parts)}", line_no)
        try:
            rows.append([float(v) for v in parts[:-1]])
            labels.append(int(parts[-1]))
        except ValueError as exc:
            raise MalformedRow(str(exc), line_no) from None
    if not rows:
        raise EmptyDataset(f"{path} holds no data rows")
    X = np.array(rows, dtype=np.float64)
    _require_finite(X, [line_no for line_no, _ in lines[1:]])
    return X, np.array(labels, dtype=np.int64), header[:-1]


# ---------------------------------------------------------------------------
# benchmark datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceFile:
    url: str
    filename: str
    role: str  # "train" | "test"
    sha256: Optional[str] = None
    expected_rows: Optional[int] = None


@dataclass(frozen=True)
class DatasetManifest:
    """Where a benchmark dataset lives and how to parse it."""

    name: str
    files: tuple
    n_features: int
    n_classes: int
    label_position: str = "last"  # "first" | "last"
    separator: Optional[str] = ","  # None splits on any whitespace
    skip_lines: int = 0


_UCI = "https://archive.ics.uci.edu/ml/machine-learning-databases"

BUILTIN_MANIFESTS = {
    "pendigits": DatasetManifest(
        name="pendigits",
        files=(
            SourceFile(f"{_UCI}/pendigits/pendigits.tra", "pendigits.tra", "train", expected_rows=7494),
            SourceFile(f"{_UCI}/pendigits/pendigits.tes", "pendigits.tes", "test", expected_rows=3498),
        ),
        n_features=16,
        n_classes=10,
    ),
    "satimage": DatasetManifest(
        name="satimage",
        files=(
            SourceFile(f"{_UCI}/statlog/satimage/sat.trn", "sat.trn", "train", expected_rows=4435),
            SourceFile(f"{_UCI}/statlog/satimage/sat.tst", "sat.tst", "test", expected_rows=2000),
        ),
        n_features=36,
        n_classes=6,
        separator=None,
    ),
    "segment": DatasetManifest(
        name="segment",
        files=(
            SourceFile(f"{_UCI}/image/segmentation.data", "segmentation.data", "train", expected_rows=210),
            SourceFile(f"{_UCI}/image/segmentation.test", "segmentation.test", "test", expected_rows=2100),
        ),
        n_features=19,
        n_classes=7,
        label_position="first",
        skip_lines=5,
    ),
}


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _ensure_file(source: SourceFile, dataset_dir: Path, offline: bool) -> Path:
    make_dir(dataset_dir)
    path = dataset_dir / source.filename
    if not path.exists():
        if offline:
            raise UnreachableSource(f"{path} is not cached and offline mode is on")
        try:
            with urllib.request.urlopen(source.url) as response:
                with tempfile.NamedTemporaryFile(dir=dataset_dir, delete=False) as tmp:
                    shutil.copyfileobj(response, tmp)
                    tmp_path = Path(tmp.name)
            tmp_path.replace(path)
        except (OSError, ValueError) as exc:
            raise UnreachableSource(f"could not fetch {source.url}: {exc}") from exc
    digest = _sha256_file(path)
    if source.sha256 is not None:
        if digest != source.sha256:
            raise ChecksumMismatch(
                f"{path}: digest {digest} does not match manifest {source.sha256}"
            )
    else:
        # unpinned manifest: record the first digest and hold future fetches to it
        record = path.with_name(path.name + ".sha256")
        if record.exists():
            recorded = record.read_text(encoding="utf-8").strip()
            if digest != recorded:
                raise ChecksumMismatch(f"{path}: digest {digest} changed from recorded {recorded}")
        else:
            record.write_text(digest + "\n", encoding="utf-8")
    return path


def _parse_rows(path: Path, manifest: DatasetManifest):
    rows = []
    raw_labels = []
    line_nos = []
    lines = read_text(path).splitlines()
    for line_no, line in enumerate(lines, start=1):
        if line_no <= manifest.skip_lines or not line.strip():
            continue
        parts = line.split(manifest.separator)
        parts = [p.strip() for p in parts if p.strip() != ""]
        if len(parts) != manifest.n_features + 1:
            raise MalformedRow(
                f"{path.name}: expected {manifest.n_features + 1} fields, got {len(parts)}",
                line_no,
            )
        if manifest.label_position == "first":
            label, values = parts[0], parts[1:]
        else:
            label, values = parts[-1], parts[:-1]
        try:
            rows.append([float(v) for v in values])
        except ValueError as exc:
            raise MalformedRow(f"{path.name}: {exc}", line_no) from None
        raw_labels.append(label)
        line_nos.append(line_no)
    _require_finite(np.array(rows, dtype=np.float64), line_nos, f"{path.name}: ")
    return rows, raw_labels


def fetch_dataset(manifest: DatasetManifest, cache_dir=None, offline: bool = False) -> LabeledDataset:
    """Cached, checksum-verified fetch parsed into the predefined split."""
    cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    dataset_dir = cache_dir / manifest.name
    rows = []
    raw_labels = []
    role_slices = {}
    for source in manifest.files:
        path = _ensure_file(source, dataset_dir, offline)
        file_rows, file_labels = _parse_rows(path, manifest)
        if source.expected_rows is not None and len(file_rows) != source.expected_rows:
            raise MalformedRow(
                f"{source.filename}: expected {source.expected_rows} rows, parsed {len(file_rows)}",
                len(file_rows),
            )
        start = len(rows)
        rows.extend(file_rows)
        raw_labels.extend(file_labels)
        role_slices.setdefault(source.role, []).extend(range(start, len(rows)))
    if not rows:
        raise EmptyDataset(f"{manifest.name}: no rows parsed")
    try:
        labels = np.array([int(v) for v in raw_labels], dtype=np.int64)
    except ValueError:
        # non-numeric class names: deterministic encoding by sorted name
        names = sorted(set(raw_labels))
        mapping = {name: code for code, name in enumerate(names)}
        labels = np.array([mapping[v] for v in raw_labels], dtype=np.int64)
    return LabeledDataset(
        X=np.array(rows, dtype=np.float64),
        y=labels,
        train_idx=np.array(role_slices.get("train", []), dtype=np.int64),
        test_idx=np.array(role_slices.get("test", []), dtype=np.int64),
        name=manifest.name,
    )
