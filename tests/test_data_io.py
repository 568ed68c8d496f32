import hashlib

import numpy as np
import pytest

from deeptrees.data_io import (
    BUILTIN_MANIFESTS,
    DatasetManifest,
    LabeledDataset,
    SimulationSpec,
    SourceFile,
    fetch_dataset,
    generate_simulation,
    read_csv,
    write_csv,
)
from deeptrees.errors import (
    ChecksumMismatch,
    EmptyDataset,
    MalformedRow,
    UnreachableSource,
    UnwritableFile,
)
from deeptrees.rng import generator


def test_simulation_shapes_and_split():
    spec = SimulationSpec(n=3, sample_count=1000, seed=2)
    data = generate_simulation(spec)
    assert data.X.shape == (1000, 3)
    assert len(data.train_idx) == 700
    assert len(data.test_idx) == 300
    assert sorted(np.concatenate([data.train_idx, data.test_idx]).tolist()) == list(range(1000))
    assert set(np.unique(data.y)) <= {-1, 1}


def test_simulation_noise_window_and_labels():
    spec = SimulationSpec(n=2, sample_count=5000, seed=3)
    data = generate_simulation(spec)
    rounded = np.floor(data.X + 0.5).astype(np.int64)
    assert rounded.min() >= 1 and rounded.max() <= 4
    # rounding recovers the lattice sample, so labels equal rounded parity
    sums = rounded.sum(axis=1)
    assert np.array_equal(data.y, 1 - 2 * (sums & 1))
    offsets = data.X - rounded
    assert offsets.min() >= -0.5 and offsets.max() < 0.5


def test_simulation_deterministic():
    spec = SimulationSpec(n=2, sample_count=500, seed=9)
    a = generate_simulation(spec)
    b = generate_simulation(spec)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.train_idx, b.train_idx)


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = generator(1, "csv")
    X = rng.random((50, 3)) * 7 - 3
    y = rng.integers(0, 3, 50) * 2 - 1
    path = tmp_path / "data.csv"
    write_csv(X, y, path)
    X2, y2, names = read_csv(path)
    assert names == ["f1", "f2", "f3"]
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)
    # writing again is byte-identical
    first = path.read_bytes()
    write_csv(X2, y2, path)
    assert path.read_bytes() == first


def test_csv_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,f2,label\n1.0,2.0,1\n1.0,1\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        read_csv(path)
    assert err.value.line == 3
    path.write_text("f1,f2,label\n1.0,2.0,maybe\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        read_csv(path)
    path.write_text("f1,f2,notlabel\n1.0,2.0,1\n", encoding="utf-8")
    with pytest.raises(MalformedRow):
        read_csv(path)


def test_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        read_csv(path)
    path.write_text("f1,label\n", encoding="utf-8")
    with pytest.raises(EmptyDataset):
        read_csv(path)


def _local_manifest(tmp_path, *, sha=True, label_position="last", separator=",",
                    skip_lines=0, text=None):
    source_dir = tmp_path / "source"
    source_dir.mkdir(exist_ok=True)
    if text is None:
        text = "1.0,2.0,0\n3.0,4.0,1\n"
    train_file = source_dir / "toy.train"
    train_file.write_text(text, encoding="utf-8")
    digest = hashlib.sha256(train_file.read_bytes()).hexdigest() if sha else None
    return DatasetManifest(
        name="toy",
        files=(
            SourceFile(train_file.as_uri(), "toy.train", "train", sha256=digest),
        ),
        n_features=2,
        n_classes=2,
        label_position=label_position,
        separator=separator,
        skip_lines=skip_lines,
    )


def test_fetch_local_manifest(tmp_path):
    manifest = _local_manifest(tmp_path)
    data = fetch_dataset(manifest, cache_dir=tmp_path / "cache")
    assert data.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert data.y.tolist() == [0, 1]
    assert data.train_idx.tolist() == [0, 1]
    assert data.test_idx.tolist() == []


def test_fetch_uses_cache(tmp_path):
    manifest = _local_manifest(tmp_path)
    cache = tmp_path / "cache"
    fetch_dataset(manifest, cache_dir=cache)
    # remove the source; the cached copy must carry the second fetch
    (tmp_path / "source" / "toy.train").unlink()
    data = fetch_dataset(manifest, cache_dir=cache)
    assert len(data.y) == 2


def test_fetch_checksum_mismatch(tmp_path):
    manifest = _local_manifest(tmp_path)
    bad = DatasetManifest(
        name="toy",
        files=(SourceFile(manifest.files[0].url, "toy.train", "train", sha256="0" * 64),),
        n_features=2,
        n_classes=2,
    )
    with pytest.raises(ChecksumMismatch):
        fetch_dataset(bad, cache_dir=tmp_path / "cache2")


def test_fetch_records_digest_when_unpinned(tmp_path):
    manifest = _local_manifest(tmp_path, sha=False)
    cache = tmp_path / "cache"
    fetch_dataset(manifest, cache_dir=cache)
    record = cache / "toy" / "toy.train.sha256"
    assert record.exists()
    # tampering with the cached bytes now fails the recorded digest
    (cache / "toy" / "toy.train").write_text("9.0,9.0,1\n", encoding="utf-8")
    with pytest.raises(ChecksumMismatch):
        fetch_dataset(manifest, cache_dir=cache)


def test_fetch_offline_requires_cache(tmp_path):
    manifest = _local_manifest(tmp_path)
    with pytest.raises(UnreachableSource):
        fetch_dataset(manifest, cache_dir=tmp_path / "fresh", offline=True)
    cache = tmp_path / "warm"
    fetch_dataset(manifest, cache_dir=cache)
    data = fetch_dataset(manifest, cache_dir=cache, offline=True)
    assert len(data.y) == 2


def test_fetch_unreachable_url(tmp_path):
    manifest = DatasetManifest(
        name="gone",
        files=(SourceFile((tmp_path / "missing.file").as_uri(), "missing", "train"),),
        n_features=1,
        n_classes=2,
    )
    with pytest.raises(UnreachableSource):
        fetch_dataset(manifest, cache_dir=tmp_path / "cache")


def test_fetch_parses_whitespace_and_label_first(tmp_path):
    text = "header junk\nanother header\nCLASSA 1.0 2.0\nCLASSB 3.0 4.0\n"
    manifest = _local_manifest(
        tmp_path, label_position="first", separator=None, skip_lines=2, text=text
    )
    data = fetch_dataset(manifest, cache_dir=tmp_path / "cache")
    # string class names encode deterministically by sorted order
    assert data.y.tolist() == [0, 1]
    assert data.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_fetch_wrong_arity(tmp_path):
    manifest = _local_manifest(tmp_path, text="1.0,2.0,3.0,0\n")
    with pytest.raises(MalformedRow):
        fetch_dataset(manifest, cache_dir=tmp_path / "cache")


def test_fetch_skips_blank_lines_and_keeps_file_line_numbers(tmp_path):
    text = "junk\n\n1.0, 2.0, 0,\n\n   \n3.0,4.0,1\n\n"
    manifest = _local_manifest(tmp_path, skip_lines=1, text=text)
    data = fetch_dataset(manifest, cache_dir=tmp_path / "cache")
    assert data.X.tolist() == [[1.0, 2.0], [3.0, 4.0]] and data.y.tolist() == [0, 1]
    manifest = _local_manifest(tmp_path, skip_lines=1, text=text + "\n5.0,6.0,7.0,1\n")
    with pytest.raises(MalformedRow) as err:
        fetch_dataset(manifest, cache_dir=tmp_path / "cache2")
    assert err.value.line == 9
    assert str(err.value).endswith("toy.train: expected 3 fields, got 4")


def test_fetch_validates_expected_rows(tmp_path):
    base = _local_manifest(tmp_path)
    pinned = DatasetManifest(
        name="toy",
        files=(
            SourceFile(base.files[0].url, "toy.train", "train", expected_rows=3),
        ),
        n_features=2,
        n_classes=2,
    )
    with pytest.raises(MalformedRow):
        fetch_dataset(pinned, cache_dir=tmp_path / "cache")
    right = DatasetManifest(
        name="toy",
        files=(
            SourceFile(base.files[0].url, "toy.train", "train", expected_rows=2),
        ),
        n_features=2,
        n_classes=2,
    )
    assert len(fetch_dataset(right, cache_dir=tmp_path / "cache2").y) == 2


def test_builtin_manifests_shape():
    assert set(BUILTIN_MANIFESTS) == {"pendigits", "satimage", "segment"}
    for manifest in BUILTIN_MANIFESTS.values():
        assert {f.role for f in manifest.files} == {"train", "test"}
    assert BUILTIN_MANIFESTS["pendigits"].n_features == 16
    assert BUILTIN_MANIFESTS["pendigits"].n_classes == 10
    assert BUILTIN_MANIFESTS["segment"].label_position == "first"


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(n=2, sample_count=0)
    with pytest.raises(ValueError):
        SimulationSpec(n=2, split_fraction=1.0)
    with pytest.raises(ValueError):
        SimulationSpec(n=2, distribution="gauss")
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2), np.arange(2), np.arange(1))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_csv_rejects_non_finite_features(tmp_path, value):
    path = tmp_path / "bad.csv"
    path.write_text(f"f1,f2,label\n1.0,2.0,1\n\n3.0,{value},-1\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        read_csv(path)
    assert err.value.line == 4
    assert "feature 2" in str(err.value)


def test_csv_errors_carry_the_file_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,label\n\n1.0,1\n\n2.0,maybe\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        read_csv(path)
    assert err.value.line == 5
    path.write_text("\n\nf1,notlabel\n1.0,1\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        read_csv(path)
    assert err.value.line == 3
    path.write_text("\nf1,label\n\n\n1.0,1,2\n", encoding="utf-8")
    with pytest.raises(MalformedRow) as err:
        read_csv(path)
    assert err.value.line == 5


def test_fetch_rejects_non_finite_features(tmp_path):
    manifest = _local_manifest(tmp_path, text="1.0,2.0,0\n\ninf,4.0,1\n")
    with pytest.raises(MalformedRow) as err:
        fetch_dataset(manifest, cache_dir=tmp_path / "cache")
    assert err.value.line == 3
    assert "toy.train" in str(err.value) and "feature 1" in str(err.value)


def test_write_csv_to_unwritable_path_raises_unwritable_file(tmp_path):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):
        with pytest.raises(UnwritableFile) as caught:
            write_csv(np.array([[1.0]]), np.array([1]), path)
        assert caught.value.path == path
        assert str(caught.value).startswith(f"cannot write {path}: ")
