import gzip
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from oracles import load_dataset_csv_oracle, save_dataset_csv_oracle
from rholoss import data


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2, image_count=None, label_count=None, gz=False):
    n = len(labels) if image_count is None else image_count
    nl = len(labels) if label_count is None else label_count
    img = struct.pack(">IIII", 0x00000803, n, rows, cols) + bytes(pixels)
    lab = struct.pack(">II", 0x00000801, nl) + bytes(labels)
    suffix = ".gz" if gz else ""
    ip, lp = tmp_path / f"img{suffix}", tmp_path / f"lab{suffix}"
    opener = gzip.open if gz else open
    with opener(ip, "wb") as f:
        f.write(img)
    with opener(lp, "wb") as f:
        f.write(lab)
    return ip, lp


def test_load_idx_crafted_pair(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [0, 255, 0, 255], [7])
    ds = data.load_idx(ip, lp)
    assert ds.n == 1 and ds.dim == 4
    assert np.array_equal(ds.features[0], [0.0, 1.0, 0.0, 1.0])
    assert ds.labels[0] == 7


def test_load_idx_gzip_sniffing(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [128, 0, 255, 64], [3], gz=True)
    ds = data.load_idx(ip, lp)
    assert ds.features[0][0] == pytest.approx(128 / 255)


def test_load_idx_count_mismatch(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [0] * 8, [1, 2], image_count=2, label_count=2)
    ds = data.load_idx(ip, lp)
    assert ds.n == 2
    ip, lp = write_idx_pair(tmp_path, [0] * 8, [1, 2, 3], image_count=2, label_count=3)
    with pytest.raises(data.IdxFormatError):
        data.load_idx(ip, lp)


def test_load_idx_bad_magic(tmp_path):
    _, lp = write_idx_pair(tmp_path, [0] * 4, [1])
    bad = tmp_path / "bad_img"
    bad.write_bytes(struct.pack(">IIII", 0x00000777, 1, 2, 2) + bytes(4))
    with pytest.raises(data.IdxFormatError):
        data.load_idx(bad, lp)


def test_load_idx_truncated(tmp_path):
    ip = tmp_path / "img"
    ip.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(3))
    _, lp = write_idx_pair(tmp_path, [0] * 4, [1, 2], image_count=2, label_count=2)
    with pytest.raises(data.IdxFormatError):
        data.load_idx(ip, lp)


MNIST_DIR = os.environ.get("RHOLOSS_MNIST_DIR")


@pytest.mark.skipif(
    not MNIST_DIR or not os.path.exists(os.path.join(MNIST_DIR or "", "t10k-images-idx3-ubyte")),
    reason="set RHOLOSS_MNIST_DIR to a directory with the standard test files",
)
def test_load_idx_real_mnist_test_file():
    ds = data.load_idx(
        os.path.join(MNIST_DIR, "t10k-images-idx3-ubyte"),
        os.path.join(MNIST_DIR, "t10k-labels-idx1-ubyte"),
    )
    assert ds.n == 10000 and ds.dim == 784


def test_synthetic_near_zero_spread_is_separable():
    ds = data.gen_synthetic(classes=4, per_class=20, dim=6, spread=1e-9, seed=0, radius=2.0)
    # nearest-centroid rule on the class means
    means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(4)])
    pred = np.argmin(((ds.features[:, None, :] - means[None]) ** 2).sum(-1), axis=1)
    assert np.array_equal(pred, ds.labels)


def test_synthetic_deterministic_under_seed():
    a = data.gen_synthetic(3, 5, 4, 0.5, seed=42)
    b = data.gen_synthetic(3, 5, 4, 0.5, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_rejects_bad_args():
    with pytest.raises(ValueError):
        data.gen_synthetic(1, 5, 4, 0.5)
    with pytest.raises(ValueError):
        data.gen_synthetic(3, 0, 4, 0.5)
    with pytest.raises(ValueError):
        data.gen_synthetic(3, 5, 4, 0.0)


def test_synthetic_two_class_1d_matches_gaussian_overlap():
    # With means at +/- r and spread sigma, the ideal rule classifies by sign
    # and its accuracy is Phi(r / sigma). Find a seed where the two 1-D means
    # land on opposite signs, then check the empirical rate.
    r, sigma = 1.0, 1.2
    for seed in range(20):
        ds = data.gen_synthetic(2, 30_000, 1, sigma, seed=seed, radius=r)
        m0 = ds.features[ds.labels == 0].mean()
        m1 = ds.features[ds.labels == 1].mean()
        if m0 * m1 < 0:
            break
    else:
        pytest.fail("no seed produced opposite-sign means")
    pred = (np.sign(ds.features[:, 0]) == np.sign(m1)).astype(int)
    acc = (pred == ds.labels).mean()
    expected = norm.cdf(r / sigma)
    # 3 sigma of the binomial sampling error
    tol = 3 * np.sqrt(expected * (1 - expected) / ds.n)
    assert abs(acc - expected) < tol


def test_split_half_and_half():
    ds = data.gen_synthetic(2, 5, 3, 1.0, seed=0)
    train, hold = data.split(ds, data.SplitSpec(0.5, seed=1))
    assert train.n == 5 and hold.n == 5


def test_split_partition_property():
    ds = data.gen_synthetic(3, 7, 3, 1.0, seed=0)
    train, hold = data.split(ds, data.SplitSpec(0.3, seed=2))
    assert set(train.ids) | set(hold.ids) == set(ds.ids)
    assert not set(train.ids) & set(hold.ids)


def test_split_reproducible():
    ds = data.gen_synthetic(3, 7, 3, 1.0, seed=0)
    a = data.split(ds, data.SplitSpec(0.3, seed=2))
    b = data.split(ds, data.SplitSpec(0.3, seed=2))
    assert np.array_equal(a[0].ids, b[0].ids)
    assert np.array_equal(a[1].ids, b[1].ids)


def test_split_two_halves_sizes():
    ds = data.gen_synthetic(2, 11, 3, 1.0, seed=0)  # n = 22
    a, b = data.split(ds, data.SplitSpec(seed=3, mode="two-halves"))
    assert abs(a.n - b.n) <= 1 and a.n + b.n == 22
    ds = data.take(ds, np.arange(21))
    a, b = data.split(ds, data.SplitSpec(seed=3, mode="two-halves"))
    assert abs(a.n - b.n) <= 1 and a.n + b.n == 21


def test_uniform_noise_p_zero_noop():
    ds = data.gen_synthetic(4, 10, 3, 1.0, seed=0)
    out = data.inject_uniform_noise(ds, 0.0, seed=1)
    assert np.array_equal(out.labels, ds.labels)
    assert not out.corrupted.any()


def test_uniform_noise_p_one_flips_everything():
    ds = data.gen_synthetic(4, 25, 3, 1.0, seed=0)
    out = data.inject_uniform_noise(ds, 1.0, seed=1)
    assert np.all(out.labels != out.original_labels)
    assert out.corrupted.all()


def test_uniform_noise_rate_within_binomial_bound():
    ds = data.gen_synthetic(10, 1000, 2, 1.0, seed=0)  # n = 10000
    out = data.inject_uniform_noise(ds, 0.1, seed=7)
    count = int(out.corrupted.sum())
    sigma = np.sqrt(10_000 * 0.1 * 0.9)
    assert abs(count - 1000) < 3 * sigma


def test_uniform_noise_flips_are_uniform_over_other_labels():
    ds = data.gen_synthetic(4, 5000, 2, 1.0, seed=0)
    out = data.inject_uniform_noise(ds, 1.0, seed=3)
    for c in range(4):
        flipped = out.labels[out.original_labels == c]
        counts = np.bincount(flipped, minlength=4)
        assert counts[c] == 0
        assert counts[counts > 0].min() > 0.25 * counts.max()


def test_structured_noise_diagonal_confusion_rejected():
    ds = data.gen_synthetic(3, 10, 2, 1.0, seed=0)
    confusion = np.diag([10, 10, 10])
    with pytest.raises(ValueError):
        data.inject_structured_noise(ds, confusion, pairs=1, flip_prob=0.5)


def test_structured_noise_dominant_pair_selected_first():
    confusion = np.array([[50, 1, 0], [0, 50, 2], [9, 0, 50]])
    # hand ordering of off-diagonal counts: (2,0)=9 > (1,2)=2 > (0,1)=1
    assert data.most_confused_pairs(confusion, 3) == [(2, 0), (1, 2), (0, 1)]


def test_structured_noise_flip_prob_zero_noop():
    ds = data.gen_synthetic(3, 10, 2, 1.0, seed=0)
    confusion = np.array([[5, 3, 0], [0, 5, 1], [0, 0, 5]])
    out = data.inject_structured_noise(ds, confusion, pairs=1, flip_prob=0.0)
    assert np.array_equal(out.labels, ds.labels)


def test_structured_noise_flips_only_source_class():
    ds = data.gen_synthetic(3, 2000, 2, 1.0, seed=0)
    confusion = np.array([[5, 9, 0], [0, 5, 0], [0, 0, 5]])  # dominant pair 0 -> 1
    out = data.inject_structured_noise(ds, confusion, pairs=1, flip_prob=0.5, seed=4)
    changed = out.labels != out.original_labels
    assert set(out.original_labels[changed]) == {0}
    assert set(out.labels[changed]) == {1}
    rate = changed[ds.labels == 0].mean()
    assert abs(rate - 0.5) < 3 * np.sqrt(0.25 / 2000)


def test_relevance_skew_keep_all_only_sets_flags():
    ds = data.gen_synthetic(10, 20, 3, 1.0, seed=0)
    out = data.make_relevance_skew(ds, high_frac=0.2, keep_frac=1.0, seed=1)
    assert out.n == ds.n
    assert out.low_relevance.sum() == 8 * 20  # everything outside the 2 high classes


def test_relevance_skew_mass_concentration():
    # 100 balanced classes, keep 20 whole and 6% of the rest: the high classes
    # should end up holding about 80% of the remaining data.
    ds = data.gen_synthetic(100, 50, 2, 1.0, seed=0)
    out = data.make_relevance_skew(ds, high_frac=0.2, keep_frac=0.06, seed=2)
    high_mass = 1.0 - out.low_relevance.mean()
    assert high_mass == pytest.approx(20 * 50 / (20 * 50 + 80 * 3), abs=1e-12)
    assert 0.78 < high_mass < 0.82


def test_relevance_skew_per_class_counts():
    ds = data.gen_synthetic(10, 50, 2, 1.0, seed=0)
    out = data.make_relevance_skew(ds, high_frac=0.2, keep_frac=0.06, seed=3)
    low_classes = set(out.labels[out.low_relevance])
    for c in low_classes:
        assert (out.labels == c).sum() == round(0.06 * 50)


def test_relevance_skew_empty_class_rejected():
    ds = data.gen_synthetic(10, 5, 2, 1.0, seed=0)
    with pytest.raises(ValueError):
        data.make_relevance_skew(ds, high_frac=0.2, keep_frac=0.01, seed=0)


def test_duplicate_factor_one_noop():
    ds = data.gen_synthetic(3, 10, 2, 1.0, seed=0)
    out = data.duplicate(ds, 1)
    assert out.n == ds.n
    assert np.array_equal(out.ids, ds.ids)
    assert np.all(out.duplicate_of == -1)


def test_duplicate_counts_and_indegree():
    ds = data.gen_synthetic(4, 25, 2, 1.0, seed=0)  # n = 100
    out = data.duplicate(ds, 5)
    assert out.n == 500
    dupes = out.duplicate_of >= 0
    assert dupes.sum() == 400
    originals, counts = np.unique(out.duplicate_of[dupes], return_counts=True)
    assert set(originals) == set(ds.ids)
    assert np.all(counts == 4)
    assert np.unique(out.ids).size == 500


def test_duplicate_preserves_flags():
    ds = data.gen_synthetic(3, 20, 2, 1.0, seed=0)
    noisy = data.inject_uniform_noise(ds, 0.3, seed=1)
    out = data.duplicate(noisy, 3)
    assert out.corrupted.mean() == pytest.approx(noisy.corrupted.mean())
    for dup_id, orig_id in zip(out.ids[out.duplicate_of >= 0], out.duplicate_of[out.duplicate_of >= 0]):
        i = np.flatnonzero(out.ids == dup_id)[0]
        j = np.flatnonzero(out.ids == orig_id)[0]
        assert out.labels[i] == out.labels[j]


def test_corrupted_flag_invariant_enforced():
    ds = data.gen_synthetic(3, 5, 2, 1.0, seed=0)
    bad_labels = ds.labels.copy()
    bad_labels[0] = (bad_labels[0] + 1) % 3
    with pytest.raises(ValueError):
        data.LabeledDataset(
            features=ds.features,
            labels=bad_labels,
            num_classes=3,
            ids=ds.ids,
            original_labels=ds.original_labels,
            corrupted=np.zeros(ds.n, dtype=bool),
            low_relevance=ds.low_relevance,
            duplicate_of=ds.duplicate_of,
        )


def test_dataset_csv_roundtrip(tmp_path):
    ds = data.gen_synthetic(4, 15, 5, 0.8, seed=9)
    ds = data.inject_uniform_noise(ds, 0.2, seed=1)
    ds = data.duplicate(ds, 2)
    path = tmp_path / "cache.csv"
    data.save_dataset_csv(ds, path)
    back = data.load_dataset_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.ids, ds.ids)
    assert np.array_equal(back.corrupted, ds.corrupted)
    assert np.array_equal(back.duplicate_of, ds.duplicate_of)
    assert data.dataset_hash(back) == data.dataset_hash(ds)


@pytest.mark.parametrize("edit", ["drop", "extra"])
def test_dataset_csv_row_of_wrong_width_names_the_path(tmp_path, edit):
    ds = data.gen_synthetic(3, 4, 2, 1.0, seed=2)
    path = tmp_path / "cache.csv"
    data.save_dataset_csv(ds, path)
    lines = path.read_text().splitlines(keepends=True)
    last = lines[-1].rstrip("\r\n")
    lines[-1] = (last.rsplit(",", 1)[0] if edit == "drop" else last + ",0.5") + "\r\n"
    path.write_text("".join(lines), newline="")
    with pytest.raises(ValueError, match=r"cache\.csv.*columns"):
        data.load_dataset_csv(path)


# Values whose repr or parse is easy to get wrong: signed zeros, subnormals,
# the largest finite doubles, integral floats, and both repr notations' edges.
_AWKWARD_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 2.2250738585072014e-308, 1.7976931348623157e308,
                   -1.79e308, 3.0, -7.0, 1e16, 1e-5, 1e-4, 1e22, 0.1]


@st.composite
def _datasets(draw):
    n, d, classes = draw(st.integers(0, 8)), draw(st.integers(0, 4)), draw(st.integers(1, 4))
    label = st.integers(0, classes - 1)
    labels = np.array(draw(st.lists(label, min_size=n, max_size=n)), dtype=np.int64)
    original = np.array(draw(st.lists(label, min_size=n, max_size=n)), dtype=np.int64)
    big = st.integers(-(2**62), 2**62)
    feature = st.one_of(st.sampled_from(_AWKWARD_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    return data.LabeledDataset(
        features=np.array(draw(st.lists(feature, min_size=n * d, max_size=n * d)), dtype=np.float64).reshape(n, d),
        labels=labels,
        num_classes=classes,
        ids=np.array(draw(st.lists(big, min_size=n, max_size=n, unique=True)), dtype=np.int64),
        original_labels=original,
        corrupted=labels != original,
        low_relevance=np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        duplicate_of=np.array(draw(st.lists(big, min_size=n, max_size=n)), dtype=np.int64),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ds=_datasets())
def test_dataset_cache_matches_the_csv_module_oracle(tmp_path_factory, ds):
    folder = tmp_path_factory.mktemp("cache")
    path, oracle_path = folder / "cache.csv", folder / "oracle.csv"
    data.save_dataset_csv(ds, path, config_hash="0123abcd", seed=7)
    save_dataset_csv_oracle(ds, oracle_path, config_hash="0123abcd", seed=7)
    assert path.read_bytes() == oracle_path.read_bytes()
    back, oracle = data.load_dataset_csv(path), load_dataset_csv_oracle(path)
    assert back.num_classes == oracle.num_classes
    for name in data._PER_EXAMPLE:
        got, want = getattr(back, name), getattr(oracle, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
    assert data.dataset_hash(back) == data.dataset_hash(oracle) == data.dataset_hash(ds)


def _edit_cache(path, edit):
    """Apply edit to the cache's lines (header, column row, then data rows,
    each with its line ending) and write them back."""
    lines = path.read_bytes().decode().splitlines(keepends=True)
    path.write_bytes("".join(edit(lines)).encode())


def _set_first_id(value):
    return lambda lines: [*lines[:2], value + lines[2][lines[2].index(","):], *lines[3:]]


@pytest.mark.parametrize(
    "edit, reason",
    [
        pytest.param(_set_first_id("3.0"), "could not convert string '3.0' to int64", id="id-3.0"),
        pytest.param(_set_first_id("x"), "could not convert string 'x' to int64", id="id-x"),
        pytest.param(_set_first_id("9223372036854775808"), "to int64", id="id-2**63"),
        pytest.param(lambda lines: lines[:-1], "expected 12 rows, found 11", id="row-dropped"),
        pytest.param(lambda lines: [*lines, lines[-1]], "expected 12 rows, found 13", id="row-repeated"),
        pytest.param(lambda lines: [lines[0].replace(" n=12", ""), *lines[1:]], "header lacks n", id="no-n"),
        pytest.param(lambda lines: [lines[0].replace(" n=12", "").replace(" d=2", ""), *lines[1:]],
                     "header lacks n and d", id="no-n-no-d"),
        pytest.param(lambda lines: [lines[0].replace(" n=12", " n=abc"), *lines[1:]], "n=abc", id="n=abc"),
        pytest.param(lambda lines: [lines[0].replace(" d=2", " d=-2"), *lines[1:]], "d=-2", id="d=-2"),
        pytest.param(lambda lines: [*lines[:3], lines[3].rsplit(",", 1)[0] + ",nan\r\n", *lines[4:]],
                     "row 2 (id 1) has a non-finite", id="nan-feature"),
        pytest.param(lambda lines: [*lines[:-1], lines[-1].rsplit(",", 1)[0] + ",-inf\r\n"],
                     "row 12 (id 11) has a non-finite", id="inf-feature"),
    ],
)
def test_a_malformed_dataset_cache_is_refused_naming_the_file(tmp_path, edit, reason):
    path = tmp_path / "cache.csv"
    data.save_dataset_csv(data.gen_synthetic(3, 4, 2, 1.0, seed=2), path)
    _edit_cache(path, edit)
    with pytest.raises(ValueError) as info:
        data.load_dataset_csv(path)
    assert str(info.value).startswith(f"{path}: ") and reason in str(info.value)


@pytest.mark.filterwarnings("error::UserWarning")
@pytest.mark.parametrize("column_row", [True, False])
def test_an_empty_dataset_cache_loads_without_a_warning(tmp_path, column_row):
    path = tmp_path / "cache.csv"
    data.save_dataset_csv(data.take(data.gen_synthetic(3, 4, 2, 1.0, seed=2), []), path)
    if not column_row:
        _edit_cache(path, lambda lines: lines[:1])
    back = data.load_dataset_csv(path)
    assert back.n == 0 and back.features.shape == (0, 2) and back.num_classes == 3


def test_loading_a_dataset_cache_holds_no_string_per_cell(tmp_path):
    # the csv-module reader peaked at ~11x the loaded arrays' bytes
    ds = data.make_dataset(np.random.default_rng(0).standard_normal((2000, 32)), np.arange(2000) % 5, 5)
    path = tmp_path / "cache.csv"
    data.save_dataset_csv(ds, path)
    first = data.load_dataset_csv(path)
    tracemalloc.start()
    try:
        second = data.load_dataset_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data.dataset_hash(first) == data.dataset_hash(second) == data.dataset_hash(ds)
    assert peak < 3 * sum(getattr(second, name).nbytes for name in data._PER_EXAMPLE)
