"""Dataset generator and CSV loader tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab import (
    CsvParseError,
    Dataset,
    TrainConfig,
    gen_blobs,
    gen_moons,
    init_mlp,
    load_csv,
    split,
    train,
)
from caplab.polytope import CornerConfig, PerturbationBudget
from mutations import csv_files
from oracles import save_csv


class TestBlobs:
    def test_tiny_sigma_points_at_centers(self):
        centers = [[-1.0, 0.0], [1.0, 0.0]]
        ds = gen_blobs(0, 20, centers, sigma=1e-12)
        for k, c in enumerate(centers):
            pts = ds.features[ds.labels == k]
            assert np.abs(pts - np.asarray(c)).max() < 1e-9

    def test_same_seed_bit_identical(self):
        a = gen_blobs(4, 30, [[0, 0], [2, 2], [0, 3]], 0.5)
        b = gen_blobs(4, 30, [[0, 0], [2, 2], [0, 3]], 0.5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_sample_means_near_centers(self):
        # CLT: per-class mean is within 3 sigma/sqrt(n) of its center
        n = 10_000
        centers = [[-2.0, 1.0], [3.0, -1.0]]
        ds = gen_blobs(5, n, centers, sigma=1.0)
        for k, c in enumerate(centers):
            mean = ds.features[ds.labels == k].mean(axis=0)
            assert np.abs(mean - np.asarray(c)).max() < 3 / np.sqrt(n)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_blobs(0, 10, [[0, 0]], 1.0)
        with pytest.raises(ValueError):
            gen_blobs(0, 10, [[0, 0], [1, 1]], 0.0)


class TestMoons:
    def test_zero_noise_points_on_arcs(self):
        ds = gen_moons(0, 50, noise=0.0)
        outer = ds.features[ds.labels == 0]
        inner = ds.features[ds.labels == 1]
        assert np.abs((outer**2).sum(axis=1) - 1.0).max() < 1e-12
        inner_rel = inner - np.array([1.0, 0.5])
        assert np.abs((inner_rel**2).sum(axis=1) - 1.0).max() < 1e-12

    def test_same_seed_identical(self):
        a = gen_moons(9, 40, 0.2)
        b = gen_moons(9, 40, 0.2)
        assert np.array_equal(a.features, b.features)

    def test_noiseless_moons_learnable_to_100_percent(self):
        ds = gen_moons(1, 40, noise=0.0)
        model = init_mlp(7, [2, 16, 2])
        cfg = TrainConfig(
            baseline_kind="clean",
            epochs=300,
            lr=0.1,
            lr_drops=(),
            polytope=CornerConfig(1, 1, 0.01, PerturbationBudget(0.0)),
            seed=3,
            momentum=0.9,
            weight_decay=0.0,
            batch_size=16,
        )
        _, report = train(model, ds, cfg)
        assert max(r.clean_acc for r in report.records) == 1.0


class TestCsv:
    def test_hand_written_file_parses_exactly(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0.5,1.25,0\n-2.0,3.5,1\n")
        ds = load_csv(str(path))
        assert np.array_equal(ds.features, np.array([[0.5, 1.25], [-2.0, 3.5]]))
        assert np.array_equal(ds.labels, np.array([0, 1]))
        assert ds.class_count == 2

    def test_header_and_named_label_column(self, tmp_path):
        path = tmp_path / "named.csv"
        path.write_text("a,label,b\n1.0,2,3.0\n4.0,0,6.0\n")
        ds = load_csv(str(path), label_column="label", has_header=True)
        assert np.array_equal(ds.features, np.array([[1.0, 3.0], [4.0, 6.0]]))
        assert np.array_equal(ds.labels, np.array([2, 0]))
        assert ds.class_count == 3

    def test_round_trip(self, tmp_path):
        ds = gen_blobs(2, 25, [[0, 0], [1, 3]], 0.7)
        path = tmp_path / "rt.csv"
        save_csv(ds, str(path))
        back = load_csv(str(path))
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)
        assert ds.class_count == back.class_count

    def test_minmax_scaling_arithmetic(self, tmp_path):
        path = tmp_path / "scale.csv"
        path.write_text("2.0,0\n6.0,1\n10.0,0\n")
        ds = load_csv(str(path), feature_scaling="minmax_to_unit")
        assert np.array_equal(ds.features[:, 0], np.array([0.0, 0.5, 1.0]))

    def test_scaled_features_within_unit_box(self, tmp_path):
        rng = np.random.default_rng(6)
        lines = [f"{rng.normal()},{rng.normal() * 10},{rng.integers(0, 3)}" for _ in range(40)]
        path = tmp_path / "r.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = load_csv(str(path), feature_scaling="minmax_to_unit")
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_minmax_overflow_names_column_without_warning(self, tmp_path):
        # the label sits in column 1, so the wide feature is file column 3
        path = tmp_path / "wide.csv"
        path.write_text("0.5,0,1e308\n0.25,1,-1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvParseError, match="column 3: values span"):
                load_csv(str(path), label_column=1, feature_scaling="minmax_to_unit")
            assert load_csv(str(path), label_column=1).features[0, 1] == 1e308

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0,0\n3.0,1\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(str(path))

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "alpha.csv"
        path.write_text("1.0,2.0,0\nx,2.0,1\n")
        with pytest.raises(CsvParseError, match="line 2"):
            load_csv(str(path))

    def test_unknown_label_names_line(self, tmp_path):
        path = tmp_path / "label.csv"
        path.write_text("1.0,2.0,cat\n")
        with pytest.raises(CsvParseError, match="line 1.*label"):
            load_csv(str(path))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "data.csv"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    data=csv_files(),
    label_column=st.sampled_from([-1, -1, 0, 2, 5, "0.25"]),
    scaling=st.sampled_from(["none", "minmax_to_unit"]),
    has_header=st.booleans(),
)
def test_mutated_csv_loads_or_is_rejected(csv_path, data, label_column, scaling, has_header):
    csv_path.write_bytes(data)
    try:
        ds = load_csv(str(csv_path), label_column, scaling, has_header)
    except ValueError as exc:  # CsvParseError and Dataset's checks; the CLI exits 2
        assert str(exc)
        return
    assert np.isfinite(ds.features).all()
    assert ds.labels.min() >= 0 and ds.labels.max() < ds.class_count


class TestSplit:
    def test_partition_is_disjoint_and_exhaustive(self):
        ds = gen_blobs(7, 40, [[0, 0], [1, 1]], 0.5)
        tr, te = split(ds, 0.7, seed=1)
        assert tr.n_samples + te.n_samples == ds.n_samples
        rows = {tuple(r) for r in ds.features}
        got = [tuple(r) for r in np.concatenate([tr.features, te.features])]
        assert len(got) == len(rows)
        assert set(got) == rows

    def test_same_seed_identical(self):
        ds = gen_blobs(8, 30, [[0, 0], [1, 1]], 0.5)
        a_tr, a_te = split(ds, 0.5, seed=4)
        b_tr, b_te = split(ds, 0.5, seed=4)
        assert np.array_equal(a_tr.features, b_tr.features)
        assert np.array_equal(a_te.features, b_te.features)

    def test_degenerate_fraction_rejected(self):
        ds = gen_blobs(9, 5, [[0, 0], [1, 1]], 0.5)
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            split(ds, 0.0001, seed=0)  # floor gives an empty train side


class TestDatasetInvariants:
    def test_rejects_label_out_of_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 2)), np.array([0, 5]), class_count=2)

    def test_rejects_non_finite_features(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([0]), class_count=1)
