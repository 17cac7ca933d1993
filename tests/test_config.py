"""Run-config parsing tests: strictness, defaults, builders."""

import numpy as np
import pytest

from caplab import ConfigError
from caplab.config import (
    build_corner_config,
    build_datasets,
    build_eval_suite,
    build_model,
    build_train_config,
    load_run_config,
    parse_centers,
    parse_eval_tokens,
    parse_lr_drops,
    resolve_input_clip,
)

BASE = """
[data]
kind = blobs
n_per_class = 10
centers = -1,0 ; 1,0
sigma = 0.5

[model]
hidden = 8

[train]
kind = clean
epochs = 2
lr = 0.1
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestStrictParsing:
    def test_minimal_config_loads_with_defaults(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        assert rc.seed == 0 and rc.out is None
        poly = rc.section("polytope")
        assert poly["particles"] == 10
        assert poly["steps"] == 40
        assert poly["eta"] == 2 / 255
        assert poly["epsilon"] == 8 / 255
        tr = rc.section("train")
        assert tr["lambda"] == 0.6
        assert tr["batch_size"] == 128
        assert tr["momentum"] == 0.9
        assert tr["weight_decay"] == 0.0005

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(write(tmp_path, BASE + "\n[extra]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # BASE ends inside [train], so the stray key lands there
        with pytest.raises(ConfigError, match="train.lrr"):
            load_run_config(write(tmp_path, BASE + "lrr = 0.2\n"))

    def test_missing_required_key_named(self, tmp_path):
        text = BASE.replace("epochs = 2\n", "")
        with pytest.raises(ConfigError, match="train.epochs"):
            load_run_config(write(tmp_path, text))

    def test_bad_number_named(self, tmp_path):
        with pytest.raises(ConfigError, match="train.lr"):
            load_run_config(write(tmp_path, BASE.replace("lr = 0.1", "lr = fast")))

    def test_negative_lambda_named(self, tmp_path):
        with pytest.raises(ConfigError, match="train.lambda"):
            load_run_config(write(tmp_path, BASE + "lambda = -1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write(tmp_path, BASE + "epochs = 3\n"))

    def test_vanilla_at_accepts_attack_section(self, tmp_path):
        text = BASE.replace("kind = clean", "kind = vanilla_at") + "\n[attack]\nsteps = 4\n"
        cfg = build_train_config(load_run_config(write(tmp_path, text)))
        assert cfg.attack is not None
        assert cfg.attack.steps == 4
        assert cfg.attack.epsilon == 8 / 255  # inherits polytope default

    def test_overrides_are_parsed_like_file_keys(self, tmp_path):
        path = write(tmp_path, BASE + "\n[run]\nseed = 5\n\n[polytope]\nsteps = 7\n")
        rc = load_run_config(path, {"run": {"seed": 9}, "polytope": {"steps": None, "eta": 0.5}})
        assert rc.seed == 9 and rc.section("run")["seed"] == 9  # override beats the file
        assert rc.section("polytope")["steps"] == 7  # None keeps the file's value
        assert rc.section("polytope")["eta"] == 0.5
        with pytest.raises(ConfigError, match="unknown key run.threads"):
            load_run_config(path, {"run": {"threads": 1}})
        with pytest.raises(ConfigError, match="polytope.particles: must be > 0"):
            load_run_config(path, {"polytope": {"particles": 0}})


class TestValueParsers:
    def test_centers(self):
        got = parse_centers("-1,0 ; (1,0) ; 0,1.5")
        assert got == [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]]
        with pytest.raises(ConfigError):
            parse_centers("1,0")
        with pytest.raises(ConfigError):
            parse_centers("1,0 ; 2")

    def test_lr_drops(self):
        assert parse_lr_drops("") == ()
        assert parse_lr_drops("80:10, 100:10") == ((80, 10.0), (100, 10.0))
        with pytest.raises(ConfigError):
            parse_lr_drops("100:10, 80:10")
        with pytest.raises(ConfigError):
            parse_lr_drops("80")

    def test_eval_tokens(self):
        assert parse_eval_tokens("fgsm, pgd-20, pgd-100") == [
            ("fgsm", 1),
            ("pgd", 20),
            ("pgd", 100),
        ]
        with pytest.raises(ConfigError, match="token"):
            parse_eval_tokens("cw")


class TestBuilders:
    def test_datasets_disjoint_train_test_streams(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        train_ds, test_ds = build_datasets(rc)
        assert train_ds.n_samples == test_ds.n_samples == 20
        assert not np.array_equal(train_ds.features, test_ds.features)

    def test_model_dims_follow_dataset(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        train_ds, _ = build_datasets(rc)
        model = build_model(rc, train_ds)
        assert model.input_dim == 2 and model.output_dim == 2

    def test_same_seed_same_model(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        ds, _ = build_datasets(rc)
        a, b = build_model(rc, ds), build_model(rc, ds)
        assert all(np.array_equal(p, q) for p, q in zip(a.parameters(), b.parameters()))

    def test_corner_config_carries_seed(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE + "\n[run]\nseed = 42\n"))
        assert build_corner_config(rc).seed == 42

    def test_eval_suite_tokens_and_seeds(self, tmp_path):
        text = BASE + "\n[eval]\nattacks = fgsm, pgd-20, pgd-100\nepsilon = 0.1\n"
        rc = load_run_config(write(tmp_path, text))
        suite = build_eval_suite(rc)
        names = [name for name, _ in suite]
        assert names == ["fgsm", "pgd-20", "pgd-100"]
        pgd20, pgd100 = suite[1][1], suite[2][1]
        assert pgd20.steps == 20 and pgd100.steps == 100
        assert pgd20.seed != pgd100.seed  # independent derived streams
        assert all(cfg.epsilon == 0.1 for _, cfg in suite)

    def test_clip_defaults_on_for_scaled_csv(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("\n".join(f"{i},{i * 2},{i % 2}" for i in range(10)) + "\n")
        text = f"""
[data]
kind = csv
path = {csv}
feature_scaling = minmax_to_unit
test_fraction = 0.3

[model]
hidden = 4

[train]
kind = clean
epochs = 1
lr = 0.1
"""
        rc = load_run_config(write(tmp_path, text))
        assert resolve_input_clip(rc) == (0.0, 1.0)
        train_ds, test_ds = build_datasets(rc)
        assert train_ds.n_samples == 7 and test_ds.n_samples == 3
        assert train_ds.scaling is not None

    def test_clip_off_for_synthetic_data(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        assert resolve_input_clip(rc) is None

    def test_explicit_clip_override(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE + "\n[polytope]\ninput_clip = -2,2\n"))
        assert resolve_input_clip(rc) == (-2.0, 2.0)
