"""End-to-end CLI tests: exit codes, file outputs, determinism contracts."""

import itertools
import json

import numpy as np
import pytest

from caplab import (
    AttackConfig,
    Layer,
    MlpModel,
    load_model,
    robust_accuracy,
    save_model,
)
from caplab.cli import main
from caplab.config import build_datasets, load_run_config

MINI = """
[run]
seed = {seed}

[data]
kind = blobs
n_per_class = 25
centers = -0.14,0 ; 0.14,0 ; 0,0.2425
sigma = 0.03

[model]
hidden = 16

[train]
kind = {kind}
lambda = {lam}
epochs = {epochs}
lr = 0.1
lr_drops = {drops}
probe_size = 4
batch_size = 32

[polytope]
particles = 5
steps = 4
eta = 0.02
epsilon = 0.1

[eval]
attacks = fgsm, pgd-5
epsilon = 0.1
alpha = 0.02
"""


def write_mini(tmp_path, name="mini.ini", kind="cap", lam=0.6, epochs=2, seed=3, drops="2:10"):
    path = tmp_path / name
    path.write_text(MINI.format(kind=kind, lam=lam, epochs=epochs, seed=seed, drops=drops))
    return str(path)


def read_tree(root, exclude=("run.log",)):
    """name -> bytes for every file under root, skipping excluded names."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in exclude:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestTrainCommand:
    def test_minimal_config_writes_three_files(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=1)
        out = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        for name in ("checkpoint.json", "report.json", "history.csv"):
            assert (out / name).is_file()
        load_model(str(out / "checkpoint.json"))  # checkpoint is loadable

    def test_negative_lambda_exits_2_naming_field(self, tmp_path, capsys):
        cfg = write_mini(tmp_path, lam=-0.5)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        assert "train.lambda" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(
            MINI.format(kind="cap", lam=0.6, epochs=1, seed=0, drops="") + "\n[train2]\nx = 1\n"
        )
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "train2" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=2)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2)]) == 0
        t1, t2 = read_tree(out1), read_tree(out2)
        assert t1.keys() == t2.keys()
        assert t1 == t2

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=1)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["train", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out2), "--seed", "99"]) == 0
        a = (out1 / "history.csv").read_bytes()
        b = (out2 / "history.csv").read_bytes()
        assert a != b

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]) == 2


class TestEvalCommand:
    def test_epsilon_zero_matches_clean(self, tmp_path):
        # --epsilon overrides [eval] epsilon with or without --attack
        cfg = write_mini(tmp_path, epochs=2)
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run)])
        for tag, attack in (("one", ["--attack", "pgd-5"]), ("suite", [])):
            out = tmp_path / tag
            code = main(
                ["eval", "--config", cfg, "--checkpoint", str(run / "checkpoint.json")]
                + ["--out", str(out), "--epsilon", "0"]
                + attack
            )
            assert code == 0
            doc = json.loads((out / "eval.json").read_text())
            by_name = {r["attack"]: r for r in doc["results"]}
            assert by_name["pgd-5"]["epsilon"] == 0.0
            assert by_name["pgd-5"]["accuracy"] == by_name["clean"]["accuracy"]
            assert doc["external"] == {"cw_linf": None, "autoattack": None}

    def test_repeat_eval_identical_json(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=2)
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run)])
        outs = []
        for tag in ("e1", "e2"):
            out = tmp_path / tag
            main(
                [
                    "eval",
                    "--config",
                    cfg,
                    "--checkpoint",
                    str(run / "checkpoint.json"),
                    "--out",
                    str(out),
                ]
            )
            outs.append((out / "eval.json").read_bytes())
        assert outs[0] == outs[1]

    def test_pgd_100_no_weaker_than_pgd_20(self, tmp_path):
        # more iterations cannot weaken the attack beyond random-start noise;
        # seed-averaged over 3 starts, tolerance half a point
        cfg = write_mini(tmp_path, kind="clean", lam=0, epochs=40, drops="30:10")
        run = tmp_path / "run"
        assert main(["train", "--config", cfg, "--out", str(run)]) == 0
        model = load_model(str(run / "checkpoint.json"))
        _, test_ds = build_datasets(load_run_config(cfg))

        def mean_acc(steps):
            return float(
                np.mean(
                    [
                        robust_accuracy(
                            model,
                            test_ds,
                            AttackConfig("pgd", 0.1, 0.02, steps, random_start=True, seed=s),
                        )
                        for s in (0, 1, 2)
                    ]
                )
            )

        assert mean_acc(100) <= mean_acc(20) + 0.005

    def test_corrupt_checkpoint_exits_2(self, tmp_path):
        cfg = write_mini(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["eval", "--config", cfg, "--checkpoint", str(bad), "--out", str(tmp_path / "o")]) == 2


class TestCornersCommand:
    def test_zero_epsilon_reports_zero_diameter(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=1)
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run)])
        out = tmp_path / "crn"
        code = main(
            [
                "corners",
                "--config",
                cfg,
                "--checkpoint",
                str(run / "checkpoint.json"),
                "--out",
                str(out),
                "--epsilon",
                "0",
            ]
        )
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        assert doc["diameter"] == 0.0
        assert (out / "corners.svg").is_file()

    def test_linear_checkpoint_matches_vertex_oracle(self, tmp_path):
        W = np.array([[2.0, 1.0], [-1.0, 1.5]])
        b = np.array([0.3, -0.2])
        save_model(MlpModel([Layer(W, b, "identity")]), str(tmp_path / "lin.json"))
        sample = tmp_path / "sample.csv"
        x = np.array([0.4, -0.7])
        sample.write_text(f"{x[0]},{x[1]},0\n")
        cfg = write_mini(tmp_path)
        out = tmp_path / "crn"
        code = main(
            [
                "corners",
                "--config",
                cfg,
                "--checkpoint",
                str(tmp_path / "lin.json"),
                "--sample-file",
                str(sample),
                "--out",
                str(out),
                "--particles",
                "8",
                "--steps",
                "40",
                "--eta",
                "0.02",
                "--epsilon",
                "0.1",
                "--corner-seed",
                "123",
            ]
        )
        assert code == 0
        doc = json.loads((out / "estimate.json").read_text())
        corners = np.asarray(doc["corners"])
        verts = np.array(list(itertools.product([-0.1, 0.1], repeat=2)))
        vimg = (x + verts) @ W.T + b
        nearest = np.sqrt(((corners[:, None, :] - vimg[None, :, :]) ** 2).sum(axis=2)).min(axis=1)
        assert nearest.max() < 1e-6

    def test_three_class_model_projects_svg(self, tmp_path):
        from caplab import init_mlp

        save_model(init_mlp(1, [2, 6, 3]), str(tmp_path / "three.json"))
        sample = tmp_path / "s.csv"
        sample.write_text("0.1,0.2,0\n")
        cfg = write_mini(tmp_path)
        out = tmp_path / "crn"
        code = main(
            [
                "corners",
                "--config",
                cfg,
                "--checkpoint",
                str(tmp_path / "three.json"),
                "--sample-file",
                str(sample),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        svg = (out / "corners.svg").read_text()
        assert "projected to the first two logit axes" in svg

    def test_five_class_model_warns_and_skips_svg(self, tmp_path, capsys):
        from caplab import init_mlp

        save_model(init_mlp(0, [2, 4, 5]), str(tmp_path / "wide.json"))
        sample = tmp_path / "s.csv"
        sample.write_text("0.1,0.2,0\n")
        cfg = write_mini(tmp_path)
        out = tmp_path / "crn"
        code = main(
            [
                "corners",
                "--config",
                cfg,
                "--checkpoint",
                str(tmp_path / "wide.json"),
                "--sample-file",
                str(sample),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "estimate.json").is_file()
        assert not (out / "corners.svg").exists()
        assert "skipping SVG" in capsys.readouterr().err

    def test_out_of_range_sample_index_exits_2(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=1)
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run)])
        code = main(
            [
                "corners",
                "--config",
                cfg,
                "--checkpoint",
                str(run / "checkpoint.json"),
                "--sample-index",
                "100000",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == 2

    def test_rerun_svg_byte_identical(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=1)
        run = tmp_path / "run"
        main(["train", "--config", cfg, "--out", str(run)])
        svgs = []
        for tag in ("c1", "c2"):
            out = tmp_path / tag
            main(
                [
                    "corners",
                    "--config",
                    cfg,
                    "--checkpoint",
                    str(run / "checkpoint.json"),
                    "--out",
                    str(out),
                ]
            )
            svgs.append((out / "corners.svg").read_bytes())
        assert svgs[0] == svgs[1]


class TestCompareCommand:
    def test_self_comparison_identical_columns(self, tmp_path):
        cfg = write_mini(tmp_path, epochs=2)
        out = tmp_path / "cmp"
        assert main(["compare", "--config-a", cfg, "--config-b", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "compare.json").read_text())
        assert doc["status"] == "complete"
        a, b = doc["rows"]
        assert a["accuracies"] == b["accuracies"]
        assert a["mean_diameter"] == b["mean_diameter"]
        assert (out / "compare.md").read_text().count("|") > 10

    def test_cap_vs_clean_lower_diameter(self, tmp_path):
        cfg_a = write_mini(tmp_path, name="a.ini", kind="cap", epochs=8, drops="6:10")
        cfg_b = write_mini(tmp_path, name="b.ini", kind="clean", lam=0, epochs=8, drops="6:10")
        out = tmp_path / "cmp"
        assert main(["compare", "--config-a", cfg_a, "--config-b", cfg_b, "--out", str(out)]) == 0
        doc = json.loads((out / "compare.json").read_text())
        rows = {r["trainer"]: r for r in doc["rows"]}
        assert rows["cap"]["mean_diameter"] < rows["clean"]["mean_diameter"]

    def test_mismatched_seed_exits_2(self, tmp_path, capsys):
        cfg_a = write_mini(tmp_path, name="a.ini", seed=1)
        cfg_b = write_mini(tmp_path, name="b.ini", seed=2)
        assert main(["compare", "--config-a", cfg_a, "--config-b", cfg_b, "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_config_marked_incomplete(self, tmp_path):
        cfg_a = write_mini(tmp_path, name="a.ini", epochs=1)
        bad = write_mini(tmp_path, name="b.ini", epochs=1).replace("b.ini", "b.ini")
        path_b = tmp_path / "b.ini"
        path_b.write_text(path_b.read_text().replace("lr = 0.1", "lr = 1e150"))
        out = tmp_path / "cmp"
        code = main(["compare", "--config-a", cfg_a, "--config-b", str(path_b), "--out", str(out)])
        assert code != 0
        doc = json.loads((out / "compare.json").read_text())
        assert doc["status"] == "incomplete"
        assert "b.ini" in doc["failed"]

    def test_thread_flag_and_env_do_not_change_results(self, tmp_path, monkeypatch):
        cfg = write_mini(tmp_path, epochs=2)
        outs = []
        for tag, threads, env in (("t1", "1", None), ("t8", "8", None), ("te", None, "4")):
            out = tmp_path / tag
            argv = ["compare", "--config-a", cfg, "--config-b", cfg, "--out", str(out)]
            if threads:
                argv += ["--threads", threads]
            if env:
                monkeypatch.setenv("CAP_LAB_THREADS", env)
            else:
                monkeypatch.delenv("CAP_LAB_THREADS", raising=False)
            assert main(argv) == 0
            outs.append(read_tree(out))
        assert outs[0] == outs[1] == outs[2]

    def test_invalid_thread_count_exits_2(self, tmp_path, monkeypatch, capsys):
        # the thread count has no effect but is still validated
        cfg = write_mini(tmp_path, epochs=1)
        argv = ["compare", "--config-a", cfg, "--config-b", cfg, "--out", str(tmp_path / "c")]
        monkeypatch.delenv("CAP_LAB_THREADS", raising=False)
        assert main(argv + ["--threads", "-1"]) == 2
        monkeypatch.setenv("CAP_LAB_THREADS", "many")
        assert main(argv) == 2
        assert "CAP_LAB_THREADS" in capsys.readouterr().err
