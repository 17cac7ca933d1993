"""End-to-end CLI tests: exit codes, file outputs, determinism contracts."""

import contextlib
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from caplab.nn import init_mlp, model_to_dict
from mutations import checkpoint_docs, csv_files

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


def _drop_second_bias(doc):
    del doc["layers"][1]["bias"]
    return doc


def _nan_second_weight(doc):
    doc["layers"][1]["weights"][3] = float("nan")
    return doc


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

    def test_probe_larger_than_the_training_set_exits_2(self, tmp_path, capsys):
        cfg = write_mini(tmp_path, epochs=1)
        path = tmp_path / "mini.ini"
        path.write_text(path.read_text().replace("probe_size = 4", "probe_size = 100000"))
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: probe_size 100000 exceeds the ") and "Traceback" not in err

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

    @pytest.mark.parametrize("failure", ["no-mallopt", "oserror"])
    def test_train_without_mallopt_writes_same_bytes(self, tmp_path, monkeypatch, failure):
        import ctypes

        cfg = write_mini(tmp_path, epochs=1)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "tuned")]) == 0
        lookups = []

        def cdll(*args, **kwargs):
            lookups.append(args)
            if failure == "oserror":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "plain")]) == 0
        assert len(lookups) == 1
        assert read_tree(tmp_path / "tuned") == read_tree(tmp_path / "plain")

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

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        cfg = write_mini(tmp_path)
        bad = tmp_path / "bad.json"
        # json.load raises RecursionError on deep nesting; load_model reports
        # it as a malformed checkpoint
        for text in ("{not json", "[" * 200_000):
            bad.write_text(text)
            assert main(["eval", "--config", cfg, "--checkpoint", str(bad), "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "mangle, field",
        [
            (lambda doc: {k: v for k, v in doc.items() if k != "layers"}, "layers"),
            (lambda doc: {**doc, "layers": 5}, "layers"),
            (_drop_second_bias, "layers[1].bias"),
            (lambda doc: [doc], "JSON object"),
            (_nan_second_weight, "layers[1].weights"),
            (lambda doc: model_to_dict(init_mlp(0, [2, 16, 2])), "--checkpoint {bad} [2->2] does not fit"),
            (lambda doc: model_to_dict(init_mlp(0, [3, 16, 3])), "--checkpoint {bad} [3->3] does not fit"),
        ],
        ids=["no-layers", "layers-not-a-list", "no-bias", "top-level-list", "nan-weight",
             "fewer-outputs-than-classes", "wider-input-than-data"],
    )
    def test_malformed_checkpoint_exits_2_naming_field(self, tmp_path, capsys, mangle, field):
        cfg = write_mini(tmp_path)
        doc = mangle(model_to_dict(init_mlp(0, [2, 16, 3])))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--config", cfg, "--checkpoint", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert field.format(bad=bad) in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


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
        err = capsys.readouterr().err
        assert "skipping SVG" in err
        assert "coincide" not in err

    @pytest.mark.parametrize(
        "row, want",
        [
            # logits near 1e19: padding a single point by 0.5 is lost to rounding
            ("9223372036854775808,-1.5,0", 0),
            # the forward pass overflows float64: a numeric failure, not a warning
            ("1e308,-1.5,0", 3),
        ],
        ids=["unplottable", "overflow"],
    )
    def test_huge_sample_writes_no_nan_svg(self, tmp_path, capsys, row, want):
        save_model(init_mlp(0, [2, 16, 3]), str(tmp_path / "m.json"))
        sample = tmp_path / "s.csv"
        sample.write_text(row + "\n")
        out = tmp_path / "crn"
        argv = ["corners", "--config", write_mini(tmp_path), "--checkpoint",
                str(tmp_path / "m.json"), "--sample-file", str(sample), "--out", str(out)]
        assert main(argv) == want
        err = capsys.readouterr().err
        assert not (out / "corners.svg").exists()
        if want == 0:
            assert (out / "estimate.json").is_file()
            assert "too large to plot, skipping SVG" in err
            # x + e rounds back to x for every particle: all corners are one point
            assert json.loads((out / "estimate.json").read_text())["diameter"] == 0.0
            assert "warning: all 5 corners coincide; epsilon 0.1 may be below the float" in err
        else:
            assert err == "numeric failure: overflow encountered in matmul\n"

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

    def test_configs_equal_after_parsing_are_comparable(self, tmp_path):
        # same centers in another spelling; [eval] epsilon spelled out where
        # the other config lets it default to the polytope epsilon
        cfg_a = write_mini(tmp_path, name="a.ini")
        text = (tmp_path / "a.ini").read_text()
        text = text.replace("centers = -0.14,0 ; 0.14,0 ; 0,0.2425", "centers = (-0.14, 0); (0.14, 0); (0, 0.2425)")
        text = text.replace("attacks = fgsm, pgd-5\nepsilon = 0.1\n", "attacks = fgsm, pgd-5\n")
        assert text.count("epsilon = 0.1") == 1
        cfg_b = tmp_path / "b.ini"
        cfg_b.write_text(text)
        out = tmp_path / "cmp"
        assert main(["compare", "--config-a", cfg_a, "--config-b", str(cfg_b), "--out", str(out)]) == 0
        a, b = json.loads((out / "compare.json").read_text())["rows"]
        assert (a["trainer"], a["accuracies"], a["mean_diameter"]) == (
            b["trainer"], b["accuracies"], b["mean_diameter"]
        )

    def test_mismatched_seed_exits_2(self, tmp_path, capsys):
        cfg_a = write_mini(tmp_path, name="a.ini", seed=1)
        cfg_b = write_mini(tmp_path, name="b.ini", seed=2)
        assert main(["compare", "--config-a", cfg_a, "--config-b", cfg_b, "--out", str(tmp_path / "x")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_missing_data_file_exits_2_and_leaves_no_out(self, tmp_path, capsys):
        # the shared [data] section loads once, before --out is created
        text = (
            f"[data]\nkind = csv\npath = {tmp_path / 'missing.csv'}\ntest_fraction = 0.25\n\n"
            "[model]\nhidden = 4\n\n[train]\nkind = clean\nepochs = 1\nlr = 0.1\n"
        )
        (tmp_path / "a.ini").write_text(text)
        (tmp_path / "b.ini").write_text(text.replace("kind = clean", "kind = cap"))
        out = tmp_path / "cmp"
        code = main(
            ["compare", "--config-a", str(tmp_path / "a.ini"), "--config-b", str(tmp_path / "b.ini"),
             "--out", str(out)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "missing.csv" in err and "Traceback" not in err
        assert not out.exists()

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


def test_out_of_memory_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # stands in for an allocation that fails, e.g. --particles 100000000000;
    # the test never asks for a real huge array
    def find_corners(*args):
        raise MemoryError("Unable to allocate 14.9 TiB for an array")

    monkeypatch.setattr("caplab.cli.find_corners", find_corners)
    save_model(init_mlp(1, [2, 6, 3]), str(tmp_path / "m.json"))
    cfg = write_mini(tmp_path)
    code = main(
        ["corners", "--config", cfg, "--checkpoint", str(tmp_path / "m.json"),
         "--out", str(tmp_path / "o")]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: out of memory: Unable to allocate 14.9 TiB for an array\n"


def test_output_keys_are_pinned(tmp_path):
    # a field that appears in or vanishes from an output file changes this test
    cfg = write_mini(tmp_path, epochs=1)
    out = tmp_path / "run"
    ckpt = str(out / "checkpoint.json")
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    assert main(["eval", "--config", cfg, "--checkpoint", ckpt, "--out", str(out)]) == 0
    assert main(["corners", "--config", cfg, "--checkpoint", ckpt, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"checkpoint", "config", "dataset", "records"}
    assert set(report["config"]) == {
        "attack", "baseline_kind", "batch_size", "epochs", "lam", "lr", "lr_drops",
        "momentum", "polytope", "probe_size", "seed", "weight_decay",
    }
    assert set(report["config"]["polytope"]) == {"budget", "eta", "n_particles", "seed", "steps"}
    assert set(report["config"]["polytope"]["budget"]) == {"epsilon", "input_clip"}
    ev = json.loads((out / "eval.json").read_text())
    assert set(ev) == {"results", "seed"}
    for result in ev["results"]:
        assert set(result) == {"accuracy", "attack", "epsilon", "n_samples", "seed", "steps"}
    est = json.loads((out / "estimate.json").read_text())
    assert set(est) == {
        "center", "corners", "diameter", "distances", "objective_history", "sample_index", "search",
    }
    assert set(est["search"]) == {"epsilon", "eta", "input_clip", "n_particles", "seed", "steps"}


@pytest.mark.parametrize(
    "command, flags, key",
    [
        ("train", ["--seed", "-1"], "run.seed"),
        ("eval", ["--epsilon", "-1"], "eval.epsilon"),
        ("eval", ["--attack", "fgsm", "--alpha", "0"], "eval.alpha"),
        ("corners", ["--particles", "0"], "polytope.particles"),
        ("corners", ["--eta", "-1"], "polytope.eta"),
        ("corners", ["--corner-seed", "-1"], "--corner-seed"),
        # a 3-input checkpoint for the config's 2-D data; 3-D samples for a 2-input one
        ("corners", ["--checkpoint", "{tmp}/wide.json"], "--checkpoint {tmp}/wide.json"),
        ("corners", ["--sample-file", "{tmp}/three.csv"], "{tmp}/three.csv has 3"),
        # text the key's rule cannot parse: the rule, not argparse, rejects it
        ("train", ["--seed", "1.5"], "run.seed: expected an integer, got '1.5'"),
        ("compare", ["--seed", "x"], "run.seed: expected an integer, got 'x'"),
        ("corners", ["--particles", "2.5"], "polytope.particles: expected an integer"),
        ("corners", ["--steps", "abc"], "polytope.steps: expected an integer"),
        ("eval", ["--epsilon", "abc"], "eval.epsilon: expected a number, got 'abc'"),
        ("corners", ["--epsilon", "abc"], "polytope.epsilon: expected a number"),
        ("eval", ["--alpha", "x"], "eval.alpha: expected a number, got 'x'"),
        ("corners", ["--eta", ""], "polytope.eta: expected a number, got ''"),
        # results are keyed by attack name: a second pgd-5 would be dropped
        ("eval", ["--attack", "pgd-5", "--attack", "pgd-5"], "eval.attacks: duplicate attack 'pgd-5'"),
    ],
)
def test_flag_is_checked_like_its_config_key(tmp_path, capsys, command, flags, key):
    cfg = write_mini(tmp_path)
    for name, dims in (("model", [2, 16, 3]), ("wide", [3, 16, 3])):
        (tmp_path / f"{name}.json").write_text(json.dumps(model_to_dict(init_mlp(0, dims))))
    (tmp_path / "three.csv").write_text("0.1,0.2,0.3,0\n")
    out = tmp_path / "out"
    if command == "compare":
        argv = [command, "--config-a", cfg, "--config-b", cfg, "--out", str(out)]
    else:
        argv = [command, "--config", cfg, "--out", str(out)]
    if command in ("eval", "corners"):
        argv += ["--checkpoint", str(tmp_path / "model.json")]  # a later --checkpoint wins
    argv += [flag.format(tmp=tmp_path) for flag in flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert key.format(tmp=tmp_path) in err
    assert "Traceback" not in err
    assert not out.exists()  # rejected before any work starts


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--config", "c.ini"],
        ["eval", "--config", "c.ini", "--checkpoint", "m.json"],
        ["corners", "--config", "c.ini", "--checkpoint", "m.json"],
        ["compare", "--config-a", "c.ini", "--config-b", "c.ini"],
    ],
    ids=lambda argv: argv[0],
)
def test_threads_flag_is_rejected(tmp_path, capsys, argv):
    argv = argv + ["--out", str(tmp_path / "out"), "--threads", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # numpy's overflow warning would fail the test
@pytest.mark.parametrize(
    "key, data",
    [
        ("sigma", "kind = blobs\nn_per_class = 10\ncenters = -1,0 ; 1,0\nsigma = 1e308\n"),
        ("noise", "kind = moons\nn_per_class = 10\nnoise = 1e308\n"),
    ],
    ids=["sigma", "noise"],
)
def test_overflowing_noise_scale_exits_2_naming_key(tmp_path, capsys, key, data):
    path = tmp_path / "c.ini"
    path.write_text(f"[data]\n{data}\n[model]\nhidden = 4\n\n[train]\nkind = clean\nepochs = 1\nlr = 0.1\n")
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data.{key}: {key} = 1e+308 overflows") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_label_beyond_training_samples_exits_2_before_sizing_model(tmp_path, capsys):
    # one label of 10^15 would ask for a 10^15-wide output layer
    data = tmp_path / "d.csv"
    data.write_text("0.1,0\n0.2,1\n0.3,0\n0.4,1000000000000000\n")
    path = tmp_path / "c.ini"
    path.write_text(
        f"[data]\nkind = csv\npath = {data}\ntest_fraction = 0.25\n\n[model]\nhidden = 4\n\n"
        "[train]\nkind = clean\nepochs = 1\nlr = 0.1\n"
    )
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: data.path: {data}: label 1000000000000000 ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("train", []),  # the cap term's particle draw
        ("corners", ["--epsilon", "1e308"]),
        ("eval", ["--attack", "pgd-5", "--epsilon", "1e308"]),  # pgd's random start
    ],
)
def test_epsilon_too_large_to_draw_exits_3_naming_it(tmp_path, capsys, command, flags):
    cfg = tmp_path / "c.ini"
    text = MINI.format(kind="cap", lam=0.6, epochs=1, seed=0, drops="")
    cfg.write_text(text.replace("[eval]", "[eval]\nrandom_start = true"))
    if command == "train":
        cfg.write_text(cfg.read_text().replace("epsilon = 0.1", "epsilon = 1e308", 1))
    save_model(init_mlp(0, [2, 16, 3]), str(tmp_path / "m.json"))
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *flags]
    if command != "train":
        argv += ["--checkpoint", str(tmp_path / "m.json")]
    assert main(argv) == 3
    err = capsys.readouterr().err  # train names the step first: "epoch 1, batch 0: "
    assert err.startswith("numeric failure: ") and err.count("\n") == 1
    assert err.endswith("epsilon 1e+308: the draw's range 2 * epsilon overflows float64\n")


@pytest.mark.parametrize(
    "fraction, reason",
    [("0.99", "degenerate split: 0 train of 10 samples"), ("1e-17", "1e-17 leaves no test sample of 10")],
)
def test_csv_split_error_exits_2_naming_test_fraction(tmp_path, capsys, fraction, reason):
    data = tmp_path / "d.csv"
    data.write_text("".join(f"0.{i},{i % 2}\n" for i in range(10)))
    path = tmp_path / "c.ini"
    path.write_text(
        f"[data]\nkind = csv\npath = {data}\ntest_fraction = {fraction}\n\n[model]\nhidden = 4\n\n"
        "[train]\nkind = clean\nepochs = 1\nlr = 0.1\n"
    )
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: data.test_fraction: {reason}\n"
    assert not (tmp_path / "out").exists()


def run_quietly(argv):
    """main(argv)'s exit code and stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    """Exit 0, or exit 2 or 3 with a one-line reason; an uncaught exception
    would have failed the test already."""
    assert code in (0, 2, 3), (code, err)
    if code:
        assert err.startswith(("error: ", "numeric failure: ")) and "Traceback" not in err, err


@pytest.fixture(scope="module")
def mutation_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutated")
    cfg = root / "mini.ini"
    cfg.write_text(MINI.format(kind="cap", lam=0.6, epochs=1, seed=0, drops=""))
    checkpoint = root / "model.json"
    save_model(init_mlp(0, [2, 16, 3]), str(checkpoint))
    return root, str(cfg), str(checkpoint)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(data=csv_files(), index=st.sampled_from([0, 1, 3]))
def test_corners_on_mutated_sample_file_exits_cleanly(mutation_files, data, index):
    root, cfg, checkpoint = mutation_files
    (root / "sample.csv").write_bytes(data)
    argv = ["corners", "--config", cfg, "--checkpoint", checkpoint, "--out", str(root / "out"),
            "--sample-file", str(root / "sample.csv"), "--sample-index", str(index)]
    assert_clean_exit(*run_quietly(argv))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(doc=checkpoint_docs())
def test_eval_of_mutated_checkpoint_exits_cleanly(mutation_files, doc):
    root, cfg, _ = mutation_files
    (root / "bad.json").write_text(json.dumps(doc))
    argv = ["eval", "--config", cfg, "--checkpoint", str(root / "bad.json"), "--out", str(root / "out")]
    assert_clean_exit(*run_quietly(argv))
