"""Command-line surface: train, eval, corners, compare.

Every command reads a run-config file, derives all randomness from its
single global seed, and writes machine-readable outputs into --out.
Reruns with identical inputs produce byte-identical files; wall-clock and
timestamps go only to the run.log sidecar.

Exit codes: 0 success, 2 user/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import sys
import time
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, clean_accuracy, robust_accuracy
from .config import (
    RunConfig,
    build_corner_config,
    build_datasets,
    build_eval_suite,
    build_model,
    build_train_config,
    load_run_config,
)
from .data import Dataset, load_csv
from .errors import _INDEX, CapLabError, ConfigError, NumericsError
from .nn import MlpModel, load_model, save_model
from .polytope import find_corners, mean_diameter
from .svg import corner_scatter_svg
from .train import EpochRecord, _check_fit, train


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _log(out_dir: Path, message: str) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(out_dir / "run.log", "a", encoding="utf-8") as f:
        f.write(f"{stamp} {message}\n")


def _out_dir(rc: RunConfig) -> Path:
    """The output directory, not yet created: commands create it only once
    their inputs have loaded, so a bad input leaves no directory behind."""
    out = rc.section("run")["out"]
    if not out:
        raise ConfigError("no output directory: pass --out or set run.out in the config")
    return Path(out)


def _load_config(args, path: str) -> RunConfig:
    """The config at ``path`` with every flag whose dest is ``section.key``
    merged over that key; a repeated flag's values are comma-joined."""
    overrides: dict[str, dict[str, object]] = {}
    for dest, value in vars(args).items():
        if "." in dest:
            section, key = dest.split(".")
            overrides.setdefault(section, {})[key] = (
                ",".join(value) if isinstance(value, list) else value
            )
    return load_run_config(path, overrides)


def _write_history_csv(records: list[EpochRecord], path: Path) -> None:
    """Per-epoch history as CSV, one column per ``EpochRecord`` field in
    field order. Floats use shortest round-trip repr; None is an empty cell."""
    names = [f.name for f in dataclasses.fields(EpochRecord)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(names)
        for r in records:
            values = (getattr(r, name) for name in names)
            w.writerow(repr(float(v)) if isinstance(v, float) else v for v in values)


def _dataset_summary(train_ds: Dataset, test_ds: Dataset) -> dict:
    return {
        "n_train": train_ds.n_samples,
        "n_test": test_ds.n_samples,
        "dim": train_ds.dim,
        "classes": train_ds.class_count,
    }


def _run_training(rc: RunConfig, out_dir: Path, train_ds: Dataset, test_ds: Dataset) -> MlpModel:
    model = build_model(rc, train_ds)
    cfg = build_train_config(rc)
    out_dir.mkdir(parents=True, exist_ok=True)
    _log(out_dir, f"train start: config={rc.path} seed={rc.seed} kind={cfg.baseline_kind}")
    t0 = time.perf_counter()
    records = train(model, train_ds, cfg)
    _log(out_dir, f"train done: {time.perf_counter() - t0:.2f}s over {cfg.epochs} epochs")
    save_model(model, str(out_dir / "checkpoint.json"))
    doc = {
        "config": dataclasses.asdict(cfg),
        "records": [dataclasses.asdict(r) for r in records],
        "checkpoint": "checkpoint.json",
        "dataset": _dataset_summary(train_ds, test_ds),
    }
    _dump_json(doc, out_dir / "report.json")
    _write_history_csv(records, out_dir / "history.csv")
    return model


def cmd_train(args) -> int:
    rc = _load_config(args, args.config)
    out_dir = _out_dir(rc)
    _run_training(rc, out_dir, *build_datasets(rc))
    print(f"wrote checkpoint.json, report.json, history.csv to {out_dir}")
    return 0


def _evaluate_suite(
    model: MlpModel, dataset: Dataset, suite: list[tuple[str, AttackConfig]]
) -> list[dict]:
    results = [
        {
            "attack": "clean",
            "epsilon": 0.0,
            "steps": 0,
            "accuracy": clean_accuracy(model, dataset),
            "n_samples": dataset.n_samples,
            "seed": 0,
        }
    ]
    for name, cfg in suite:
        results.append(
            {
                "attack": name,
                "epsilon": cfg.epsilon,
                "steps": cfg.steps,
                "accuracy": robust_accuracy(model, dataset, cfg),
                "n_samples": dataset.n_samples,
                "seed": cfg.seed,
            }
        )
    return results


def cmd_eval(args) -> int:
    rc = _load_config(args, args.config)
    out_dir = _out_dir(rc)
    suite = build_eval_suite(rc)
    model = load_model(args.checkpoint)
    _, test_ds = build_datasets(rc)
    _check_fit(model, test_ds, f"--checkpoint {args.checkpoint}")
    out_dir.mkdir(parents=True, exist_ok=True)
    _log(out_dir, f"eval start: checkpoint={args.checkpoint} n={test_ds.n_samples}")
    results = _evaluate_suite(model, test_ds, suite)
    _dump_json({"results": results, "seed": rc.seed}, out_dir / "eval.json")
    for r in results:
        print(f"{r['attack']:>8}: accuracy {r['accuracy']:.4f} (n={r['n_samples']})")
    _log(out_dir, "eval done")
    return 0


def cmd_corners(args) -> int:
    rc = _load_config(args, args.config)
    out_dir = _out_dir(rc)
    model = load_model(args.checkpoint)

    if args.sample_file:
        features = load_csv(args.sample_file).features
    else:
        train_ds, test_ds = build_datasets(rc)
        features = (test_ds if args.split == "test" else train_ds).features
    if features.shape[1] != model.input_dim:
        raise ConfigError(
            f"--checkpoint {args.checkpoint}: model takes {model.input_dim} features, "
            f"{args.sample_file or rc.path} has {features.shape[1]}"
        )
    if not 0 <= args.sample_index < features.shape[0]:
        raise ConfigError(
            f"sample index {args.sample_index} outside dataset of {features.shape[0]} samples"
        )
    x = features[args.sample_index]

    cfg = build_corner_config(rc)
    if args.corner_seed is not None:
        _INDEX.check(args.corner_seed, "--corner-seed:")
        cfg = dataclasses.replace(cfg, seed=args.corner_seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    _log(out_dir, f"corners start: sample={args.sample_index} N={cfg.n_particles} T={cfg.steps}")
    _, est = find_corners(model, x, cfg)
    diameter = est.diameter
    doc = {
        "sample_index": args.sample_index,
        "search": {
            "n_particles": cfg.n_particles,
            "steps": cfg.steps,
            "eta": cfg.eta,
            "epsilon": cfg.budget.epsilon,
            "input_clip": cfg.budget.input_clip,
            "seed": cfg.seed,
        },
        "corners": est.corners.tolist(),
        "center": est.center.tolist(),
        "distances": est.distances.tolist(),
        "diameter": diameter,
        "objective_history": est.objective_history.tolist(),
    }
    _dump_json(doc, out_dir / "estimate.json")
    if diameter == 0.0 and cfg.budget.epsilon > 0 and cfg.n_particles > 1:
        print(
            f"warning: all {cfg.n_particles} corners coincide; epsilon {cfg.budget.epsilon!r} "
            "may be below the float resolution of this sample's outputs",
            file=sys.stderr,
        )
    c = est.center.shape[0]
    if c not in (2, 3):
        print(f"warning: {c} logit axes, skipping SVG (only 2-D/3-D are plotted)", file=sys.stderr)
    else:
        note = "projected to the first two logit axes" if c == 3 else ""
        svg = corner_scatter_svg(est.corners, est.center, note)
        if svg is None:
            print("warning: corner logits too large to plot, skipping SVG", file=sys.stderr)
        else:
            (out_dir / "corners.svg").write_text(svg, encoding="utf-8")
    print(f"diameter {diameter!r} over {cfg.n_particles} corners -> {out_dir}")
    _log(out_dir, "corners done")
    return 0


def _require_shared(rc_a: RunConfig, rc_b: RunConfig) -> None:
    if rc_a.seed != rc_b.seed:
        raise ConfigError("compare: the two configs must share run.seed")
    for section in ("data", "eval", "polytope"):
        if rc_a.section(section) != rc_b.section(section):
            raise ConfigError(f"compare: the two configs must share the [{section}] section")


def cmd_compare(args) -> int:
    rc_a = _load_config(args, args.config_a)
    rc_b = _load_config(args, args.config_b)
    _require_shared(rc_a, rc_b)
    # the shared [data] section and seed give both runs the same datasets
    train_ds, test_ds = build_datasets(rc_a)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for tag, rc in (("a", rc_a), ("b", rc_b)):
        try:
            model = _run_training(rc, out_dir / tag, train_ds, test_ds)
        except Exception as exc:
            _dump_json(
                {"status": "incomplete", "failed": f"{tag}: {rc.path}", "error": str(exc)},
                out_dir / "compare.json",
            )
            raise
        suite = build_eval_suite(rc)
        results = _evaluate_suite(model, test_ds, suite)
        diam = mean_diameter(model, test_ds.features, build_corner_config(rc))
        rows.append(
            {
                "run": tag,
                "config": rc.path,
                "trainer": rc.section("train")["kind"],
                "accuracies": {r["attack"]: r["accuracy"] for r in results},
                "mean_diameter": diam,
            }
        )

    attack_names = list(rows[0]["accuracies"].keys())
    lines = [
        "| run | trainer | " + " | ".join(attack_names) + " | mean diameter |",
        "|" + "---|" * (len(attack_names) + 3),
    ]
    for row in rows:
        cells = [f"{row['accuracies'][name]:.4f}" for name in attack_names]
        lines.append(
            f"| {row['run']}: {Path(row['config']).name} | {row['trainer']} | "
            + " | ".join(cells)
            + f" | {row['mean_diameter']:.6f} |"
        )
    table = "\n".join(lines) + "\n"
    (out_dir / "compare.md").write_text(table, encoding="utf-8")
    _dump_json({"status": "complete", "rows": rows}, out_dir / "compare.json")
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caplab",
        description="Polytope-confinement robustness lab: train, evaluate, inspect, compare.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag whose dest is "section.key" overrides that config key; it takes
    # no type=, so the key's own rule parses its text
    def common(p):
        p.add_argument("--config", required=True, help="run config file (INI)")
        p.add_argument("--out", dest="run.out", help="output directory (overrides run.out)")
        p.add_argument("--seed", dest="run.seed", help="override run.seed")

    p_train = sub.add_parser("train", help="train a model per the config")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="clean + robust accuracy of a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--attack",
        dest="eval.attacks",
        action="append",
        help="attack token (fgsm or pgd-<steps>); repeatable; overrides eval.attacks",
    )
    p_eval.add_argument("--epsilon", dest="eval.epsilon", help="override eval.epsilon")
    p_eval.add_argument("--alpha", dest="eval.alpha", help="override eval.alpha (pgd step size)")
    p_eval.add_argument(
        "--no-random-start",
        dest="eval.random_start",
        action="store_const",
        const=False,
        help="override eval.random_start to false",
    )
    p_eval.set_defaults(fn=cmd_eval)

    p_corners = sub.add_parser("corners", help="estimate one sample's reachable-output corners")
    common(p_corners)
    p_corners.add_argument("--checkpoint", required=True)
    p_corners.add_argument("--sample-index", type=int, default=0)
    p_corners.add_argument("--sample-file", help="headerless CSV with feature rows + label column")
    p_corners.add_argument("--split", choices=("train", "test"), default="test")
    p_corners.add_argument("--particles", dest="polytope.particles")
    p_corners.add_argument("--steps", dest="polytope.steps")
    p_corners.add_argument("--eta", dest="polytope.eta")
    p_corners.add_argument("--epsilon", dest="polytope.epsilon")
    p_corners.add_argument("--corner-seed", type=int, help="search seed (default: run.seed)")
    p_corners.set_defaults(fn=cmd_corners)

    p_cmp = sub.add_parser("compare", help="train two configs and tabulate their metrics")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", dest="run.seed", help="override both configs' run.seed")
    p_cmp.set_defaults(fn=cmd_compare)

    return parser


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Ask glibc's allocator to keep freed heap memory in the process.

    The corner search allocates and frees the same few-hundred-kilobyte
    temporaries on every step. By default glibc serves them with mmap or
    trims them off the heap top once freed, so each step faults its pages
    back in from the kernel. Serving blocks below 4 MiB from the heap and
    trimming only past 64 MiB of free top memory removes those faults.
    Both values are set: fixing only the trim threshold turns off glibc's
    dynamic mmap threshold. Where there is no glibc mallopt this does
    nothing; no output depends on it.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _keep_freed_memory()
    try:
        # a float overflow or invalid operation (inf - inf, 0 * inf) fails
        # the run here instead of warning and writing non-finite outputs
        with np.errstate(over="raise", invalid="raise"):
            return args.fn(args)
    except (NumericsError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (CapLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
