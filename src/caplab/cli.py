"""Command-line surface: train, eval, corners, compare.

Every command reads a run-config file, derives all randomness from its
single global seed, and writes machine-readable outputs into --out.
Reruns with identical inputs produce byte-identical files; wall-clock and
timestamps go only to the run.log sidecar.

Exit codes: 0 success, 2 user/config error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
import time
from pathlib import Path

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
from .errors import CapLabError, ConfigError, NumericsError
from .nn import MlpModel, load_model, save_model
from .polytope import find_corners, mean_diameter
from .svg import corner_scatter_svg
from .train import train, report_to_dict, write_history_csv

THREADS_ENV = "CAP_LAB_THREADS"


def _dump_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _log(out_dir: Path, message: str) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(out_dir / "run.log", "a", encoding="utf-8") as f:
        f.write(f"{stamp} {message}\n")


def _resolve_out(args, rc: RunConfig) -> Path:
    out = args.out or rc.out
    if not out:
        raise ConfigError("no output directory: pass --out or set run.out in the config")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_threads(args) -> None:
    """Validate --threads / CAP_LAB_THREADS; the value has no effect."""
    raw = args.threads if args.threads is not None else os.environ.get(THREADS_ENV, "0")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"{THREADS_ENV}: expected an integer, got {raw!r}") from None
    if threads < 0:
        raise ConfigError(f"threads: must be >= 0, got {threads}")


def _load_config(args) -> RunConfig:
    rc = load_run_config(args.config)
    if getattr(args, "seed", None) is not None:
        rc.seed = int(args.seed)
        rc.values["run"]["seed"] = int(args.seed)
    return rc


def _dataset_summary(train_ds: Dataset, test_ds: Dataset) -> dict:
    return {
        "n_train": train_ds.n_samples,
        "n_test": test_ds.n_samples,
        "dim": train_ds.dim,
        "classes": train_ds.class_count,
    }


def _run_training(rc: RunConfig, out_dir: Path) -> tuple[MlpModel, Dataset, Dataset]:
    train_ds, test_ds = build_datasets(rc)
    model = build_model(rc, train_ds)
    cfg = build_train_config(rc)
    _log(out_dir, f"train start: config={rc.path} seed={rc.seed} kind={cfg.baseline_kind}")
    t0 = time.perf_counter()
    model, report = train(model, train_ds, cfg)
    _log(out_dir, f"train done: {time.perf_counter() - t0:.2f}s over {cfg.epochs} epochs")
    save_model(model, str(out_dir / "checkpoint.json"))
    report.checkpoint = "checkpoint.json"
    doc = report_to_dict(report)
    doc["dataset"] = _dataset_summary(train_ds, test_ds)
    _dump_json(doc, out_dir / "report.json")
    write_history_csv(report, str(out_dir / "history.csv"))
    return model, train_ds, test_ds


def cmd_train(args) -> int:
    rc = _load_config(args)
    out_dir = _resolve_out(args, rc)
    _run_training(rc, out_dir)
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
                "steps": cfg.steps if cfg.kind == "pgd" else 1,
                "accuracy": robust_accuracy(model, dataset, cfg),
                "n_samples": dataset.n_samples,
                "seed": cfg.seed,
            }
        )
    return results


def cmd_eval(args) -> int:
    rc = _load_config(args)
    out_dir = _resolve_out(args, rc)
    ev = rc.values["eval"]
    if args.attack:
        ev["attacks"] = ",".join(args.attack)
    if args.epsilon is not None:
        ev["epsilon"] = args.epsilon
    if args.alpha is not None:
        ev["alpha"] = args.alpha
    if args.no_random_start:
        ev["random_start"] = False
    suite = build_eval_suite(rc)
    model = load_model(args.checkpoint)
    _, test_ds = build_datasets(rc)
    _log(out_dir, f"eval start: checkpoint={args.checkpoint} n={test_ds.n_samples}")
    results = _evaluate_suite(model, test_ds, suite)
    doc = {
        "results": results,
        # slots for externally computed attacks so reports can be merged
        "external": {"cw_linf": None, "autoattack": None},
        "seed": rc.seed,
    }
    _dump_json(doc, out_dir / "eval.json")
    for r in results:
        print(f"{r['attack']:>8}: accuracy {r['accuracy']:.4f} (n={r['n_samples']})")
    _log(out_dir, "eval done")
    return 0


def cmd_corners(args) -> int:
    rc = _load_config(args)
    out_dir = _resolve_out(args, rc)
    model = load_model(args.checkpoint)

    if args.sample_file:
        ds = load_csv(args.sample_file)
        features = ds.features
    else:
        train_ds, test_ds = build_datasets(rc)
        features = (test_ds if args.split == "test" else train_ds).features
    if not 0 <= args.sample_index < features.shape[0]:
        raise ConfigError(
            f"sample index {args.sample_index} outside dataset of {features.shape[0]} samples"
        )
    x = features[args.sample_index]

    cfg = build_corner_config(rc)
    overrides = {}
    if args.particles is not None:
        overrides["n_particles"] = args.particles
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.epsilon is not None:
        overrides["budget"] = dataclasses.replace(cfg.budget, epsilon=args.epsilon)
    overrides["seed"] = args.corner_seed if args.corner_seed is not None else rc.seed
    cfg = dataclasses.replace(cfg, **overrides)

    _log(out_dir, f"corners start: sample={args.sample_index} N={cfg.n_particles} T={cfg.steps}")
    _, est = find_corners(model, x, cfg)
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
        "diameter": est.diameter,
        "objective_history": est.objective_history.tolist(),
    }
    _dump_json(doc, out_dir / "estimate.json")
    c = est.center.shape[0]
    if c in (2, 3):
        note = "projected to the first two logit axes" if c == 3 else ""
        (out_dir / "corners.svg").write_text(
            corner_scatter_svg(est.corners, est.center, note), encoding="utf-8"
        )
    else:
        print(f"warning: {c} logit axes, skipping SVG (only 2-D/3-D are plotted)", file=sys.stderr)
    print(f"diameter {est.diameter!r} over {cfg.n_particles} corners -> {out_dir}")
    _log(out_dir, "corners done")
    return 0


def _require_shared(rc_a: RunConfig, rc_b: RunConfig) -> None:
    if rc_a.seed != rc_b.seed:
        raise ConfigError("compare: the two configs must share run.seed")
    for section in ("data", "eval", "polytope"):
        if rc_a.section(section) != rc_b.section(section):
            raise ConfigError(f"compare: the two configs must share the [{section}] section")


def cmd_compare(args) -> int:
    rc_a = load_run_config(args.config_a)
    rc_b = load_run_config(args.config_b)
    if args.seed is not None:
        for rc in (rc_a, rc_b):
            rc.seed = int(args.seed)
            rc.values["run"]["seed"] = int(args.seed)
    _require_shared(rc_a, rc_b)
    out_dir = Path(args.out) if args.out else None
    if out_dir is None:
        raise ConfigError("compare: --out is required")
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_threads(args)

    rows = []
    for tag, rc in (("a", rc_a), ("b", rc_b)):
        sub = out_dir / tag
        sub.mkdir(exist_ok=True)
        try:
            model, _, test_ds = _run_training(rc, sub)
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

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="run config file (INI)")
        p.add_argument("--out", help="output directory (overrides run.out)")
        p.add_argument("--seed", type=int, help="override the config's global seed")
        p.add_argument(
            "--threads",
            type=int,
            help=f"accepted for compatibility (env {THREADS_ENV}); has no effect",
        )

    p_train = sub.add_parser("train", help="train a model per the config")
    common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="clean + robust accuracy of a checkpoint")
    common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument(
        "--attack",
        action="append",
        default=[],
        help="attack token (fgsm or pgd-<steps>); repeatable; default: config [eval] suite",
    )
    p_eval.add_argument("--epsilon", type=float, help="override [eval] epsilon")
    p_eval.add_argument("--alpha", type=float, help="override [eval] alpha (pgd step size)")
    p_eval.add_argument(
        "--no-random-start", action="store_true", help="override [eval] random_start to false"
    )
    p_eval.set_defaults(fn=cmd_eval)

    p_corners = sub.add_parser("corners", help="estimate one sample's reachable-output corners")
    common(p_corners)
    p_corners.add_argument("--checkpoint", required=True)
    p_corners.add_argument("--sample-index", type=int, default=0)
    p_corners.add_argument("--sample-file", help="headerless CSV with feature rows + label column")
    p_corners.add_argument("--split", choices=("train", "test"), default="test")
    p_corners.add_argument("--particles", type=int)
    p_corners.add_argument("--steps", type=int)
    p_corners.add_argument("--eta", type=float)
    p_corners.add_argument("--epsilon", type=float)
    p_corners.add_argument("--corner-seed", type=int)
    p_corners.set_defaults(fn=cmd_corners)

    p_cmp = sub.add_parser("compare", help="train two configs and tabulate their metrics")
    p_cmp.add_argument("--config-a", required=True)
    p_cmp.add_argument("--config-b", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--seed", type=int, help="override both configs' global seed")
    p_cmp.add_argument("--threads", type=int, help="accepted for compatibility; has no effect")
    p_cmp.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (CapLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
