"""The benchmark's worker process: runs one workload's repeats and measures them.

    python3 perfbench/worker.py --workload W --seed S --seconds N --trace 0|1 --result PATH
    python3 perfbench/worker.py --workload W --seed S --setup-only

run.py starts it with BLAS pinned. ``--setup-only`` does the set-up that
``setup_s`` times (import caplab, parse the config, build the datasets,
initialise the model or load the checkpoint), prints ``ready`` and exits.

Otherwise the worker repeats the workload until ``--seconds`` are used,
checks every repeat's outputs, and writes every metric named in
BENCHMARK.json for the mode (end-to-end when untraced, per-layer when
traced) to ``--result``, except ``setup_s``, which run.py adds.

A repeat is one operation for ``attempted``/``failed``. It fails when it
raises, when a CLI call exits non-zero, when an output check fails, or when
its output digests differ from the first repeat's.
"""

from __future__ import annotations

import os
import sys

# Read before numpy can be imported: this is the pin OpenBLAS will see.
BLAS_PIN = os.environ.get("OPENBLAS_NUM_THREADS")
NUMPY_PRELOADED = "numpy" in sys.modules

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import platform
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from common import BLAS_THREADS, PRESETS, ROOT, WORK, import_caplab, sha256_bytes, sha256_file

TRAINER_OUTPUTS = ("checkpoint.json", "history.csv", "report.json")


class CheckFailed(Exception):
    """An output failed a correctness check."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


# ---------------------------------------------------------------- set-up


@dataclasses.dataclass
class Setup:
    workload: str
    seed: int
    preset: str
    caplab: object
    rc: object
    train_ds: object
    fixture: Path | None = None
    fixture_digest: str | None = None


def load_config(caplab, preset: str, seed: int):
    """The preset with its global seed replaced, as ``--seed`` does."""
    rc = caplab.config.load_run_config(preset)
    rc.seed = seed
    rc.values["run"]["seed"] = seed
    return rc


def setup(workload: str, seed: int) -> Setup:
    caplab = import_caplab()
    import caplab.cli  # noqa: F401  (the CLI is part of every workload)

    preset = PRESETS[workload]
    rc = load_config(caplab, preset, seed)
    train_ds, _ = caplab.config.build_datasets(rc)
    fixture = digest = None
    if workload == "audit":
        import fixtures

        found = fixtures.locate(seed)
        if found is None:
            raise fixtures.FixtureError(f"no audit fixture for seed {seed}")
        fixture, digest = found
        fixtures.verify(fixture, digest)
        caplab.nn.load_model(str(fixture))
    else:
        caplab.config.build_model(rc, train_ds)
    return Setup(workload, seed, preset, caplab, rc, train_ds, fixture, digest)


# ---------------------------------------------------------------- epoch clock


class EpochClock:
    """Marks the return of each ``clean_accuracy`` call the training loop
    makes once per epoch; the gaps between marks are epoch times."""

    def __init__(self, train_module):
        self.module = train_module
        self.marks: list[float] = []

    def __enter__(self):
        original = self.original = self.module.clean_accuracy
        marks = self.marks

        def clean_accuracy(*args, **kwargs):
            result = original(*args, **kwargs)
            marks.append(time.perf_counter())
            return result

        self.module.clean_accuracy = clean_accuracy
        return self

    def __exit__(self, *exc):
        self.module.clean_accuracy = self.original

    def epoch_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.marks, self.marks[1:])]


# ---------------------------------------------------------------- repeats


def run_cli(caplab, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = caplab.cli.main(argv)
    check(code == 0, f"caplab {argv[0]} exited {code}")


def check_trainer_outputs(out: Path, epochs: int) -> None:
    with open(out / "history.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    check(len(rows) == epochs, f"history.csv has {len(rows)} epochs, expected {epochs}")
    for r in rows:
        acc, ce, reg = float(r["clean_acc"]), float(r["ce_term"]), float(r["reg_term"])
        check(0.0 <= acc <= 1.0, f"epoch {r['epoch']}: accuracy {acc} outside [0, 1]")
        check(finite(ce) and finite(reg), f"epoch {r['epoch']}: non-finite loss")
        if r["mean_diameter"]:
            d = float(r["mean_diameter"])
            check(finite(d) and d >= 0.0, f"epoch {r['epoch']}: diameter {d}")
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    check(len(report["records"]) == epochs, "report.json: wrong number of records")
    ckpt = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    for layer in ckpt["layers"]:
        check(all(map(finite, layer["weights"] + layer["bias"])), "checkpoint: non-finite parameter")


def train_repeat(s: Setup, out: Path, traced: bool) -> dict:
    """``caplab train``. The epoch clock stays off while the tracer, which
    also wraps ``clean_accuracy``, is installed."""
    caplab = s.caplab
    argv = ["train", "--config", s.preset, "--seed", str(s.seed), "--out", str(out)]
    # the package attribute ``caplab.train`` is the function, not the module
    train_module = sys.modules["caplab.train"]
    with contextlib.nullcontext() if traced else EpochClock(train_module) as epoch_clock:
        t0 = time.perf_counter()
        run_cli(caplab, argv)
        wall = time.perf_counter() - t0
    epochs = s.rc.section("train")["epochs"]
    check_trainer_outputs(out, epochs)
    return {
        "wall_s": wall,
        "steps_ms": epoch_clock.epoch_ms() if epoch_clock else [],
        "samples_per_s": epochs * s.train_ds.n_samples / wall,
        "digests": {name: sha256_file(out / name) for name in TRAINER_OUTPUTS},
    }


def audit_repeat(s: Setup, out: Path, traced: bool) -> dict:
    """``caplab eval`` on the fixture, the test-set mean diameter as
    ``caplab compare`` computes it, then one ``find_corners`` per test
    sample, one sample at a time, as ``caplab corners`` does."""
    import fixtures

    caplab = s.caplab
    fixtures.verify(s.fixture, s.fixture_digest)
    t0 = time.perf_counter()
    run_cli(
        caplab,
        ["eval", "--config", s.preset, "--checkpoint", str(s.fixture), "--seed", str(s.seed),
         "--out", str(out)],
    )
    model = caplab.nn.load_model(str(s.fixture))
    rc = load_config(caplab, s.preset, s.seed)
    _, test_ds = caplab.config.build_datasets(rc)
    cfg = caplab.config.build_corner_config(rc)
    diam = caplab.polytope.mean_diameter(model, test_ds.features, cfg, threads=1)
    t1 = time.perf_counter()
    latencies, estimates = [], []
    for x in test_ds.features:
        t = time.perf_counter()
        _, est = caplab.polytope.find_corners(model, x, cfg)
        latencies.append((time.perf_counter() - t) * 1e3)
        estimates.append(est)
    wall = time.perf_counter() - t0

    eval_doc = json.loads((out / "eval.json").read_text(encoding="utf-8"))
    for r in eval_doc["results"]:
        check(0.0 <= r["accuracy"] <= 1.0, f"{r['attack']}: accuracy {r['accuracy']} outside [0, 1]")
        check(r["n_samples"] == test_ds.n_samples, f"{r['attack']}: wrong sample count")
    check(finite(diam) and diam >= 0.0, f"mean_diameter {diam}")
    per_sample = []
    for i, est in enumerate(estimates):
        check(finite(est.diameter) and est.diameter >= 0.0, f"sample {i}: diameter {est.diameter}")
        check(all(map(finite, est.objective_history.tolist())), f"sample {i}: non-finite objective")
        per_sample += [est.corners.tobytes(), est.center.tobytes(), est.objective_history.tobytes()]
    return {
        "wall_s": wall,
        "steps_ms": latencies,
        "samples_per_s": test_ds.n_samples / (t1 - t0),
        "digests": {
            "eval.json": sha256_file(out / "eval.json"),
            "mean_diameter": sha256_bytes(repr(diam).encode()),
            "estimates": sha256_bytes(b"".join(per_sample)),
        },
    }


# ---------------------------------------------------------------- tracing


def _keep_batch(args, result):
    # corner_search_batch(model, X, seeds, cfg) -> (P, L, centers, history, trace)
    return args[1][:, None, :], args[3].budget, result[0], result[3]


def _keep_single(args, result):
    # find_corners(model, x, cfg) -> (ParticleSet, PolytopeEstimate)
    return args[1], args[2].budget, result[0].particles, result[1].objective_history[None, :]


def trace_targets():
    from spans import Target

    return [
        Target("caplab.cli", "main"),
        Target("caplab.config", "load_run_config"),
        Target("caplab.config", "build_datasets"),
        Target("caplab.nn", "forward", rows_arg=1),
        Target("caplab.nn", "grad_input"),
        Target("caplab.nn", "grad_params"),
        Target("caplab.nn", "softmax"),
        Target("caplab.nn", "load_model"),
        Target("caplab.nn", "save_model"),
        Target("caplab.polytope", "corner_search_batch", rows_arg=1, keep=_keep_batch),
        Target("caplab.polytope", "find_corners", keep=_keep_single),
        Target("caplab.polytope", "ascend_step"),
        Target("caplab.polytope", "init_particles"),
        Target("caplab.polytope", "project"),
        Target("caplab.polytope", "max_pairwise_distance"),
        Target("caplab.seeding", "derive_seed"),
        Target("caplab.attacks", "fgsm"),
        Target("caplab.attacks", "pgd", rows_arg=1),
        Target("caplab.attacks", "clean_accuracy"),
        Target("caplab.train", "train"),
        Target("caplab.train", "sgd_step"),
    ]


def convergence(kept: list) -> tuple[float, float]:
    """(fraction of particle coordinates on a face of the feasible box,
    median relative objective gain of the last search step)."""
    pinned = total = 0
    gains = []
    for x, budget, particles, history in kept:
        lower, upper = -budget.epsilon, budget.epsilon
        if budget.input_clip is not None:
            lower = np.maximum(lower, budget.input_clip[0] - x)
            upper = np.minimum(upper, budget.input_clip[1] - x)
        pinned += int(np.count_nonzero((particles <= lower) | (particles >= upper)))
        total += particles.size
        if history.shape[1] >= 2:
            prev, last = history[:, -2], history[:, -1]
            ok = prev > 0
            gains.append((last[ok] - prev[ok]) / prev[ok])
    gain = float(np.median(np.concatenate(gains))) if gains else 0.0
    return (pinned / total if total else 0.0), gain


# ---------------------------------------------------------------- driver


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_PIN),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(s: Setup, seconds: float, trace: bool) -> dict:
    run = train_repeat if s.workload.startswith("train") else audit_repeat
    out = WORK / f"out-{os.getpid()}"
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer(trace_targets())
    repeats, errors = [], []
    reference = None
    begin = time.perf_counter()
    while True:
        traced = trace and len(repeats) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        rec = {"traced": traced, "ok": False}
        first_span = len(tracer) if traced else 0
        try:
            if traced:
                tracer.install()
            try:
                rec.update(run(s, out, traced))
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                rec["spans"] = tracer.summarize(first_span, len(tracer))
            if reference is None:
                reference = rec["digests"]
            check(rec["digests"] == reference, f"digests differ from the first repeat: {rec['digests']}")
            rec["ok"] = True
        except Exception as exc:  # a failed repeat is counted, not fatal
            errors.append(f"repeat {len(repeats)}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        repeats.append(rec)
        elapsed = time.perf_counter() - begin
        if len(repeats) >= 2 and elapsed + 0.5 * elapsed / len(repeats) > seconds:
            break
    shutil.rmtree(out, ignore_errors=True)

    ok = [r for r in repeats if r["ok"]]
    result = {
        "attempted": len(repeats),
        "failed": len(repeats) - len(ok),
        "errors": errors,
        "digests": reference or {},
        "repeats": [{k: r.get(k) for k in ("traced", "ok", "wall_s")} for r in repeats],
    }
    if trace:
        trace_file = WORK / f"trace-{s.workload}-seed{s.seed}.npz"
        tracer.save(trace_file)
        result["trace_file"] = str(trace_file.relative_to(ROOT))
        result["metrics"] = layer_metrics(ok, tracer)
    else:
        result["metrics"] = end_to_end_metrics(ok)
    return result


def end_to_end_metrics(ok: list[dict]) -> dict:
    steps = [v for r in ok for v in r["steps_ms"]]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "step_ms.p50": float(np.percentile(steps, 50)),
        "step_ms.p90": float(np.percentile(steps, 90)),
        "samples_per_s": statistics.median(r["samples_per_s"] for r in ok),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def layer_metrics(ok: list[dict], tracer) -> dict:
    untraced = [r["wall_s"] for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    out = {
        "trace.overhead_s": statistics.median(r["wall_s"] for r in traced) - statistics.median(untraced),
        "trace.uncovered_frac": statistics.median(
            (r["wall_s"] - r["spans"]["covered_s"]) / r["wall_s"] for r in traced
        ),
        "trace.spans": statistics.median_low(r["spans"]["spans"] for r in traced),
    }
    kept = tracer.kept["polytope.corner_search_batch"] + tracer.kept["polytope.find_corners"]
    out["polytope.face_pinned_frac"], out["polytope.last_step_gain"] = convergence(kept)
    for name in tracer.names:
        for field, pick in (("calls", statistics.median_low), ("rows", statistics.median_low),
                            ("self_s", statistics.median)):
            out[f"{name}.{field}"] = pick(r["spans"]["per_name"][name][field] for r in traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="caplab benchmark worker")
    parser.add_argument("--workload", choices=sorted(PRESETS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if BLAS_PIN != BLAS_THREADS or NUMPY_PRELOADED:
        print(f"error: OPENBLAS_NUM_THREADS={BLAS_PIN!r} before numpy import; need {BLAS_THREADS}",
              file=sys.stderr)
        return 2
    s = setup(args.workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    result = measure(s, args.seconds, bool(args.trace))
    result["env"] = environment(args.workload, args.seed)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
