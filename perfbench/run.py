"""caplab benchmark: runs one named workload and prints every metric.

    python3 perfbench/run.py --workload train_cap --seed 1 --seconds 30 --trace 0

Run it from the root of a caplab checkout. Workloads (why each was chosen
is recorded in BENCHMARK.json):

  train_cap  ``caplab train`` on presets/blobs_cap.ini, repeated
  train_at   ``caplab train`` on presets/blobs_at.ini, repeated
  audit      ``caplab eval`` on a committed cap-trained checkpoint, the
             test-set mean diameter, and one ``find_corners`` per test sample

``--seed`` is the global seed of every caplab run, so it makes all inputs.
One worker process (perfbench/worker.py, BLAS pinned to one thread) repeats
the workload for ``--seconds`` and checks every repeat's outputs; each
repeat's output digests must equal the first repeat's.

With ``--trace 0`` the result holds the end-to-end metrics:

  setup_s        median over fresh interpreters of the time until caplab is
                 imported, the config parsed, the datasets built and the
                 model initialised or the checkpoint loaded
  wall_s         median time of one repeat
  step_ms.p50    latency of the workload's repeated step, pooled over
  step_ms.p90      repeats: one training epoch (timed between the
                   ``clean_accuracy`` calls the loop makes once per epoch),
                   or on audit one single-sample ``find_corners``
  samples_per_s  trainers: training samples x epochs / wall_s;
                 audit: test samples / time of eval plus mean diameter
  peak_rss_mb    the worker's peak resident set size

With ``--trace 1`` a separate run alternates untraced and traced repeats
and reports per-layer metrics from spans (perfbench/spans.py): calls, rows
and self time per wrapped caplab function, the tracing overhead, the share
of traced wall time the spans do not cover, and two convergence ratios of
the corner search.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines above it give the environment, the
output digests and each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import fixtures
from common import BENCH_DIR, PRESETS, ROOT, WORK, CheckoutError, child_env, require_checkout

SETUP_PROBES = 5  # measured fresh interpreters, after one unmeasured warm-up
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "worker.py"), *args]


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
    return left


def prepare_fixture(seed: int, deadline: float) -> None:
    if fixtures.locate(seed) is not None:
        return
    print(f"training the audit fixture for seed {seed}", file=sys.stderr)
    cmd = [sys.executable, str(BENCH_DIR / "fixtures.py"), "--seeds", str(seed),
           "--dir", str(fixtures.RUNTIME)]
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=remaining(deadline))
    if proc.returncode != 0:
        raise BenchError(f"fixture training exited {proc.returncode}")


def time_setup(workload: str, seed: int, deadline: float) -> float:
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            worker_cmd("--workload", workload, "--seed", str(seed), "--setup-only"),
            env=child_env(), stdout=subprocess.PIPE, text=True,
        ) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=remaining(deadline))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"set-up probe exited {code}")
        if i > 0:
            times.append(elapsed)
    return statistics.median(times)


def run_worker(args, deadline: float) -> dict:
    result_path = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.unlink(missing_ok=True)
    cmd = worker_cmd(
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_path),
    )
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=remaining(deadline))
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="caplab benchmark")
    parser.add_argument("--workload", choices=sorted(PRESETS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        require_checkout()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        WORK.mkdir(exist_ok=True)
        if args.workload == "audit":
            prepare_fixture(args.seed, deadline)
        setup_s = None if args.trace else time_setup(args.workload, args.seed, deadline)
        result = run_worker(args, deadline)
    except (CheckoutError, BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"], setup_s=setup_s)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: no measurement for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed = result["attempted"], result["failed"]
    print(f"env {json.dumps(result['env'], sort_keys=True)}")
    for name, digest in sorted(result["digests"].items()):
        print(f"digest {name} {digest}")
    for err in result["errors"]:
        print(f"failed {err}")
    if "trace_file" in result:
        print(f"spans written to {result['trace_file']}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric ops_failed_frac {failed / attempted!r} ({failed}/{attempted} repeats)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
