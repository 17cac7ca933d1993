"""What the benchmark harness in perfbench/ uses of the library.

perfbench/ changes only together with the benchmark, so a library change
that drops one of these names, moves an argument or result slot that the
tracer keeps, hides the trainer's per-epoch ``clean_accuracy`` call from the
epoch clock, or changes what an audit repeat reads of an estimate, must fail
here, not in the next ``perfbench/run.py``. The check runs the way the
harness does: in a fresh interpreter at the repository root, with perfbench/
and src/ on sys.path. It reads perfbench/ and its committed fixtures, and
writes only under a temporary directory.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import dataclasses
import sys
import tempfile
from pathlib import Path

import worker
from common import import_caplab

caplab = import_caplab()
import caplab.cli  # as worker.setup does; loads every caplab module

for target in worker.trace_targets():
    getattr(sys.modules[target.module], target.attr)  # as spans.Tracer.install does

rc = worker.load_config(caplab, "presets/blobs_cap.ini", 3)  # assigns rc.seed
assert rc.seed == 3
train_ds, test_ds = caplab.config.build_datasets(rc)
model = caplab.config.build_model(rc, train_ds)
cfg = caplab.config.build_corner_config(rc)
X = test_ds.features[:4]
with_threads = caplab.polytope.mean_diameter(model, X, cfg, threads=1)
assert with_threads == caplab.polytope.mean_diameter(model, X, cfg)

# the argument and result slots that the tracer keeps, as spans.Tracer passes them
N, T, d = cfg.n_particles, cfg.steps, X.shape[1]
args = (model, X, range(len(X)), cfg)
batch = worker._keep_batch(args, caplab.polytope.corner_search_batch(*args))
args = (model, X[0], cfg)
single = worker._keep_single(args, caplab.polytope.find_corners(*args))
for kept, B in ((batch, len(X)), (single, 1)):
    x, budget, particles, history = kept
    assert budget == cfg.budget
    assert particles.shape[-2:] == (N, d) and particles.size == B * N * d
    assert history.shape == (B, T)
    assert (x + particles).shape[-1] == d
worker.convergence([batch, single])

# step_ms on the trainers: the clock marks the clean_accuracy call that the
# loop makes once per epoch through caplab.train's module global
train_module = sys.modules["caplab.train"]
train_cfg = dataclasses.replace(caplab.config.build_train_config(rc), epochs=2)
with worker.EpochClock(train_module) as clock:
    train_module.train(model, train_ds, train_cfg)
assert len(clock.marks) == 2, clock.marks

# one audit repeat on the committed seed-1 fixture: it reads eval.json and
# the estimates' diameter, corners, center and objective history
with tempfile.TemporaryDirectory() as tmp:
    rec = worker.audit_repeat(worker.setup("audit", 1), Path(tmp), False)
assert set(rec["digests"]) == {"eval.json", "mean_diameter", "estimates"}, rec
print("ok")
"""


def test_harness_finds_what_it_uses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    done = subprocess.run(
        [sys.executable, "-c", CHECK], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
