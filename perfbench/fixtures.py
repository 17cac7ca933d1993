"""Cap-trained checkpoints that the ``audit`` workload evaluates.

``audit`` must see the same model when a later change touches the trainer,
so a checkpoint is trained once per benchmark seed (``caplab train`` on
presets/blobs_cap.ini, BLAS pinned to one thread) and committed next to its
sha256 in fixtures/SHA256SUMS. Every load checks that digest. A seed with no
committed checkpoint gets one trained into .perfbench/fixtures before timing
starts.

    python3 perfbench/fixtures.py --seeds 0-15     # (re)build the committed set
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

from common import (
    BENCH_DIR,
    BLAS_THREADS,
    PRESETS,
    ROOT,
    WORK,
    CheckoutError,
    child_env,
    import_caplab,
    require_checkout,
    sha256_file,
)

COMMITTED = BENCH_DIR / "fixtures"
RUNTIME = WORK / "fixtures"
SUMS = "SHA256SUMS"


class FixtureError(Exception):
    pass


def fixture_name(seed: int) -> str:
    return f"cap_seed{seed}.json"


def read_sums(directory: Path) -> dict[str, str]:
    sums = {}
    path = directory / SUMS
    if path.is_file():
        for line in path.read_text(encoding="utf-8").splitlines():
            digest, name = line.split()
            sums[name] = digest
    return sums


def locate(seed: int) -> tuple[Path, str] | None:
    """(checkpoint path, recorded sha256) for ``seed``, committed set first."""
    name = fixture_name(seed)
    for directory in (COMMITTED, RUNTIME):
        digest = read_sums(directory).get(name)
        if digest is not None:
            return directory / name, digest
    return None


def verify(path: Path, digest: str) -> None:
    if not path.is_file():
        raise FixtureError(f"fixture {path} is missing")
    actual = sha256_file(path)
    if actual != digest:
        raise FixtureError(f"fixture {path} has sha256 {actual}, recorded {digest}")


def train_fixture(seed: int, directory: Path) -> None:
    """Train the cap preset at ``seed`` and record the checkpoint's digest."""
    caplab = import_caplab()
    from caplab import cli

    directory.mkdir(parents=True, exist_ok=True)
    name = fixture_name(seed)
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["train", "--config", PRESETS["audit"], "--seed", str(seed), "--out", tmp]
            )
        if code != 0:
            raise FixtureError(f"caplab train exited {code} for seed {seed}")
        shutil.move(str(Path(tmp) / "checkpoint.json"), str(directory / name))
    sums = read_sums(directory)
    sums[name] = sha256_file(directory / name)
    by_seed = sorted(sums.items(), key=lambda kv: int(kv[0][len("cap_seed") : -len(".json")]))
    (directory / SUMS).write_text(
        "".join(f"{digest}  {n}\n" for n, digest in by_seed), encoding="utf-8"
    )
    print(f"caplab {caplab.__version__}: {name} sha256 {sums[name]}")


def parse_seeds(spec: str) -> list[int]:
    seeds: list[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 3,7")
    parser.add_argument(
        "--dir", default=str(COMMITTED), help="where to write (default: the committed set)"
    )
    args = parser.parse_args(argv)
    try:
        require_checkout()
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if os.environ.get("OPENBLAS_NUM_THREADS") != BLAS_THREADS:
        # restart with BLAS pinned; numpy is not imported yet
        os.execvpe(sys.executable, [sys.executable, *sys.argv], child_env())
    directory = Path(args.dir)
    if not directory.is_absolute():
        directory = ROOT / directory
    for seed in parse_seeds(args.seeds):
        train_fixture(seed, directory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
