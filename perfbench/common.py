"""Paths, environment and digests shared by the benchmark scripts.

Every script runs from the root of a caplab checkout and imports caplab from
that checkout's ``src/``, never from an installed copy.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"

PRESETS = {
    "train_cap": "presets/blobs_cap.ini",
    "train_at": "presets/blobs_at.ini",
    "audit": "presets/blobs_cap.ini",
}

# One BLAS thread: OpenBLAS reads these once, when numpy loads it, so they
# must be in the environment of every process before numpy is imported.
BLAS_THREADS = "1"
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(Exception):
    """The current directory is not a caplab checkout the benchmark can run."""


def require_checkout() -> None:
    needed = dict.fromkeys(("src/caplab/__init__.py", *PRESETS.values()))
    missing = [p for p in needed if not (ROOT / p).is_file()]
    if missing:
        raise CheckoutError(f"not a caplab checkout (missing {', '.join(missing)}) in {ROOT}")


def child_env() -> dict[str, str]:
    """Environment for every benchmark child process: pinned BLAS, caplab
    from this checkout's sources."""
    env = dict(os.environ)
    for var in BLAS_ENV_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CAP_LAB_THREADS", None)
    return env


def import_caplab():
    """Import caplab and make sure it is this checkout's copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import caplab

    where = Path(caplab.__file__).resolve()
    if ROOT.resolve() / "src" not in where.parents:
        raise CheckoutError(f"caplab was imported from {where}, not from {ROOT / 'src'}")
    return caplab


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())
