"""Desk-scale datasets: seeded synthetic generators and a small CSV loader.

Generators are pure functions of (seed, params). Features are always float64
matrices [n x d]; labels are integer class indices.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import _COUNT, _FRACTION, _NONNEGATIVE, _POSITIVE, CsvParseError

SCALINGS = ("none", "minmax_to_unit")


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 class indices in [0, class_count)
    class_count: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError(f"features must be a nonempty (n, d) matrix, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.isfinite(self.features).all():
            raise ValueError("features contain non-finite values")
        if self.class_count < 1 or self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValueError("labels must lie in [0, class_count)")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _check_centers(centers: Sequence[Sequence[float]], field: str = "") -> np.ndarray:
    """The centers rule: two or more vectors, all of one dimension >= 1, with
    finite entries. Returns them as a float64 matrix."""
    name = f"{field} " if field else ""
    try:
        C = np.asarray(centers, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        C = np.empty(0)
    if C.ndim != 2 or C.shape[0] < 2 or C.shape[1] < 1:
        raise ValueError(f"{name}must be 2 or more vectors of one dimension >= 1")
    if not np.isfinite(C).all():
        raise ValueError(f"{name}must be finite")
    return C


def _no_overflow(feats: np.ndarray, name: str, scale: float) -> np.ndarray:
    """``feats`` when finite; otherwise the noise scale overflowed float64."""
    if not np.isfinite(feats).all():
        raise ValueError(f"{name} = {scale!r} overflows the float64 features")
    return feats


def gen_blobs(
    seed: int, n_per_class: int, centers: Sequence[Sequence[float]], sigma: float
) -> Dataset:
    """Isotropic Gaussian clouds, one per center, class-major row order."""
    C = _check_centers(centers, "centers")
    _POSITIVE.check(sigma, "sigma")
    _COUNT.check(n_per_class, "n_per_class")
    labels = np.repeat(np.arange(len(C), dtype=np.int64), n_per_class)
    rng = np.random.default_rng(int(seed))
    with np.errstate(over="ignore"):  # reported by _no_overflow, naming sigma
        feats = C[labels] + sigma * rng.standard_normal((len(labels), C.shape[1]))
    return Dataset(features=_no_overflow(feats, "sigma", sigma), labels=labels, class_count=len(C))


def gen_moons(seed: int, n_per_class: int, noise: float) -> Dataset:
    """Two interleaved half-circles in 2-D with Gaussian coordinate noise.

    With noise = 0 the points lie exactly on the arcs: class 0 on the upper
    unit half-circle, class 1 on a lower half-circle shifted to interleave.
    """
    _COUNT.check(n_per_class, "n_per_class")
    _NONNEGATIVE.check(noise, "noise")
    t = np.linspace(0.0, np.pi, n_per_class)
    outer = np.stack([np.cos(t), np.sin(t)], axis=1)
    inner = np.stack([1.0 - np.cos(t), 0.5 - np.sin(t)], axis=1)
    feats = np.concatenate([outer, inner], axis=0)
    if noise > 0:
        rng = np.random.default_rng(int(seed))
        with np.errstate(over="ignore"):
            feats = _no_overflow(feats + noise * rng.standard_normal(feats.shape), "noise", noise)
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
    )
    return Dataset(features=feats, labels=labels, class_count=2)


def load_csv(
    path: str,
    label_column: int | str = -1,
    feature_scaling: str = "none",
    has_header: bool = False,
) -> Dataset:
    """Load a numeric CSV with one label column; all other columns are features.

    Labels must be nonnegative integers. With feature_scaling =
    'minmax_to_unit' every feature column is mapped to [0, 1] by its own
    min/max (a constant column maps to 0.0). Parse problems raise
    CsvParseError naming the 1-based line number, and a column whose span
    overflows float64 one naming the 1-based column.
    """
    if feature_scaling not in SCALINGS:
        raise ValueError(f"unknown feature_scaling {feature_scaling!r}")
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise CsvParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise CsvParseError(f"{path}: file is empty")

    start = 0
    header: Optional[list[str]] = None
    if has_header:
        header = [name.strip() for name in rows[0]]
        start = 1
    if isinstance(label_column, str):
        if header is None:
            raise CsvParseError(f"{path}: label column named {label_column!r} needs a header row")
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise CsvParseError(f"{path}: no column named {label_column!r} in header") from None
    else:
        label_idx = int(label_column)

    data_rows = rows[start:]
    if not data_rows:
        raise CsvParseError(f"{path}: no data rows")
    width = len(data_rows[0])
    if width < 2:
        raise CsvParseError(f"{path}: line {start + 1}: need at least one feature and one label")
    if label_idx < 0:
        label_idx += width
    if not 0 <= label_idx < width:
        raise CsvParseError(f"{path}: label column {label_column} outside row width {width}")

    feats = np.empty((len(data_rows), width - 1), dtype=np.float64)
    labels = np.empty(len(data_rows), dtype=np.int64)
    for i, row in enumerate(data_rows):
        line_no = start + i + 1
        if len(row) != width:
            raise CsvParseError(f"{path}: line {line_no}: expected {width} fields, got {len(row)}")
        col = 0
        for j, cell in enumerate(row):
            cell = cell.strip()
            if j == label_idx:
                try:
                    label = int(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: line {line_no}: unknown label {cell!r} (labels must be "
                        "nonnegative integers)"
                    ) from None
                if label < 0:
                    raise CsvParseError(f"{path}: line {line_no}: negative label {label}")
                if label > np.iinfo(np.int64).max:
                    raise CsvParseError(f"{path}: line {line_no}: label {label} exceeds int64")
                labels[i] = label
            else:
                try:
                    feats[i, col] = float(cell)
                except ValueError:
                    raise CsvParseError(
                        f"{path}: line {line_no}: non-numeric cell {cell!r}"
                    ) from None
                col += 1
        if not np.isfinite(feats[i]).all():
            raise CsvParseError(f"{path}: line {line_no}: non-finite feature value")

    if feature_scaling == "minmax_to_unit":
        lo = feats.min(axis=0)
        with np.errstate(over="ignore"):  # reported below, naming the column
            span = feats.max(axis=0) - lo
        if not np.isfinite(span).all():
            c = int(np.argmin(np.isfinite(span)))
            raise CsvParseError(
                f"{path}: column {c + (c >= label_idx) + 1}: values span more than float64 "
                "holds, so min-max scaling overflows"
            )
        span[span == 0.0] = 1.0  # constant columns map to 0.0
        feats = (feats - lo) / span
    return Dataset(features=feats, labels=labels, class_count=int(labels.max()) + 1)


def split(dataset: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then cut: first round goes to train, rest to test.

    ``fraction`` is the train share; both sides must end up nonempty.
    """
    _FRACTION.check(fraction, "fraction")
    n = dataset.n_samples
    n_train = int(fraction * n)
    if n_train < 1 or n_train >= n:
        raise ValueError(f"degenerate split: {n_train} train of {n} samples")
    perm = np.random.default_rng(int(seed)).permutation(n)
    tr, te = perm[:n_train], perm[n_train:]
    make = lambda idx: Dataset(
        features=dataset.features[idx].copy(),
        labels=dataset.labels[idx].copy(),
        class_count=dataset.class_count,
    )
    return make(tr), make(te)
