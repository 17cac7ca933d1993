"""Run configuration files for the CLI.

Format: flat INI sections with key = value lines. Parsing is strict: an
unknown section or key is an error (silent hyperparameter typos are the
failure mode this prevents), and every value is range-checked with the
offending field named in the message.

Sections:

  [run]       seed, out
  [data]      kind = blobs | moons | csv, plus the generator's parameters
  [model]     hidden layer widths and activation
  [train]     trainer kind and optimization hyperparameters
  [polytope]  corner-search settings (particles, steps, eta, epsilon, clip)
  [attack]    inner-maximization attack for the vanilla_at trainer
  [eval]      evaluation attack suite (fgsm / pgd-<steps> tokens)

Every random stream derives from [run] seed; configs carry no other
entropy. Schedules (epochs, lr, drops) always come from the file, never
from built-in defaults. Command-line flags arrive as overrides merged over
the file before parsing, so a flag is parsed and checked exactly like the
key it stands for.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from typing import Optional

from .attacks import AttackConfig
from .data import Dataset, gen_blobs, gen_moons, load_csv, split
from .errors import ConfigError
from .nn import MlpModel, init_mlp
from .polytope import CornerConfig, PerturbationBudget
from .seeding import (
    STREAM_DATA_TEST,
    STREAM_DATA_TRAIN,
    STREAM_EVAL,
    STREAM_MODEL_INIT,
    derive_seed,
)
from .train import TrainConfig

_EVAL_TOKEN = re.compile(r"^(fgsm|pgd-(\d+))$")

# section -> {key: (kind, required, default)}; kind drives the value parser
_SCHEMA: dict[str, dict[str, tuple[str, bool, object]]] = {
    "run": {
        "seed": ("int", False, 0),
        "out": ("str", False, None),
    },
    "data": {
        "kind": ("str", True, None),
        "n_per_class": ("int", False, None),
        "test_n_per_class": ("int", False, None),
        "centers": ("str", False, None),
        "sigma": ("float", False, None),
        "noise": ("float", False, None),
        "path": ("str", False, None),
        "label_column": ("str", False, "-1"),
        "has_header": ("bool", False, False),
        "feature_scaling": ("str", False, "none"),
        "test_fraction": ("float", False, None),
    },
    "model": {
        "hidden": ("str", True, None),
        "activation": ("str", False, "relu"),
    },
    "train": {
        "kind": ("str", True, None),
        "epochs": ("int", True, None),
        "lr": ("float", True, None),
        "lr_drops": ("str", False, ""),
        "lambda": ("float", False, 0.6),
        "batch_size": ("int", False, 128),
        "momentum": ("float", False, 0.9),
        "weight_decay": ("float", False, 0.0005),
        "probe_size": ("int", False, 0),
    },
    "polytope": {
        "particles": ("int", False, 10),
        "steps": ("int", False, 40),
        "eta": ("float", False, 2 / 255),
        "epsilon": ("float", False, 8 / 255),
        "input_clip": ("str", False, None),
    },
    "attack": {
        "kind": ("str", False, "pgd"),
        "epsilon": ("float", False, None),  # defaults to polytope epsilon
        "alpha": ("float", False, 2 / 255),
        "steps": ("int", False, 10),
        "random_start": ("bool", False, True),
    },
    "eval": {
        "attacks": ("str", False, "fgsm, pgd-20"),
        "epsilon": ("float", False, None),  # defaults to polytope epsilon
        "alpha": ("float", False, 2 / 255),
        "random_start": ("bool", False, True),
    },
}

_REQUIRED_SECTIONS = ("data", "model", "train")

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


@dataclass
class RunConfig:
    """Parsed and validated run description."""

    path: str
    seed: int
    out: Optional[str]
    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, object]:
        return self.values[name]


def _parse_value(section: str, key: str, kind: str, raw: str):
    where = f"{section}.{key}"
    raw = raw.strip()
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}") from None
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected a number, got {raw!r}") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigError(f"{where}: must be finite")
        return value
    if kind == "bool":
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"{where}: expected true/false, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    return raw


def load_run_config(
    path: str, overrides: Optional[dict[str, dict[str, object]]] = None
) -> RunConfig:
    """Parse and validate the config file at ``path``.

    ``overrides`` maps section -> key -> value and is merged over the file
    before parsing, so an override goes through the same parsing and range
    checks as the file's key (errors name ``section.key``). A value of None
    keeps the file's value.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f, source=path)
        for section, keys in (overrides or {}).items():
            given = {key: value for key, value in keys.items() if value is not None}
            if given:
                parser.read_dict({section: given})
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    values: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _SCHEMA[section]
        got: dict[str, object] = {}
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {section}.{key}")
            got[key] = _parse_value(section, key, known[key][0], raw)
        values[section] = got

    for section in _REQUIRED_SECTIONS:
        if section not in values:
            raise ConfigError(f"{path}: missing required section [{section}]")
    for section, keys in _SCHEMA.items():
        got = values.setdefault(section, {})
        for key, (kind, required, default) in keys.items():
            if key not in got:
                if required:
                    raise ConfigError(f"{path}: missing required key {section}.{key}")
                got[key] = default

    rc = RunConfig(
        path=path,
        seed=int(values["run"]["seed"]),
        out=values["run"]["out"],
        values=values,
    )
    _validate(rc)
    return rc


def _positive(rc: RunConfig, section: str, key: str, strict: bool = True) -> None:
    v = rc.section(section)[key]
    if v is None:
        return
    if strict and v <= 0:
        raise ConfigError(f"{section}.{key}: must be > 0, got {v}")
    if not strict and v < 0:
        raise ConfigError(f"{section}.{key}: must be >= 0, got {v}")


def _validate(rc: RunConfig) -> None:
    _positive(rc, "run", "seed", strict=False)

    data = rc.section("data")
    kind = data["kind"]
    if kind not in ("blobs", "moons", "csv"):
        raise ConfigError(f"data.kind: expected blobs, moons or csv, got {kind!r}")
    if kind in ("blobs", "moons"):
        if data["n_per_class"] is None:
            raise ConfigError("data.n_per_class: required for synthetic datasets")
        _positive(rc, "data", "n_per_class")
        if data["test_n_per_class"] is not None:
            _positive(rc, "data", "test_n_per_class")
    if kind == "blobs":
        if data["centers"] is None or data["sigma"] is None:
            raise ConfigError("data.centers and data.sigma: required for blobs")
        _positive(rc, "data", "sigma")
        parse_centers(data["centers"])
    if kind == "moons":
        if data["noise"] is None:
            raise ConfigError("data.noise: required for moons")
        _positive(rc, "data", "noise", strict=False)
    if kind == "csv":
        if data["path"] is None:
            raise ConfigError("data.path: required for csv datasets")
        if data["feature_scaling"] not in ("none", "minmax_to_unit"):
            raise ConfigError(f"data.feature_scaling: unknown value {data['feature_scaling']!r}")
        frac = data["test_fraction"]
        if frac is None or not 0.0 < frac < 1.0:
            raise ConfigError("data.test_fraction: required for csv, strictly between 0 and 1")

    model = rc.section("model")
    parse_widths(model["hidden"])
    if model["activation"] not in ("relu", "identity"):
        raise ConfigError(f"model.activation: unknown value {model['activation']!r}")

    tr = rc.section("train")
    if tr["kind"] not in ("cap", "clean", "vanilla_at"):
        raise ConfigError(f"train.kind: expected cap, clean or vanilla_at, got {tr['kind']!r}")
    if tr["epochs"] < 0:
        raise ConfigError("train.epochs: must be >= 0")
    _positive(rc, "train", "lr")
    if tr["lambda"] < 0:
        raise ConfigError(f"train.lambda: must be >= 0, got {tr['lambda']}")
    _positive(rc, "train", "batch_size")
    _positive(rc, "train", "momentum", strict=False)
    _positive(rc, "train", "weight_decay", strict=False)
    _positive(rc, "train", "probe_size", strict=False)
    parse_lr_drops(tr["lr_drops"])

    poly = rc.section("polytope")
    _positive(rc, "polytope", "particles")
    _positive(rc, "polytope", "steps")
    _positive(rc, "polytope", "eta", strict=False)
    _positive(rc, "polytope", "epsilon", strict=False)
    if poly["input_clip"] is not None:
        parse_clip(poly["input_clip"])

    atk = rc.section("attack")
    if atk["kind"] not in ("fgsm", "pgd"):
        raise ConfigError(f"attack.kind: expected fgsm or pgd, got {atk['kind']!r}")
    _positive(rc, "attack", "alpha")
    _positive(rc, "attack", "steps")
    if atk["epsilon"] is not None and atk["epsilon"] < 0:
        raise ConfigError("attack.epsilon: must be >= 0")

    ev = rc.section("eval")
    parse_eval_tokens(ev["attacks"])
    _positive(rc, "eval", "alpha")
    if ev["epsilon"] is not None and ev["epsilon"] < 0:
        raise ConfigError("eval.epsilon: must be >= 0")


def parse_widths(raw: str) -> list[int]:
    try:
        widths = [int(tok) for tok in str(raw).split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"model.hidden: expected comma-separated widths, got {raw!r}") from None
    if not widths or any(w < 1 for w in widths):
        raise ConfigError(f"model.hidden: widths must be positive, got {raw!r}")
    return widths


def parse_centers(raw: str) -> list[list[float]]:
    centers = []
    for i, part in enumerate(str(raw).split(";")):
        part = part.strip().strip("()")
        try:
            vec = [float(tok) for tok in part.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"data.centers: bad vector {part!r}") from None
        if not vec:
            raise ConfigError(f"data.centers: empty vector at position {i}")
        centers.append(vec)
    if len(centers) < 2 or len({len(c) for c in centers}) != 1:
        raise ConfigError("data.centers: need >= 2 centers of equal dimension")
    return centers


def parse_lr_drops(raw: str) -> tuple[tuple[int, float], ...]:
    raw = str(raw).strip()
    if not raw:
        return ()
    drops = []
    for part in raw.split(","):
        part = part.strip()
        if ":" not in part:
            raise ConfigError(f"train.lr_drops: expected epoch:divisor, got {part!r}")
        e, d = part.split(":", 1)
        try:
            drops.append((int(e), float(d)))
        except ValueError:
            raise ConfigError(f"train.lr_drops: bad entry {part!r}") from None
    epochs = [e for e, _ in drops]
    if epochs != sorted(set(epochs)) or any(e < 1 for e in epochs):
        raise ConfigError("train.lr_drops: epochs must be positive and strictly increasing")
    if any(d <= 0 for _, d in drops):
        raise ConfigError("train.lr_drops: divisors must be > 0")
    return tuple(drops)


def parse_clip(raw: str) -> Optional[tuple[float, float]]:
    raw = str(raw).strip()
    if raw.lower() in ("", "none", "off"):
        return None
    try:
        lo, hi = (float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"polytope.input_clip: expected 'lo,hi' or none, got {raw!r}") from None
    if not lo < hi:
        raise ConfigError("polytope.input_clip: lo must be < hi")
    return (lo, hi)


def parse_eval_tokens(raw: str) -> list[tuple[str, int]]:
    """'fgsm, pgd-20' -> [('fgsm', 1), ('pgd', 20)]."""
    out = []
    for tok in str(raw).split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        m = _EVAL_TOKEN.match(tok)
        if not m:
            raise ConfigError(f"eval.attacks: unknown attack token {tok!r}")
        if tok == "fgsm":
            out.append(("fgsm", 1))
        else:
            steps = int(m.group(2))
            if steps < 1:
                raise ConfigError(f"eval.attacks: pgd steps must be >= 1 in {tok!r}")
            out.append(("pgd", steps))
    if not out:
        raise ConfigError("eval.attacks: suite is empty")
    return out


def resolve_input_clip(rc: RunConfig) -> Optional[tuple[float, float]]:
    """Explicit clip wins; otherwise clip to [0, 1] exactly when the data is
    min-max scaled to the unit box (image-like data), else no clip."""
    raw = rc.section("polytope")["input_clip"]
    if raw is not None:
        return parse_clip(raw)
    data = rc.section("data")
    if data["kind"] == "csv" and data["feature_scaling"] == "minmax_to_unit":
        return (0.0, 1.0)
    return None


def build_datasets(rc: RunConfig) -> tuple[Dataset, Dataset]:
    data = rc.section("data")
    kind = data["kind"]
    if kind == "blobs":
        centers = parse_centers(data["centers"])
        n_test = data["test_n_per_class"] or data["n_per_class"]
        train_ds = gen_blobs(
            derive_seed(rc.seed, STREAM_DATA_TRAIN), data["n_per_class"], centers, data["sigma"]
        )
        test_ds = gen_blobs(derive_seed(rc.seed, STREAM_DATA_TEST), n_test, centers, data["sigma"])
        return train_ds, test_ds
    if kind == "moons":
        n_test = data["test_n_per_class"] or data["n_per_class"]
        train_ds = gen_moons(derive_seed(rc.seed, STREAM_DATA_TRAIN), data["n_per_class"], data["noise"])
        test_ds = gen_moons(derive_seed(rc.seed, STREAM_DATA_TEST), n_test, data["noise"])
        return train_ds, test_ds
    label_col: int | str = data["label_column"]
    try:
        label_col = int(label_col)
    except (TypeError, ValueError):
        pass
    full = load_csv(
        data["path"],
        label_column=label_col,
        feature_scaling=data["feature_scaling"],
        has_header=bool(data["has_header"]),
    )
    train_ds, test_ds = split(
        full, 1.0 - data["test_fraction"], derive_seed(rc.seed, STREAM_DATA_TEST)
    )
    return train_ds, test_ds


def build_model(rc: RunConfig, dataset: Dataset) -> MlpModel:
    widths = parse_widths(rc.section("model")["hidden"])
    dims = [dataset.dim, *widths, dataset.class_count]
    return init_mlp(
        derive_seed(rc.seed, STREAM_MODEL_INIT), dims, rc.section("model")["activation"]
    )


def build_corner_config(rc: RunConfig) -> CornerConfig:
    poly = rc.section("polytope")
    budget = PerturbationBudget(epsilon=poly["epsilon"], input_clip=resolve_input_clip(rc))
    return CornerConfig(
        n_particles=poly["particles"],
        steps=poly["steps"],
        eta=poly["eta"],
        budget=budget,
        seed=rc.seed,
    )


def build_train_config(rc: RunConfig) -> TrainConfig:
    tr = rc.section("train")
    attack_cfg = None
    if tr["kind"] == "vanilla_at":
        atk = rc.section("attack")
        eps = atk["epsilon"]
        if eps is None:
            eps = rc.section("polytope")["epsilon"]
        attack_cfg = AttackConfig(
            kind=atk["kind"],
            epsilon=eps,
            step_size=atk["alpha"],
            steps=atk["steps"],
            random_start=bool(atk["random_start"]),
            input_clip=resolve_input_clip(rc),
        )
    return TrainConfig(
        baseline_kind=tr["kind"],
        epochs=tr["epochs"],
        lr=tr["lr"],
        lr_drops=parse_lr_drops(tr["lr_drops"]),
        polytope=build_corner_config(rc),
        seed=rc.seed,
        lam=tr["lambda"],
        batch_size=tr["batch_size"],
        momentum=tr["momentum"],
        weight_decay=tr["weight_decay"],
        attack=attack_cfg,
        probe_size=tr["probe_size"],
    )


def build_eval_suite(rc: RunConfig) -> list[tuple[str, AttackConfig]]:
    """Named attack configs from [eval]; random-start seeds derive from the
    global seed and the suite position."""
    ev = rc.section("eval")
    eps = ev["epsilon"]
    if eps is None:
        eps = rc.section("polytope")["epsilon"]
    clip = resolve_input_clip(rc)
    suite = []
    for i, (kind, steps) in enumerate(parse_eval_tokens(ev["attacks"])):
        if kind == "fgsm":
            name = "fgsm"
            cfg = AttackConfig(kind="fgsm", epsilon=eps, input_clip=clip)
        else:
            name = f"pgd-{steps}"
            cfg = AttackConfig(
                kind="pgd",
                epsilon=eps,
                step_size=ev["alpha"],
                steps=steps,
                random_start=bool(ev["random_start"]),
                input_clip=clip,
                seed=derive_seed(rc.seed, STREAM_EVAL, i),
            )
        suite.append((name, cfg))
    return suite
