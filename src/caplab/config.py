"""Run configuration files for the CLI.

Format: flat INI sections with key = value lines. Parsing is strict: an
unknown section or key is an error (silent hyperparameter typos are the
failure mode this prevents).

``_SCHEMA`` is the one description of every key: its row is
``(parser, default)``. The parser turns the key's text into the typed
value and range-checks it with the rule the config dataclass applies to
the field the key feeds; a key with the default ``REQUIRED`` must be set.
Loading parses every key that is set, even one the chosen data kind
does not use, and fills in the defaults, so the builders and callers of
``RunConfig.section`` read typed values and errors name ``section.key``.
Two defaults are derived once at load: ``attack.epsilon`` and
``eval.epsilon`` fall back to ``polytope.epsilon``, and an unset
``polytope.input_clip`` is ``(0, 1)`` for min-max-scaled CSV data.

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
import copy
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .attacks import ATTACK_KINDS, AttackConfig
from .data import SCALINGS, Dataset, _check_centers, gen_blobs, gen_moons, load_csv, split
from .errors import _COUNT, _FRACTION, _INDEX, _NONNEGATIVE, _POSITIVE, ConfigError, _Number
from .nn import ACTIVATIONS, MlpModel, init_mlp
from .polytope import CornerConfig, PerturbationBudget, _check_clip
from .seeding import (
    STREAM_DATA_TEST,
    STREAM_DATA_TRAIN,
    STREAM_EVAL,
    STREAM_MODEL_INIT,
    derive_seed,
)
from .train import BASELINE_KINDS, TrainConfig, _check_lr_drops

_EVAL_TOKEN = re.compile(r"^(fgsm|pgd-(\d+))$")

_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _choice(*options: str) -> Callable:
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected {', '.join(options[:-1])} or {options[-1]}, got {raw!r}")
        return raw

    return parse


def _bool(raw: str) -> bool:
    if raw.lower() not in _BOOL_WORDS:
        raise ValueError(f"expected true/false, got {raw!r}")
    return _BOOL_WORDS[raw.lower()]


def _column(raw: str) -> int | str:
    """A label column: an integer index, or a header name."""
    try:
        return int(raw)
    except ValueError:
        return raw


_finite = _Number(float, -math.inf, strict=False)  # any finite number


def parse_widths(raw: str) -> list[int]:
    widths = [_COUNT(tok) for tok in str(raw).split(",") if tok.strip()]
    if not widths:
        raise ValueError(f"expected comma-separated widths, got {raw!r}")
    return widths


def parse_centers(raw: str) -> list[list[float]]:
    centers = []
    for part in str(raw).split(";"):
        part = part.strip().strip("()")
        try:
            vec = [_finite(tok) for tok in part.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"bad vector {part!r}") from None
        centers.append(vec)
    _check_centers(centers)
    return centers


def parse_lr_drops(raw: str) -> tuple[tuple[int, float], ...]:
    raw = str(raw).strip()
    if not raw:
        return ()
    drops = []
    for part in raw.split(","):
        part = part.strip()
        if ":" not in part:
            raise ValueError(f"expected epoch:divisor, got {part!r}")
        e, d = part.split(":", 1)
        try:
            drops.append((int(e), _finite(d)))
        except ValueError:
            raise ValueError(f"bad entry {part!r}") from None
    _check_lr_drops(drops)
    return tuple(drops)


def parse_clip(raw: str) -> Optional[tuple[float, float]]:
    raw = str(raw).strip()
    if raw.lower() in ("", "none", "off"):
        return None
    try:
        lo, hi = (_finite(tok) for tok in raw.split(","))
    except ValueError:
        raise ValueError(f"expected 'lo,hi' or none, got {raw!r}") from None
    _check_clip((lo, hi))
    return (lo, hi)


def parse_eval_tokens(raw: str) -> list[tuple[str, int]]:
    """'fgsm, pgd-20' -> [('fgsm', 1), ('pgd', 20)]. An attack may appear
    once: results are keyed by its name (fgsm, pgd-<steps>)."""
    out = []
    for tok in str(raw).split(","):
        tok = tok.strip().lower()
        if not tok:
            continue
        m = _EVAL_TOKEN.match(tok)
        if not m:
            raise ValueError(f"unknown attack token {tok!r}")
        if tok == "fgsm":
            entry, name = ("fgsm", 1), "fgsm"
        else:
            steps = int(m.group(2))
            try:
                _COUNT.check(steps)
            except ValueError:
                raise ValueError(f"pgd steps must be >= 1 in {tok!r}") from None
            entry, name = ("pgd", steps), f"pgd-{steps}"
        if entry in out:
            raise ValueError(f"duplicate attack {name!r}")
        out.append(entry)
    if not out:
        raise ValueError("suite is empty")
    return out


REQUIRED = object()  # schema default of a key that must be set

# section -> {key: (parser, default)}; a parser takes the stripped text and
# returns the typed value or raises ValueError
_SCHEMA: dict[str, dict[str, tuple[Callable, object]]] = {
    "run": {
        "seed": (_INDEX, 0),
        "out": (str, None),
    },
    "data": {
        "kind": (_choice("blobs", "moons", "csv"), REQUIRED),
        "n_per_class": (_COUNT, None),
        "test_n_per_class": (_COUNT, None),
        "centers": (parse_centers, None),
        "sigma": (_POSITIVE, None),
        "noise": (_NONNEGATIVE, None),
        "path": (str, None),
        "label_column": (_column, -1),
        "has_header": (_bool, False),
        "feature_scaling": (_choice(*SCALINGS), "none"),
        "test_fraction": (_FRACTION, None),
    },
    "model": {
        "hidden": (parse_widths, REQUIRED),
        "activation": (_choice(*ACTIVATIONS), "relu"),
    },
    "train": {
        "kind": (_choice(*BASELINE_KINDS), REQUIRED),
        "epochs": (_INDEX, REQUIRED),
        "lr": (_POSITIVE, REQUIRED),
        "lr_drops": (parse_lr_drops, ()),
        "lambda": (_NONNEGATIVE, 0.6),
        "batch_size": (_COUNT, 128),
        "momentum": (_NONNEGATIVE, 0.9),
        "weight_decay": (_NONNEGATIVE, 0.0005),
        "probe_size": (_INDEX, 0),
    },
    "polytope": {
        "particles": (_COUNT, 10),
        "steps": (_COUNT, 40),
        "eta": (_NONNEGATIVE, 2 / 255),
        "epsilon": (_NONNEGATIVE, 8 / 255),
        "input_clip": (parse_clip, None),  # derived for scaled csv data
    },
    "attack": {
        "kind": (_choice(*ATTACK_KINDS), "pgd"),
        "epsilon": (_NONNEGATIVE, None),  # derived: polytope epsilon
        "alpha": (_POSITIVE, 2 / 255),
        "steps": (_COUNT, 10),
        "random_start": (_bool, True),
    },
    "eval": {
        "attacks": (parse_eval_tokens, [("fgsm", 1), ("pgd", 20)]),
        "epsilon": (_NONNEGATIVE, None),  # derived: polytope epsilon
        "alpha": (_POSITIVE, 2 / 255),
        "random_start": (_bool, True),
    },
}

# the [data] keys each data kind needs set
_DATA_NEEDS = {
    "blobs": ("n_per_class", "centers", "sigma"),
    "moons": ("n_per_class", "noise"),
    "csv": ("path", "test_fraction"),
}


@dataclass
class RunConfig:
    """Parsed and validated run description."""

    path: str
    seed: int
    values: dict[str, dict[str, object]] = field(default_factory=dict)

    def section(self, name: str) -> dict[str, object]:
        return self.values[name]


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

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key in parser.options(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {section}.{key}")

    values: dict[str, dict[str, object]] = {}
    for section, rows in _SCHEMA.items():
        if not parser.has_section(section) and any(d is REQUIRED for _, d in rows.values()):
            raise ConfigError(f"{path}: missing required section [{section}]")
        got = values[section] = {}
        for key, (parse, default) in rows.items():
            if parser.has_option(section, key):
                try:
                    got[key] = parse(parser.get(section, key).strip())
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}: {exc}") from None
            elif default is REQUIRED:
                raise ConfigError(f"{path}: missing required key {section}.{key}")
            else:  # a copy, so no load shares a mutable default (eval.attacks)
                got[key] = copy.deepcopy(default)

    data, poly = values["data"], values["polytope"]
    for key in _DATA_NEEDS[data["kind"]]:
        if data[key] is None:
            raise ConfigError(f"data.{key}: required for {data['kind']} data")

    for section in ("attack", "eval"):
        if values[section]["epsilon"] is None:
            values[section]["epsilon"] = poly["epsilon"]
    # unit-box data (min-max scaled csv) is clipped to [0, 1] unless the file says otherwise
    scaled = data["kind"] == "csv" and data["feature_scaling"] == "minmax_to_unit"
    if scaled and not parser.has_option("polytope", "input_clip"):
        poly["input_clip"] = (0.0, 1.0)

    return RunConfig(path=path, seed=values["run"]["seed"], values=values)


def build_datasets(rc: RunConfig) -> tuple[Dataset, Dataset]:
    data = rc.section("data")
    kind = data["kind"]
    if kind == "csv":
        full = load_csv(
            data["path"],
            label_column=data["label_column"],
            feature_scaling=data["feature_scaling"],
            has_header=data["has_header"],
        )
        seed = derive_seed(rc.seed, STREAM_DATA_TEST)
        test_fraction = data["test_fraction"]
        if 1.0 - test_fraction == 1.0:  # the train share rounds to 1, which split rejects
            raise ConfigError(
                f"data.test_fraction: {test_fraction!r} leaves no test sample of {full.n_samples}"
            )
        try:
            train, test = split(full, 1.0 - test_fraction, seed)
        except ValueError as exc:  # split checks the train share 1 - test_fraction
            raise ConfigError(f"data.test_fraction: {exc}") from None
        # the output layer gets one unit per class, so a stray large label
        # would size the model; a real class has at least one training sample
        if full.class_count > train.n_samples:
            raise ConfigError(
                f"data.path: {data['path']}: label {full.class_count - 1} implies "
                f"{full.class_count} classes, more than the {train.n_samples} training samples"
            )
        return train, test
    n_test = data["test_n_per_class"] or data["n_per_class"]
    if kind == "blobs":
        scale, generate = "sigma", lambda seed, n: gen_blobs(seed, n, data["centers"], data["sigma"])
    else:
        scale, generate = "noise", lambda seed, n: gen_moons(seed, n, data["noise"])
    try:
        return (
            generate(derive_seed(rc.seed, STREAM_DATA_TRAIN), data["n_per_class"]),
            generate(derive_seed(rc.seed, STREAM_DATA_TEST), n_test),
        )
    except ValueError as exc:  # parsed values fail only the generators' overflow check
        raise ConfigError(f"data.{scale}: {exc}") from None


def build_model(rc: RunConfig, dataset: Dataset) -> MlpModel:
    model = rc.section("model")
    dims = [dataset.dim, *model["hidden"], dataset.class_count]
    return init_mlp(derive_seed(rc.seed, STREAM_MODEL_INIT), dims, model["activation"])


def build_corner_config(rc: RunConfig) -> CornerConfig:
    poly = rc.section("polytope")
    budget = PerturbationBudget(epsilon=poly["epsilon"], input_clip=poly["input_clip"])
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
        attack_cfg = _attack_config(rc, "attack", atk["kind"], atk["steps"])
    return TrainConfig(
        baseline_kind=tr["kind"],
        epochs=tr["epochs"],
        lr=tr["lr"],
        lr_drops=tr["lr_drops"],
        polytope=build_corner_config(rc),
        seed=rc.seed,
        lam=tr["lambda"],
        batch_size=tr["batch_size"],
        momentum=tr["momentum"],
        weight_decay=tr["weight_decay"],
        attack=attack_cfg,
        probe_size=tr["probe_size"],
    )


def _attack_config(
    rc: RunConfig, section: str, kind: str, steps: int, seed: int = 0
) -> AttackConfig:
    """An attack from a section's epsilon, alpha and random_start and the
    [polytope] input_clip; fgsm ignores alpha and random_start."""
    sec = rc.section(section)
    return AttackConfig(
        kind=kind,
        epsilon=sec["epsilon"],
        step_size=sec["alpha"],
        steps=steps,
        random_start=sec["random_start"],
        input_clip=rc.section("polytope")["input_clip"],
        seed=seed,
    )


def build_eval_suite(rc: RunConfig) -> list[tuple[str, AttackConfig]]:
    """Named attack configs from [eval]; random-start seeds derive from the
    global seed and the suite position."""
    suite = []
    for i, (kind, steps) in enumerate(rc.section("eval")["attacks"]):
        if kind == "fgsm":
            suite.append(("fgsm", _attack_config(rc, "eval", kind, steps)))
        else:
            seed = derive_seed(rc.seed, STREAM_EVAL, i)
            suite.append((f"pgd-{steps}", _attack_config(rc, "eval", kind, steps, seed)))
    return suite
