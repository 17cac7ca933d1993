"""Run-config parsing tests: strictness, defaults, builders."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplab import (
    AttackConfig,
    ConfigError,
    CornerConfig,
    PerturbationBudget,
    TrainConfig,
    gen_blobs,
    gen_moons,
    init_mlp,
    split,
)
from caplab.cli import main
from caplab.config import (
    _DATA_NEEDS,
    _SCHEMA,
    build_corner_config,
    build_datasets,
    build_eval_suite,
    build_model,
    build_train_config,
    load_run_config,
    parse_centers,
    parse_eval_tokens,
    parse_lr_drops,
)
from caplab.errors import _Number

BASE = """
[data]
kind = blobs
n_per_class = 10
centers = -1,0 ; 1,0
sigma = 0.5

[model]
hidden = 8

[train]
kind = clean
epochs = 2
lr = 0.1
"""


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestStrictParsing:
    def test_minimal_config_loads_with_defaults(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        assert rc.seed == 0 and rc.section("run")["out"] is None
        poly = rc.section("polytope")
        assert poly["particles"] == 10
        assert poly["steps"] == 40
        assert poly["eta"] == 2 / 255
        assert poly["epsilon"] == 8 / 255
        tr = rc.section("train")
        assert tr["lambda"] == 0.6
        assert tr["batch_size"] == 128
        assert tr["momentum"] == 0.9
        assert tr["weight_decay"] == 0.0005

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_run_config(write(tmp_path, BASE + "\n[extra]\nx = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        # BASE ends inside [train], so the stray key lands there
        with pytest.raises(ConfigError, match="train.lrr"):
            load_run_config(write(tmp_path, BASE + "lrr = 0.2\n"))

    def test_missing_required_key_named(self, tmp_path):
        text = BASE.replace("epochs = 2\n", "")
        with pytest.raises(ConfigError, match="train.epochs"):
            load_run_config(write(tmp_path, text))

    def test_bad_number_named(self, tmp_path):
        with pytest.raises(ConfigError, match="train.lr"):
            load_run_config(write(tmp_path, BASE.replace("lr = 0.1", "lr = fast")))

    def test_negative_lambda_named(self, tmp_path):
        with pytest.raises(ConfigError, match="train.lambda"):
            load_run_config(write(tmp_path, BASE + "lambda = -1\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_run_config(write(tmp_path, BASE + "epochs = 3\n"))

    def test_vanilla_at_accepts_attack_section(self, tmp_path):
        text = BASE.replace("kind = clean", "kind = vanilla_at") + "\n[attack]\nsteps = 4\n"
        cfg = build_train_config(load_run_config(write(tmp_path, text)))
        assert cfg.attack is not None
        assert cfg.attack.steps == 4
        assert cfg.attack.epsilon == 8 / 255  # inherits polytope default

    def test_overrides_are_parsed_like_file_keys(self, tmp_path):
        path = write(tmp_path, BASE + "\n[run]\nseed = 5\n\n[polytope]\nsteps = 7\n")
        rc = load_run_config(path, {"run": {"seed": 9}, "polytope": {"steps": None, "eta": 0.5}})
        assert rc.seed == 9 and rc.section("run")["seed"] == 9  # override beats the file
        assert rc.section("polytope")["steps"] == 7  # None keeps the file's value
        assert rc.section("polytope")["eta"] == 0.5
        with pytest.raises(ConfigError, match="unknown key run.threads"):
            load_run_config(path, {"run": {"threads": 1}})
        with pytest.raises(ConfigError, match="polytope.particles: must be > 0"):
            load_run_config(path, {"polytope": {"particles": 0}})


def rejected(tmp_path, section, key, value, match=""):
    """Loading BASE with section.key = value fails, naming the key."""
    with pytest.raises(ConfigError, match=re.escape(f"{section}.{key}: {match}")):
        load_run_config(write(tmp_path, BASE), {section: {key: value}})


class TestValueParsers:
    def test_centers(self, tmp_path):
        got = parse_centers("-1,0 ; (1,0) ; 0,1.5")
        assert got == [[-1.0, 0.0], [1.0, 0.0], [0.0, 1.5]]
        rejected(tmp_path, "data", "centers", "1,0")
        rejected(tmp_path, "data", "centers", "1,0 ; 2")

    def test_lr_drops(self, tmp_path):
        assert parse_lr_drops("") == ()
        assert parse_lr_drops("80:10, 100:10") == ((80, 10.0), (100, 10.0))
        rejected(tmp_path, "train", "lr_drops", "100:10, 80:10")
        rejected(tmp_path, "train", "lr_drops", "80")

    def test_eval_tokens(self, tmp_path):
        assert parse_eval_tokens("fgsm, pgd-20, pgd-100") == [
            ("fgsm", 1),
            ("pgd", 20),
            ("pgd", 100),
        ]
        rejected(tmp_path, "eval", "attacks", "cw", match="unknown attack token")


class TestBuilders:
    def test_datasets_disjoint_train_test_streams(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        train_ds, test_ds = build_datasets(rc)
        assert train_ds.n_samples == test_ds.n_samples == 20
        assert not np.array_equal(train_ds.features, test_ds.features)

    def test_model_dims_follow_dataset(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        train_ds, _ = build_datasets(rc)
        model = build_model(rc, train_ds)
        assert model.input_dim == 2 and model.output_dim == 2

    def test_same_seed_same_model(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        ds, _ = build_datasets(rc)
        a, b = build_model(rc, ds), build_model(rc, ds)
        assert all(np.array_equal(p, q) for p, q in zip(a.parameters(), b.parameters()))

    def test_corner_config_carries_seed(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE + "\n[run]\nseed = 42\n"))
        assert build_corner_config(rc).seed == 42

    def test_eval_suite_tokens_and_seeds(self, tmp_path):
        text = BASE + "\n[eval]\nattacks = fgsm, pgd-20, pgd-100\nepsilon = 0.1\n"
        rc = load_run_config(write(tmp_path, text))
        suite = build_eval_suite(rc)
        names = [name for name, _ in suite]
        assert names == ["fgsm", "pgd-20", "pgd-100"]
        pgd20, pgd100 = suite[1][1], suite[2][1]
        assert pgd20.steps == 20 and pgd100.steps == 100
        assert pgd20.seed != pgd100.seed  # independent derived streams
        assert all(cfg.epsilon == 0.1 for _, cfg in suite)

    def test_clip_defaults_on_for_scaled_csv(self, tmp_path):
        csv = tmp_path / "d.csv"
        csv.write_text("\n".join(f"{i},{i * 2},{i % 2}" for i in range(10)) + "\n")
        text = f"""
[data]
kind = csv
path = {csv}
feature_scaling = minmax_to_unit
test_fraction = 0.3

[model]
hidden = 4

[train]
kind = clean
epochs = 1
lr = 0.1
"""
        rc = load_run_config(write(tmp_path, text))
        assert rc.section("polytope")["input_clip"] == (0.0, 1.0)
        train_ds, test_ds = build_datasets(rc)
        assert train_ds.n_samples == 7 and test_ds.n_samples == 3
        # columns 0..9 and 0..18 scaled by their own min and span
        both = np.concatenate([train_ds.features, test_ds.features])
        assert sorted(both[:, 0]) == sorted(both[:, 1]) == [i / 9 for i in range(10)]

    def test_clip_off_for_synthetic_data(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE))
        assert rc.section("polytope")["input_clip"] is None

    def test_explicit_clip_override(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE + "\n[polytope]\ninput_clip = -2,2\n"))
        assert rc.section("polytope")["input_clip"] == (-2.0, 2.0)


def render(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items()) + "\n"
        for name, keys in sections.items()
    )


BASE_SECTIONS = {
    "data": {"kind": "blobs", "n_per_class": "10", "centers": "-1,0 ; 1,0", "sigma": "0.5"},
    "model": {"hidden": "8"},
    "train": {"kind": "clean", "epochs": "2", "lr": "0.1"},
}


def _just_past_bounds():
    """(section, key, value) for every bounded number in the schema: the
    value just below its lower bound, and its upper bound if it has one."""
    for section, rows in _SCHEMA.items():
        for key, (parse, _) in rows.items():
            if isinstance(parse, _Number):
                if parse.strict:
                    yield section, key, str(parse.low)
                else:
                    yield section, key, str(parse.low - 1 if parse.cast is int else -math.ulp(parse.low))
                if parse.high is not None:
                    yield section, key, str(parse.high)


class TestSchema:
    @pytest.mark.parametrize(
        "section, key, value", list(_just_past_bounds()), ids=lambda v: str(v)
    )
    def test_first_illegal_value_exits_2_naming_key(self, tmp_path, capsys, section, key, value):
        sections = {name: dict(keys) for name, keys in BASE_SECTIONS.items()}
        sections.setdefault(section, {})[key] = value
        out = tmp_path / "out"
        argv = ["train", "--config", write(tmp_path, render(sections)), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{section}.{key}:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, key", [(kind, key) for kind, keys in _DATA_NEEDS.items() for key in keys]
    )
    def test_key_the_data_kind_needs_is_required(self, tmp_path, kind, key):
        data = {k: SMALL["data"][k] for k in _DATA_NEEDS[kind] if k != key}
        sections = {**BASE_SECTIONS, "data": {"kind": kind, **data}}
        with pytest.raises(ConfigError, match=f"data.{key}: required for {kind} data"):
            load_run_config(write(tmp_path, render(sections)))

    def test_key_unused_by_data_kind_is_still_checked(self, tmp_path, capsys):
        sections = {name: dict(keys) for name, keys in BASE_SECTIONS.items()}
        sections["data"] = {"kind": "moons", "n_per_class": "10", "noise": "0.1", "sigma": "0"}
        argv = ["train", "--config", write(tmp_path, render(sections)), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "data.sigma: must be > 0" in capsys.readouterr().err

    def test_values_are_typed_and_derived_once(self, tmp_path):
        rc = load_run_config(write(tmp_path, BASE + "\n[polytope]\nepsilon = 0.2\n"))
        assert rc.section("data")["centers"] == [[-1.0, 0.0], [1.0, 0.0]]
        assert rc.section("model")["hidden"] == [8]
        assert rc.section("train")["lr_drops"] == ()
        assert rc.section("eval")["attacks"] == [("fgsm", 1), ("pgd", 20)]
        assert rc.section("attack")["epsilon"] == rc.section("eval")["epsilon"] == 0.2
        # a mutable default is not shared between loads
        rc.section("eval")["attacks"].append(("pgd", 5))
        assert load_run_config(rc.path).section("eval")["attacks"] == [("fgsm", 1), ("pgd", 20)]

    def test_non_finite_entries_of_structured_keys_rejected(self, tmp_path):
        for section, key, value in [
            ("data", "centers", "nan,0 ; 1,0"),
            ("train", "lr_drops", "1:inf"),
            ("polytope", "input_clip", "-inf,1"),
        ]:
            rejected(tmp_path, section, key, value)


# (section, key, dataclass, field): every config key that feeds a config
# dataclass's field. AttackConfig checks epsilon and input_clip by building
# its PerturbationBudget.
KEY_FIELDS = [
    ("run", "seed", CornerConfig, "seed"),
    ("run", "seed", TrainConfig, "seed"),
    ("train", "epochs", TrainConfig, "epochs"),
    ("train", "lr", TrainConfig, "lr"),
    ("train", "lr_drops", TrainConfig, "lr_drops"),
    ("train", "lambda", TrainConfig, "lam"),
    ("train", "batch_size", TrainConfig, "batch_size"),
    ("train", "momentum", TrainConfig, "momentum"),
    ("train", "weight_decay", TrainConfig, "weight_decay"),
    ("train", "probe_size", TrainConfig, "probe_size"),
    ("polytope", "particles", CornerConfig, "n_particles"),
    ("polytope", "steps", CornerConfig, "steps"),
    ("polytope", "eta", CornerConfig, "eta"),
    ("polytope", "epsilon", PerturbationBudget, "epsilon"),
    ("polytope", "input_clip", PerturbationBudget, "input_clip"),
    ("polytope", "input_clip", AttackConfig, "input_clip"),
    ("attack", "epsilon", AttackConfig, "epsilon"),
    ("attack", "alpha", AttackConfig, "step_size"),
    ("attack", "steps", AttackConfig, "steps"),
    ("eval", "attacks", AttackConfig, "steps"),  # the count of each pgd-<steps> token
    ("eval", "epsilon", AttackConfig, "epsilon"),
    ("eval", "alpha", AttackConfig, "step_size"),
]
_CORNER = CornerConfig(3, 2, 0.05, PerturbationBudget(0.1), seed=1)
VALID = {
    PerturbationBudget: PerturbationBudget(0.1),
    CornerConfig: _CORNER,
    AttackConfig: AttackConfig("pgd", 0.1, 0.02, 3, seed=1),
    TrainConfig: TrainConfig("clean", 2, 0.1, (), _CORNER, seed=1),
}
# a structured key's text that its rule rejects, and the parsed value
STRUCTURED_BAD = {
    ("train", "lr_drops"): ("2:10, 2:5", ((2, 10.0), (2, 5.0))),
    ("polytope", "input_clip"): ("1,0", (1.0, 0.0)),
    ("eval", "attacks"): ("pgd-0", 0),
}


def built_with(cls, field, value):
    return dataclasses.replace(VALID[cls], **{field: value})


def label(field):
    """The name a constructor error gives the field."""
    return "lambda" if field == "lam" else field


@pytest.fixture
def rule_calls(monkeypatch):
    """(rule, field name) of every _Number.check call made during the test."""
    calls = []
    check = _Number.check

    def spy(rule, value, field=""):
        calls.append((rule, field))
        check(rule, value, field)

    monkeypatch.setattr(_Number, "check", spy)
    return calls


class TestKeyFields:
    @pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
    def test_table_lists_every_checked_number(self, rule_calls, cls):
        dataclasses.replace(VALID[cls])
        checked = {field for _, field in rule_calls}
        if cls is AttackConfig:
            checked.remove("seed")  # no key: build_eval_suite derives it
        listed = {
            label(f)
            for s, k, c, f in KEY_FIELDS
            if c is cls and isinstance(_SCHEMA[s][k][0], _Number)
        }
        assert checked == listed

    @pytest.mark.parametrize(
        "section, key, cls, field", KEY_FIELDS, ids=lambda v: getattr(v, "__name__", str(v))
    )
    def test_key_and_field_share_one_rule(self, rule_calls, section, key, cls, field):
        parse = _SCHEMA[section][key][0]
        if isinstance(parse, _Number):
            past = [value for s, k, value in _just_past_bounds() if (s, k) == (section, key)]
            assert len(past) == 1
            with pytest.raises(ValueError, match=f"^{label(field)} must be "):
                built_with(cls, field, parse.cast(past[0]))
            rule_calls.clear()
            edge = parse.low + (1 if parse.cast is int else math.ulp(parse.low)) * parse.strict
            assert getattr(built_with(cls, field, parse.cast(edge)), field) == edge
            # the constructor checked the field with the schema row's own rule object
            assert any(rule is parse and f == label(field) for rule, f in rule_calls)
        else:
            text, value = STRUCTURED_BAD[(section, key)]
            with pytest.raises(ValueError) as from_text:
                parse(text)
            with pytest.raises(ValueError) as from_value:
                built_with(cls, field, value)
            if key != "attacks":  # the token error quotes the token instead
                assert str(from_value.value) == f"{label(field)} {from_text.value}"


# (section, key, function, argument): every config key that feeds an
# argument of a library function outside the config dataclasses.
ENTRY_POINTS = [
    ("data", "n_per_class", gen_blobs, "n_per_class"),
    ("data", "n_per_class", gen_moons, "n_per_class"),
    ("data", "sigma", gen_blobs, "sigma"),
    ("data", "noise", gen_moons, "noise"),
    ("data", "test_fraction", split, "fraction"),
    ("data", "centers", gen_blobs, "centers"),
    ("model", "hidden", init_mlp, "dims"),
]
VALID_CALLS = {
    gen_blobs: {"seed": 0, "n_per_class": 3, "centers": [[-1.0, 0.0], [1.0, 0.0]], "sigma": 0.5},
    gen_moons: {"seed": 0, "n_per_class": 3, "noise": 0.1},
    split: {"dataset": gen_moons(0, 5, 0.1), "fraction": 0.5, "seed": 0},
    init_mlp: {"seed": 0, "dims": [2, 4, 3]},
}
# a structured key's text that its rule rejects, the matching argument value,
# and more values the argument's rule rejects
STRUCTURED_ARGS = {
    ("data", "centers"): (
        "1,0",
        [[1.0, 0.0]],
        [
            [[math.nan, 0.0], [1.0, 0.0]],
            [[0.0, math.inf], [1.0, 0.0]],
            [[0.0, 0.0], [1.0]],  # ragged
            [1.0, 0.0],  # a flat list
        ],
    ),
    ("model", "hidden"): ("4,0", [2, 4, 0, 3], [[2, 2.5, 3], [2, math.nan, 3]]),
}


def called_with(fn, arg, value):
    return fn(**{**VALID_CALLS[fn], arg: value})


@pytest.mark.parametrize(
    "section, key, fn, arg", ENTRY_POINTS, ids=lambda v: getattr(v, "__name__", str(v))
)
def test_entry_point_checks_argument_with_its_keys_rule(rule_calls, section, key, fn, arg):
    parse = _SCHEMA[section][key][0]
    if isinstance(parse, _Number):
        bad = [parse.cast(v) for s, k, v in _just_past_bounds() if (s, k) == (section, key)]
        bad += [2.5] if parse.cast is int else [math.nan, math.inf, -math.inf]
        for value in bad:
            with pytest.raises(ValueError, match=f"^{arg} must be "):
                called_with(fn, arg, value)
        if parse.high is None:
            edge = parse.low + (1 if parse.cast is int else math.ulp(parse.low)) * parse.strict
        else:
            edge = math.nextafter(parse.high, -math.inf)
        rule_calls.clear()
        called_with(fn, arg, parse.cast(edge))
        # the function checked the argument with the schema row's own rule object
        assert any(rule is parse and f == arg for rule, f in rule_calls)
    else:
        text, value, more = STRUCTURED_ARGS[(section, key)]
        with pytest.raises(ValueError) as from_text:
            parse(text)
        with pytest.raises(ValueError) as from_value:
            called_with(fn, arg, value)
        assert str(from_value.value) == f"{arg} {from_text.value}"
        for value in more:
            with pytest.raises(ValueError, match=f"^{arg} must be "):
                called_with(fn, arg, value)


# A small config with every section; the property below mutates its values.
SMALL = {
    "run": {"seed": "1", "out": "unused"},
    "data": {
        "kind": "blobs",
        "n_per_class": "4",
        "test_n_per_class": "3",
        "centers": "-1,0 ; 1,0 ; 0,1",
        "sigma": "0.5",
        "noise": "0.1",
        "path": "unused.csv",
        "label_column": "-1",
        "has_header": "false",
        "feature_scaling": "none",
        "test_fraction": "0.25",
    },
    "model": {"hidden": "4,3", "activation": "relu"},
    "train": {
        "kind": "vanilla_at",
        "epochs": "2",
        "lr": "0.1",
        "lr_drops": "1:10",
        "lambda": "0.6",
        "batch_size": "8",
        "momentum": "0.9",
        "weight_decay": "0.0005",
        "probe_size": "2",
    },
    "polytope": {"particles": "3", "steps": "2", "eta": "0.02", "epsilon": "0.1", "input_clip": "none"},
    "attack": {"kind": "pgd", "epsilon": "0.1", "alpha": "0.02", "steps": "3", "random_start": "true"},
    "eval": {"attacks": "fgsm, pgd-2", "epsilon": "0.1", "alpha": "0.02", "random_start": "false"},
}
KEYS = [(section, key) for section, rows in _SCHEMA.items() for key in rows]
assert {(s, k) for s, keys in SMALL.items() for k in keys} == set(KEYS)

# Integers stay small: n_per_class and the hidden widths size real arrays.
# "csv" is not drawn: a csv config reads its data file, whose content is
# checked by load_csv, not by the config.
TOKENS = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(
        ["0", "0.0", "-0.0", "0.5", "-0.5", "1", "1.0", "1e-300", "1e6", "-1e6", "2.5e-2",
         "nan", "inf", "-inf", "1e309", "", "true", "false", "no", "none", "off",
         "fgsm", "pgd-0", "pgd-3", "pgd", "blobs", "moons", "relu", "identity", "cap",
         "clean", "vanilla_at", "minmax_to_unit", "(1,0)"]
    ),
    st.text(alphabet="abe019.,;:-() ", max_size=6),
)
VALUES = st.one_of(
    TOKENS,
    st.tuples(st.lists(TOKENS, min_size=2, max_size=4), st.sampled_from([",", ";", ":", " ; "])).map(
        lambda t: t[1].join(t[0])
    ),
)
NUMBER = re.compile(r"-?\d+(\.\d+)?")


@st.composite
def mutations(draw):
    """1-3 (section, key, new text): a key set to a fresh value, or one number
    inside its current value replaced."""
    out = {}
    for _ in range(draw(st.integers(1, 3))):
        section, key = draw(st.sampled_from(KEYS))
        current = SMALL[section][key]
        spots = list(NUMBER.finditer(current))
        if spots and draw(st.booleans()):
            m = spots[draw(st.integers(0, len(spots) - 1))]
            value = current[: m.start()] + draw(TOKENS) + current[m.end() :]
        else:
            value = draw(VALUES)
        out[(section, key)] = value
    return out


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("property") / "small.ini"
    path.write_text(render(SMALL))
    return str(path)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(change=mutations())
def test_mutated_config_is_rejected_naming_key_or_builds(small_config, change):
    overrides = {}
    for (section, key), value in change.items():
        overrides.setdefault(section, {})[key] = value
    try:
        rc = load_run_config(small_config, overrides)
    except ConfigError as exc:
        named = str(exc).split(":")[0]
        needed = {f"data.{key}" for keys in _DATA_NEEDS.values() for key in keys}
        assert named in {f"{s}.{k}" for s, k in change} or (
            named in needed and "required for" in str(exc)
        ), str(exc)
        return
    train_ds, _ = build_datasets(rc)
    build_model(rc, train_ds)
    build_train_config(rc)
    build_corner_config(rc)
    build_eval_suite(rc)
