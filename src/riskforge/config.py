"""Declarative run configuration: one JSON file drives every command.

A section backed by a dataclass is read by ``_read`` from its fields: the
keys are the field names, a missing key takes the field default, and a field
without one is required. Other scalars are read by ``_get``, each default
written once, in ``parse_config``. Values must have the annotated type (a
JSON integer passes as a float; no string or bool is coerced; a float must be
finite), and unknown keys are rejected anywhere in the tree, so typos fail
fast. The global seed fans out to independent per-stage seeds through
``utils.stage_seed``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
from dataclasses import MISSING, dataclass

from .corpus import MAX_CORPUS_ROWS, MIN_CORPUS_ROWS
from .errors import ConfigError, DataError
from .explain import LimeParams
from .features import DaysToYears, Ratio
from .risk import Band, BandRule, RiskConfig
from .sampling import SmoteParams
from .tabular import AggregationSpec, Statistic
from .tuning import LEARNERS, CvPlan, _build_params, enumerate_grid
from .utils import stage_seed

_BAND_KEYS = {"low": Band.LOW, "moderate": Band.MODERATE, "high": Band.HIGH}
_RECIPES = {"ratio": Ratio, "days_to_years": DaysToYears}
_TYPES = {"int": int, "float": float, "bool": bool, "str": str, "list": list, "dict": dict}


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    params: dict
    grid: dict


@dataclass(frozen=True)
class RunConfig:
    seed: int
    output_dir: str
    corpus_dir: str
    corpus_rows: int
    corpus_train_fraction: float
    application_train: str
    application_test: str
    id_column: str
    label_column: str
    aux_tables: tuple[tuple[str, AggregationSpec], ...]  # (path, spec)
    recipes: tuple[Ratio | DaysToYears, ...]
    smote_enabled: bool
    smote: SmoteParams
    cv: CvPlan
    threshold: float
    models: tuple[ModelSpec, ...]
    risk: RiskConfig
    amount_column: str
    term_column: str
    shap_sample: int
    lime: LimeParams


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_keys(node: dict, allowed: set, path: str) -> dict:
    unknown = set(_value(node, "dict", path)) - allowed
    _require(not unknown, f"{path}: unknown keys {sorted(unknown)}")
    return node


def _value(value, annotation: str, path: str):
    """``value`` if it has the type ``annotation`` names: ``int``, ``float``,
    ``bool``, ``str``, ``list``, ``dict``, ``list[<type>]`` or ``<type> | None``.
    A JSON integer passes as a float and is returned as one; a float must be
    finite (``json`` reads ``NaN``, ``Infinity`` and ``1e400``)."""
    kind, _, rest = annotation.partition(" | ")
    if value is None and rest == "None":
        return None
    if kind.startswith("list["):
        items = _value(value, "list", path)
        return [_value(v, kind[5:-1], f"{path}[{i}]") for i, v in enumerate(items)]
    if kind == "float" and type(value) is int:
        _require(abs(value) <= sys.float_info.max, f"{path}: {kind} out of range")
        return float(value)
    _require(
        type(value) is _TYPES[kind] and (kind != "float" or math.isfinite(value)),
        f"{path}: expected {annotation}, got {json.dumps(value)}",
    )
    return value


def _get(node: dict, path: str, annotation: str, default=MISSING):
    """The value under the last key of ``path`` in ``node``, or ``default``;
    without a default the key is required."""
    key = path.rpartition(".")[2]
    if key in node:
        return _value(node[key], annotation, path)
    _require(default is not MISSING, f"{path} is required")
    return default


def _read(cls, node: dict, path: str, extra=(), **fixed):
    """Dataclass ``cls`` from the JSON object ``node``, whose keys are the
    fields not in ``fixed`` plus the ``extra`` keys that the caller reads. A
    missing key takes the field's default; a field without one is required.
    Values are checked against the (string) field annotations, and a
    ``ConfigError`` or ``DataError`` the class raises becomes a
    ``ConfigError`` prefixed with ``path``."""
    fields = [f for f in dataclasses.fields(cls) if f.name not in fixed]
    _check_keys(node, {f.name for f in fields} | set(extra), path)
    for f in fields:
        if f.name in node or f.default is MISSING and f.default_factory is MISSING:
            fixed[f.name] = _get(node, f"{path}.{f.name}", f.type)
    try:
        return cls(**fixed)
    except (ConfigError, DataError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_recipe(entry: dict, i: int) -> Ratio | DaysToYears:
    path = f"features[{i}]"
    kind = _get(_value(entry, "dict", path), f"{path}.kind", "str", None)
    _require(kind in _RECIPES, f"{path}: unknown recipe kind {kind!r}")
    return _read(_RECIPES[kind], entry, path, ("kind",))


def _parse_aux(entry: dict, i: int) -> tuple[str, AggregationSpec]:
    path = f"data.aux[{i}]"
    _check_keys(entry, {"path", "key_column", "value_columns", "statistics"}, path)
    try:
        stats = tuple(Statistic(s) for s in _get(entry, f"{path}.statistics", "list[str]"))
        return _get(entry, f"{path}.path", "str"), AggregationSpec(
            _get(entry, f"{path}.key_column", "str"),
            tuple(_get(entry, f"{path}.value_columns", "list[str]")),
            stats,
        )
    except (ValueError, DataError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_models(node: dict, seed: int) -> tuple[ModelSpec, ...]:
    """Learner params and grids are checked against the params dataclass's
    annotations but kept as written, so the model files echo them; each grid
    candidate's params are built here, so a bad value fails before ``train``."""
    specs = []
    for kind, entry in _value(node, "dict", "models").items():
        _require(kind in LEARNERS, f"models: unknown learner {kind!r}")
        path = f"models.{kind}"
        _check_keys(entry, {"params", "grid"}, path)
        cls, fixed, _ = LEARNERS[kind]
        types = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in fixed}
        params = dict(_get(entry, f"{path}.params", "dict", {}))
        grid = _get(entry, f"{path}.grid", "dict", {})
        for source, values, form in (("params", params, "{}"), ("grid", grid, "list[{}]")):
            unknown = set(values) - set(types)
            _require(not unknown, f"{path}.{source}: unknown parameters {sorted(unknown)}")
            for key, v in values.items():
                _value(v, form.format(types[key]), f"{path}.{source}.{key}")
        params.setdefault("seed", stage_seed(seed, f"model-{kind}"))
        for source, overrides in [("params", {}), *(("grid", o) for o in enumerate_grid(grid))]:
            try:
                _build_params(kind, params, overrides)
            except DataError as exc:
                raise ConfigError(f"{path}.{source}: {exc}") from exc
        specs.append(ModelSpec(kind, params, {k: list(v) for k, v in grid.items()}))
    _require(bool(specs), "models: at least one learner must be configured")
    return tuple(specs)


def _per_band(node: dict, path: str, read) -> dict:
    _check_keys(node, set(_BAND_KEYS), path)
    return {_BAND_KEYS[k]: read(v, f"{path}.{k}") for k, v in node.items()}


_BAND_READERS = {
    "premiums": lambda v, path: _value(v, "float", path),
    "decisions": lambda v, path: _value(v, "str", path),
    "band_rules": lambda v, path: _read(BandRule, v, path),
}

_TOP_KEYS = {
    "seed", "output_dir", "corpus", "data", "features", "smote", "cv",
    "threshold", "models", "risk", "explain",
}


def parse_config(doc: dict) -> RunConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    seed = _get(doc, "seed", "int", 42)
    corpus = _check_keys(doc.get("corpus", {}), {"dir", "n_rows", "train_fraction"}, "corpus")
    data = _check_keys(
        doc.get("data", {}),
        {"application_train", "application_test", "id_column", "label_column", "aux"},
        "data",
    )
    smote = _get(doc, "smote", "dict", {})
    risk = _get(doc, "risk", "dict", {})
    bands = {
        section: _per_band(risk[section], f"risk.{section}", read)
        for section, read in _BAND_READERS.items()
        if section in risk
    }
    explain = _check_keys(doc.get("explain", {}), {"shap_sample", "lime"}, "explain")
    models = _parse_models(doc.get("models", {}), seed)
    threshold = _get(doc, "threshold", "float", 0.5)
    _require(0.0 <= threshold <= 1.0, "threshold must be in [0, 1]")
    corpus_rows = _get(corpus, "corpus.n_rows", "int", 10000)
    _require(
        corpus_rows >= MIN_CORPUS_ROWS,
        f"corpus.n_rows must be >= {MIN_CORPUS_ROWS}, got {corpus_rows}",
    )
    _require(
        corpus_rows <= MAX_CORPUS_ROWS,
        f"corpus.n_rows must be <= {MAX_CORPUS_ROWS}, got {corpus_rows}",
    )
    train_fraction = _get(corpus, "corpus.train_fraction", "float", 0.8)
    _require(
        0.0 < train_fraction < 1.0,
        f"corpus.train_fraction must be in (0, 1), got {train_fraction}",
    )
    shap_sample = _get(explain, "explain.shap_sample", "int", 1000)
    _require(shap_sample >= 1, f"explain.shap_sample must be >= 1, got {shap_sample}")
    aux = _get(data, "data.aux", "list", [])
    features = _get(doc, "features", "list", [])

    return RunConfig(
        seed=seed,
        output_dir=_get(doc, "output_dir", "str", "out"),
        corpus_dir=_get(corpus, "corpus.dir", "str", "corpus"),
        corpus_rows=corpus_rows,
        corpus_train_fraction=train_fraction,
        application_train=_get(data, "data.application_train", "str"),
        application_test=_get(data, "data.application_test", "str"),
        id_column=_get(data, "data.id_column", "str", "applicant_id"),
        label_column=_get(data, "data.label_column", "str", "target"),
        aux_tables=tuple(_parse_aux(e, i) for i, e in enumerate(aux)),
        recipes=tuple(_parse_recipe(e, i) for i, e in enumerate(features)),
        smote=_read(SmoteParams, smote, "smote", ("enabled",), seed=stage_seed(seed, "smote")),
        smote_enabled=_get(smote, "smote.enabled", "bool", True),
        cv=_read(CvPlan, doc.get("cv", {}), "cv", seed=stage_seed(seed, "cv")),
        threshold=threshold,
        models=models,
        risk=_read(RiskConfig, risk, "risk", ("amount_column", "term_column", *bands), **bands),
        amount_column=_get(risk, "risk.amount_column", "str", "amt_credit"),
        term_column=_get(risk, "risk.term_column", "str", "term_months"),
        shap_sample=shap_sample,
        lime=_read(LimeParams, explain.get("lime", {}), "explain.lime"),
    )


def load_config(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} is nested too deep") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return parse_config(doc)


def _section(value):
    """``value`` written as config JSON that ``_read`` reads back to it: a
    dataclass as its fields but the derived ``seed``, a per-band dict keyed
    by band name."""
    if dataclasses.is_dataclass(value):
        fields = (f.name for f in dataclasses.fields(value) if f.name != "seed")
        return {name: _section(getattr(value, name)) for name in fields}
    if isinstance(value, dict):
        return {key: _section(value[band]) for key, band in _BAND_KEYS.items()}
    return value


def default_config_dict(
    corpus_dir: str = "corpus", output_dir: str = "out", n_rows: int = 10000, seed: int = 42
) -> dict:
    """The canonical configuration for the bundled synthetic corpus; the
    sections read into a dataclass hold its defaults."""
    cd = corpus_dir.rstrip("/")
    return {
        "seed": seed,
        "output_dir": output_dir,
        "corpus": {"dir": cd, "n_rows": n_rows, "train_fraction": 0.8},
        "data": {
            "application_train": f"{cd}/application_train.csv",
            "application_test": f"{cd}/application_test.csv",
            "id_column": "applicant_id",
            "label_column": "target",
            "aux": [
                {
                    "path": f"{cd}/bureau.csv",
                    "key_column": "applicant_id",
                    "value_columns": ["amt_credit_sum", "days_credit"],
                    "statistics": ["mean", "max", "count"],
                },
                {
                    "path": f"{cd}/payments.csv",
                    "key_column": "applicant_id",
                    "value_columns": ["amt_payment"],
                    "statistics": ["mean", "sum", "count"],
                },
            ],
        },
        "features": [
            {
                "name": "CREDIT_TO_GOODS_RATIO",
                "kind": "ratio",
                "numerator": "amt_credit",
                "denominator": "amt_goods_price",
            },
            {"name": "AGE_YEARS", "kind": "days_to_years", "source": "days_birth"},
            {"name": "YEARS_EMPLOYED", "kind": "days_to_years", "source": "days_employed"},
            {
                "name": "INCOME_TO_CREDIT_RATIO",
                "kind": "ratio",
                "numerator": "amt_income_total",
                "denominator": "amt_credit",
            },
        ],
        "smote": {"enabled": True, **_section(SmoteParams())},
        "cv": _section(CvPlan()),
        "threshold": 0.5,
        "models": {
            "boosted_leafwise": {
                "params": {"n_trees": 60, "max_leaves": 15, "learning_rate": 0.1},
                "grid": {"learning_rate": [0.05, 0.1]},
            },
            "boosted_levelwise": {
                "params": {"n_trees": 60, "learning_rate": 0.1},
                "grid": {"max_depth": [4, 6]},
            },
            "forest": {
                "params": {"n_trees": 40, "max_depth": 6, "feature_fraction": 0.2},
                "grid": {},
            },
        },
        "risk": {
            **_section(RiskConfig()),
            "amount_column": "amt_credit",
            "term_column": "term_months",
        },
        "explain": {"shap_sample": 1000, "lime": _section(LimeParams())},
    }
