"""Declarative run configuration: one JSON file drives every command.

Unknown keys are rejected anywhere in the tree so typos fail fast. The
global seed fans out to per-stage seeds through ``utils.stage_seed`` with
fixed stage names, which makes whole runs reproducible while keeping the
stages' random streams independent.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .explain import LimeParams
from .features import DaysToYears, FeatureCatalog, FeatureRecipe, Flag, Ratio
from .risk import Band, BandRule, RiskConfig
from .sampling import SmoteParams
from .tabular import AggregationSpec, Statistic
from .trees import BoostingParams, ForestParams
from .tuning import LEARNER_KINDS, CvPlan
from .utils import stage_seed

_BAND_KEYS = {"low": Band.LOW, "moderate": Band.MODERATE, "high": Band.HIGH}


@dataclass(frozen=True)
class AuxTableSpec:
    path: str
    spec: AggregationSpec


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
    aux_tables: tuple[AuxTableSpec, ...]
    catalog: FeatureCatalog
    smote_enabled: bool
    smote: SmoteParams
    cv: CvPlan
    metric: str
    threshold: float
    models: tuple[ModelSpec, ...]
    risk: RiskConfig
    amount_column: str
    term_column: str
    shap_sample: int
    lime: LimeParams
    report_model: str


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _check_keys(node: dict, allowed: set, path: str):
    _require(isinstance(node, dict), f"{path}: expected an object")
    unknown = set(node) - allowed
    _require(not unknown, f"{path}: unknown keys {sorted(unknown)}")


def _parse_recipe(entry: dict, i: int) -> FeatureRecipe:
    path = f"features[{i}]"
    _require(isinstance(entry, dict), f"{path}: expected an object")
    kind = entry.get("kind")
    if kind == "ratio":
        _check_keys(entry, {"name", "kind", "numerator", "denominator"}, path)
        return FeatureRecipe(entry["name"], Ratio(entry["numerator"], entry["denominator"]))
    if kind == "days_to_years":
        _check_keys(entry, {"name", "kind", "source"}, path)
        return FeatureRecipe(entry["name"], DaysToYears(entry["source"]))
    if kind == "flag":
        _check_keys(entry, {"name", "kind", "source", "op", "value"}, path)
        return FeatureRecipe(
            entry["name"], Flag(entry["source"], entry["op"], float(entry["value"]))
        )
    raise ConfigError(f"{path}: unknown recipe kind {kind!r}")


def _parse_aux(entry: dict, i: int) -> AuxTableSpec:
    path = f"data.aux[{i}]"
    _check_keys(entry, {"path", "key_column", "value_columns", "statistics"}, path)
    try:
        stats = tuple(Statistic(s) for s in entry["statistics"])
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return AuxTableSpec(
        entry["path"],
        AggregationSpec(entry["key_column"], tuple(entry["value_columns"]), stats),
    )


_FOREST_KEYS = {f.name for f in dataclasses.fields(ForestParams)}
_BOOSTED_KEYS = {f.name for f in dataclasses.fields(BoostingParams)} - {"growth"}


def _parse_models(node: dict, seed: int) -> tuple[ModelSpec, ...]:
    _require(isinstance(node, dict), "models: expected an object")
    specs = []
    for kind in node:
        _require(kind in LEARNER_KINDS, f"models: unknown learner {kind!r}")
        entry = node[kind]
        _check_keys(entry, {"params", "grid"}, f"models.{kind}")
        params = dict(entry.get("params", {}))
        grid = {k: list(v) for k, v in entry.get("grid", {}).items()}
        allowed = _FOREST_KEYS if kind == "forest" else _BOOSTED_KEYS
        for source, keys in (("params", params), ("grid", grid)):
            unknown = set(keys) - allowed
            _require(
                not unknown, f"models.{kind}.{source}: unknown parameters {sorted(unknown)}"
            )
        params.setdefault("seed", stage_seed(seed, f"model-{kind}"))
        specs.append(ModelSpec(kind, params, grid))
    _require(bool(specs), "models: at least one learner must be configured")
    return tuple(specs)


def _parse_risk(node: dict) -> tuple[RiskConfig, str, str]:
    _check_keys(
        node,
        {
            "t_low", "t_high", "base_rate", "premiums", "decisions", "band_rules",
            "amount_column", "term_column",
        },
        "risk",
    )
    kwargs = {}
    for key in ("t_low", "t_high", "base_rate"):
        if key in node:
            kwargs[key] = float(node[key])

    def per_band(section: str, parse):
        raw = node.get(section)
        if raw is None:
            return None
        _check_keys(raw, set(_BAND_KEYS), f"risk.{section}")
        return {_BAND_KEYS[k]: parse(v, f"risk.{section}.{k}") for k, v in raw.items()}

    premiums = per_band("premiums", lambda v, p: float(v))
    decisions = per_band("decisions", lambda v, p: str(v))

    def parse_rule(v: dict, path: str) -> BandRule:
        _check_keys(v, {"max_term_months", "collateral_above", "require_cosigner"}, path)
        return BandRule(
            max_term_months=int(v["max_term_months"]),
            collateral_above=(
                None if v.get("collateral_above") is None else float(v["collateral_above"])
            ),
            require_cosigner=bool(v.get("require_cosigner", False)),
        )

    rules = per_band("band_rules", parse_rule)
    if premiums is not None:
        kwargs["premiums"] = premiums
    if decisions is not None:
        kwargs["decisions"] = decisions
    if rules is not None:
        kwargs["band_rules"] = rules
    cfg = RiskConfig(**kwargs)
    return cfg, node.get("amount_column", "amt_credit"), node.get("term_column", "term_months")


_TOP_KEYS = {
    "seed", "output_dir", "corpus", "data", "features", "smote", "cv",
    "metric", "threshold", "models", "risk", "explain", "report",
}


def parse_config(doc: dict) -> RunConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    seed = int(doc.get("seed", 42))

    corpus = doc.get("corpus", {})
    _check_keys(corpus, {"dir", "n_rows", "train_fraction"}, "corpus")

    data = doc.get("data", {})
    _check_keys(
        data,
        {"application_train", "application_test", "id_column", "label_column", "aux"},
        "data",
    )
    _require("application_train" in data, "data.application_train is required")
    _require("application_test" in data, "data.application_test is required")

    smote_node = doc.get("smote", {})
    _check_keys(smote_node, {"enabled", "k", "target_ratio"}, "smote")
    smote = SmoteParams(
        k=int(smote_node.get("k", 5)),
        seed=stage_seed(seed, "smote"),
        target_ratio=float(smote_node.get("target_ratio", 1.0)),
    )

    cv_node = doc.get("cv", {})
    _check_keys(cv_node, {"n_folds"}, "cv")
    cv = CvPlan(n_folds=int(cv_node.get("n_folds", 5)), seed=stage_seed(seed, "cv"))

    risk_cfg, amount_column, term_column = _parse_risk(doc.get("risk", {}))

    explain_node = doc.get("explain", {})
    _check_keys(explain_node, {"shap_sample", "lime"}, "explain")
    lime_node = explain_node.get("lime", {})
    _check_keys(lime_node, {"n_samples", "kernel_width", "top_k", "alpha"}, "explain.lime")
    lime = LimeParams(
        n_samples=int(lime_node.get("n_samples", 5000)),
        kernel_width=(
            None if lime_node.get("kernel_width") is None else float(lime_node["kernel_width"])
        ),
        top_k=int(lime_node.get("top_k", 10)),
        alpha=float(lime_node.get("alpha", 1.0)),
        seed=0,  # replaced per applicant at explanation time
    )

    report_node = doc.get("report", {})
    _check_keys(report_node, {"model"}, "report")
    report_model = report_node.get("model", "best")
    _require(
        report_model == "best" or report_model in LEARNER_KINDS,
        f"report.model must be 'best' or one of {LEARNER_KINDS}",
    )

    recipes = tuple(_parse_recipe(e, i) for i, e in enumerate(doc.get("features", [])))
    metric = doc.get("metric", "roc_auc")
    threshold = float(doc.get("threshold", 0.5))
    _require(0.0 <= threshold <= 1.0, "threshold must be in [0, 1]")

    return RunConfig(
        seed=seed,
        output_dir=doc.get("output_dir", "out"),
        corpus_dir=corpus.get("dir", "corpus"),
        corpus_rows=int(corpus.get("n_rows", 10000)),
        corpus_train_fraction=float(corpus.get("train_fraction", 0.8)),
        application_train=data["application_train"],
        application_test=data["application_test"],
        id_column=data.get("id_column", "applicant_id"),
        label_column=data.get("label_column", "target"),
        aux_tables=tuple(_parse_aux(e, i) for i, e in enumerate(data.get("aux", []))),
        catalog=FeatureCatalog(recipes),
        smote_enabled=bool(smote_node.get("enabled", True)),
        smote=smote,
        cv=cv,
        metric=metric,
        threshold=threshold,
        models=_parse_models(doc.get("models", {}), seed),
        risk=risk_cfg,
        amount_column=amount_column,
        term_column=term_column,
        shap_sample=int(explain_node.get("shap_sample", 1000)),
        lime=lime,
        report_model=report_model,
    )


def load_config(path: str | os.PathLike) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    # Environment override for the output directory.
    cfg = parse_config(doc)
    env_out = os.environ.get("RISKFORGE_OUT")
    if env_out:
        cfg = dataclasses.replace(cfg, output_dir=env_out)
    return cfg


def default_config_dict(
    corpus_dir: str = "corpus", output_dir: str = "out", n_rows: int = 10000, seed: int = 42
) -> dict:
    """The canonical configuration for the bundled synthetic corpus."""
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
        "smote": {"enabled": True, "k": 5, "target_ratio": 1.0},
        "cv": {"n_folds": 5},
        "metric": "roc_auc",
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
            "t_low": 0.08,
            "t_high": 0.2,
            "base_rate": 8.0,
            "premiums": {"low": 0.0, "moderate": 4.0, "high": 9.0},
            "decisions": {"low": "approve", "moderate": "review", "high": "reject"},
            "band_rules": {
                "low": {"max_term_months": 360},
                "moderate": {"max_term_months": 240, "collateral_above": 500000.0},
                "high": {
                    "max_term_months": 120,
                    "collateral_above": 250000.0,
                    "require_cosigner": True,
                },
            },
            "amount_column": "amt_credit",
            "term_column": "term_months",
        },
        "explain": {
            "shap_sample": 1000,
            "lime": {"n_samples": 5000, "top_k": 10, "alpha": 1.0, "kernel_width": None},
        },
        "report": {"model": "best"},
    }
