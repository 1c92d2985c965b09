"""Command-line orchestration: prepare -> train -> evaluate -> assess,
plus the synthetic corpus generator.

Every command is a pure function of (config, seed): outputs land under the
configured output directory and rerunning a command overwrites them with
identical bytes. Exit codes: 0 success, 1 internal error, 2 user error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import os
import sys

import numpy as np

from . import metrics as metrics_mod
from . import report as report_mod
from .config import RunConfig, load_config
from .corpus import generate_corpus
from .errors import ConfigError, DataError, RiskforgeError, UserError
from .explain import TreeShapExplainer, lime_explain, shap_summary
from .features import apply_recipes
from .preprocess import (
    FittedPipeline,
    fit_pipeline,
    pipeline_from_doc,
    pipeline_to_doc,
    transform,
)
from .risk import assess, portfolio_impact
from .sampling import LabeledMatrix
from .tabular import ColumnKind, Table, aggregate_merge, read_csv, select_columns
from .trees import model_from_doc, model_to_doc, predict_proba
from .tuning import grid_search, search_result_to_doc
from .utils import dump_json, load_json, stage_seed
from .validation import validate


def _prepared_dir(cfg: RunConfig) -> str:
    return os.path.join(cfg.output_dir, "prepared")


def _models_dir(cfg: RunConfig) -> str:
    return os.path.join(cfg.output_dir, "models")


def write_matrix_csv(path: str, feature_names, matrix: np.ndarray) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(list(feature_names))
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in matrix.tolist())


def read_matrix_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = list(reader)
    cells = np.fromiter(map(float, itertools.chain.from_iterable(rows)), np.float64)
    return names, cells.reshape(len(rows), len(names))


def write_labels_csv(path: str, ids, labels: np.ndarray) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["applicant_id", "label"])
        writer.writerows(zip(ids, labels.tolist()))


def read_labels_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [row[0] for row in rows], np.array([int(row[1]) for row in rows], dtype=np.int64)


def _load_application(cfg: RunConfig, path: str) -> Table:
    hint = {cfg.id_column: ColumnKind.CATEGORICAL}
    table = read_csv(path, schema_hint=hint)
    for required in (cfg.id_column, cfg.label_column):
        if not table.has_column(required):
            raise DataError(f"{path}: required column {required!r} is missing")
    ids = table.column(cfg.id_column)
    first = np.zeros(table.row_count, dtype=bool)
    first[np.unique(ids.values, return_index=True)[1]] = True
    repeats = np.flatnonzero(~first)
    if repeats.size:
        raise DataError(f"{path}: duplicate applicant id {ids.cell(repeats[0])!r}")
    return table


def _merge_and_engineer(cfg: RunConfig, table: Table) -> Table:
    for aux_spec in cfg.aux_tables:
        aux = read_csv(
            aux_spec.path, schema_hint={aux_spec.spec.key_column: ColumnKind.CATEGORICAL}
        )
        table = aggregate_merge(table, aux, aux_spec.spec)
    return apply_recipes(table, cfg.catalog)


def _labels_from(table: Table, label_column: str) -> np.ndarray:
    col = table.column(label_column)
    if col.kind is not ColumnKind.NUMERIC:
        raise DataError(f"label column {label_column!r} must be numeric 0/1")
    bad = np.flatnonzero((col.values != 0.0) & (col.values != 1.0))  # NaN too
    if bad.size:
        raise DataError(
            f"label column {label_column!r} holds non-0/1 value {col.cell(bad[0])!r}"
        )
    return col.values.astype(np.int64)


def _feature_table(cfg: RunConfig, table: Table) -> Table:
    names = [
        n for n in table.column_names if n not in (cfg.id_column, cfg.label_column)
    ]
    return select_columns(table, names)


def cmd_gen_corpus(cfg: RunConfig) -> list[str]:
    paths = generate_corpus(
        cfg.corpus_dir, cfg.seed, cfg.corpus_rows, cfg.corpus_train_fraction
    )
    return list(dataclasses.astuple(paths))


def cmd_prepare(cfg: RunConfig) -> list[str]:
    """Merge, engineer and fit-transform; test data uses train-fitted states."""
    train_raw = _load_application(cfg, cfg.application_train)
    test_raw = _load_application(cfg, cfg.application_test)
    train_full = _merge_and_engineer(cfg, train_raw)
    test_full = _merge_and_engineer(cfg, test_raw)

    train_features = _feature_table(cfg, train_full)
    test_features = _feature_table(cfg, test_full)
    pipeline = fit_pipeline(train_features)
    train_matrix = transform(pipeline, train_features)
    test_matrix = transform(pipeline, test_features)

    out = _prepared_dir(cfg)
    doc = pipeline_to_doc(pipeline)
    validate(doc, "pipeline")
    written = [os.path.join(out, "pipeline.json")]
    dump_json(doc, written[0])

    pairs = [
        ("train", train_full, train_matrix),
        ("test", test_full, test_matrix),
    ]
    for name, full, matrix in pairs:
        feat_path = os.path.join(out, f"{name}_features.csv")
        write_matrix_csv(feat_path, matrix.feature_names, matrix.values)
        label_path = os.path.join(out, f"{name}_labels.csv")
        write_labels_csv(
            label_path,
            full.column(cfg.id_column).strings(),
            _labels_from(full, cfg.label_column),
        )
        written.extend([feat_path, label_path])
    return written


def _load_prepared(cfg: RunConfig):
    out = _prepared_dir(cfg)
    pipe_path = os.path.join(out, "pipeline.json")
    if not os.path.exists(pipe_path):
        raise UserError(f"prepared artifacts not found under {out}; run prepare first")
    pipeline = pipeline_from_doc(load_json(pipe_path))
    names_tr, train = read_matrix_csv(os.path.join(out, "train_features.csv"))
    names_te, test = read_matrix_csv(os.path.join(out, "test_features.csv"))
    ids_tr, y_tr = read_labels_csv(os.path.join(out, "train_labels.csv"))
    ids_te, y_te = read_labels_csv(os.path.join(out, "test_labels.csv"))
    if tuple(names_tr) != tuple(pipeline.feature_names) or tuple(names_te) != tuple(
        pipeline.feature_names
    ):
        raise DataError("prepared matrices do not match the pipeline feature names")
    return pipeline, (ids_tr, train, y_tr), (ids_te, test, y_te)


def cmd_train(cfg: RunConfig) -> list[str]:
    """Grid-search each configured learner and persist model + search record."""
    pipeline, (_, train, y_tr), _ = _load_prepared(cfg)
    data = LabeledMatrix(train, y_tr)
    smote_params = cfg.smote if cfg.smote_enabled else None
    written = []
    for spec in cfg.models:
        result, model = grid_search(
            data,
            spec.grid,
            cfg.cv,
            spec.kind,
            metric=cfg.metric,
            defaults=spec.params,
            smote_params=smote_params,
            feature_names=pipeline.feature_names,
        )
        model_doc = model_to_doc(model)
        validate(model_doc, "model")
        model_path = os.path.join(_models_dir(cfg), f"{spec.kind}.json")
        dump_json(model_doc, model_path)
        search_doc = search_result_to_doc(result)
        validate(search_doc, "search_result")
        search_path = os.path.join(_models_dir(cfg), f"{spec.kind}_search.json")
        dump_json(search_doc, search_path)
        written.extend([model_path, search_path])
    return written


def _load_models(cfg: RunConfig) -> dict:
    models = {}
    for spec in cfg.models:
        path = os.path.join(_models_dir(cfg), f"{spec.kind}.json")
        if not os.path.exists(path):
            raise UserError(f"model file {path} not found; run train first")
        models[spec.kind] = model_from_doc(load_json(path))
    return models


def _raw_test_assessment_inputs(cfg: RunConfig, prepared_ids) -> tuple[list, list]:
    """Loan amount and term per test applicant, from the raw test CSV.

    Every amount must be a finite number > 0 and every term a whole number
    >= 1; the applicants must be those of the prepared test matrix.
    """
    path = cfg.application_test
    table = _load_application(cfg, path)
    for column in (cfg.amount_column, cfg.term_column):
        if not table.has_column(column):
            raise DataError(f"{path}: assessment column {column!r} is missing")
    ids = table.column(cfg.id_column).strings()
    amounts, terms = table.column(cfg.amount_column), table.column(cfg.term_column)
    a, t = (
        c.values if c.kind is ColumnKind.NUMERIC else np.full(len(ids), np.nan)
        for c in (amounts, terms)
    )
    rules = (  # a missing (NaN) or text cell breaks its rule
        (amounts, a > 0, "a finite number > 0"),
        (terms, (t >= 1) & (np.floor(t) == t), "a whole number >= 1"),
    )
    bad = np.flatnonzero(~(rules[0][1] & rules[1][1]))
    if bad.size:
        k = bad[0]
        col, _, rule = next(r for r in rules if not r[1][k])
        raise DataError(
            f"{path}: applicant {ids[k]}: {col.name!r} must be {rule}, got {col.cell(k)!r}"
        )
    if ids != list(prepared_ids):
        raise DataError("test CSV and prepared test matrix are out of sync")
    return amounts.values.tolist(), [int(t) for t in terms.values.tolist()]


def _evaluate_models(
    cfg: RunConfig, models: dict, test_split, amounts, terms
) -> list[report_mod.ModelEvaluation]:
    """Per-model metrics and business impact on the prepared test split."""
    ids_te, test, y_te = test_split
    evaluations = []
    for order, (kind, model) in enumerate(models.items()):
        probs = predict_proba(model, test)
        cm = metrics_mod.confusion(y_te, probs, cfg.threshold)
        curve = metrics_mod.roc_auc(y_te, probs)
        assessments = [
            assess(float(p), a, t, cfg.risk, applicant_id=i)
            for p, a, t, i in zip(probs, amounts, terms, ids_te)
        ]
        impact = portfolio_impact(assessments, y_te, cfg.threshold)
        evaluations.append(
            (
                order,
                report_mod.ModelEvaluation(
                    name=kind,
                    confusion=cm,
                    accuracy=metrics_mod.accuracy(cm).value,
                    precision=metrics_mod.precision(cm).value,
                    recall=metrics_mod.recall(cm).value,
                    f1=metrics_mod.f1_score(cm).value,
                    roc_auc=curve.auc,
                    roc_curve=curve,
                    business=impact.business,
                    impact=impact,
                    assessments=tuple(assessments),
                ),
            )
        )
    evaluations.sort(key=lambda pair: (-pair[1].roc_auc, pair[0]))
    return [ev for _, ev in evaluations]


def cmd_evaluate(cfg: RunConfig) -> list[str]:
    """Per-model metrics and business impact at the configured threshold."""
    models = _load_models(cfg)
    _, _, test_split = _load_prepared(cfg)
    amounts, terms = _raw_test_assessment_inputs(cfg, test_split[0])
    evaluations = _evaluate_models(cfg, models, test_split, amounts, terms)
    doc = {
        "format": "riskforge.evaluation/1",
        "threshold": cfg.threshold,
        "models": [report_mod.evaluation_block(ev) for ev in evaluations],
    }
    validate(doc, "evaluation")
    path = os.path.join(cfg.output_dir, "evaluation.json")
    dump_json(doc, path)
    return [path]


def cmd_assess_and_report(cfg: RunConfig, ids=None) -> list[str]:
    """Applicant reports for the selected ids plus business and XAI reports."""
    models = _load_models(cfg)
    pipeline, (_, train, _), test_split = _load_prepared(cfg)
    ids_te, test, _ = test_split
    amounts, terms = _raw_test_assessment_inputs(cfg, ids_te)
    evaluations = _evaluate_models(cfg, models, test_split, amounts, terms)
    written = []

    business = report_mod.BusinessImpactReport(evaluations, cfg.threshold)
    written.extend(report_mod.render_business(business, cfg.output_dir))

    # XAI summaries over a seeded sample of test rows, best model first.
    rng = np.random.default_rng(stage_seed(cfg.seed, "shap-sample"))
    sample_size = min(cfg.shap_sample, test.shape[0])
    sample_rows = np.sort(rng.choice(test.shape[0], size=sample_size, replace=False))
    summaries = {}
    for ev in evaluations:
        summaries[ev.name] = shap_summary(models[ev.name], test[sample_rows])
    xai = report_mod.XaiReport(
        summaries, sample_size, seed=stage_seed(cfg.seed, "beeswarm")
    )
    written.extend(report_mod.render_xai(xai, cfg.output_dir))

    report_kind = cfg.report_model
    if report_kind == "best":
        report_kind = evaluations[0].name
    model = models[report_kind]
    assessments = next(ev.assessments for ev in evaluations if ev.name == report_kind)
    explainer = TreeShapExplainer(model)
    # Applicants in the SHAP sample reuse the summary's phi and margin.
    summary = summaries[report_kind]
    sample_position = {int(k): j for j, k in enumerate(sample_rows)}

    index_of = {i: k for k, i in enumerate(ids_te)}
    chosen = list(ids_te) if ids is None else list(ids)
    for applicant_id in chosen:
        if applicant_id not in index_of:
            raise ConfigError(f"unknown applicant id {applicant_id!r}")

    mu = train.mean(axis=0)
    sd = train.std(axis=0)
    for applicant_id in chosen:
        k = index_of[applicant_id]
        if k in sample_position:
            shap_exp = summary.explanation(sample_position[k], instance_id=applicant_id)
        else:
            shap_exp = explainer.explain(test[k], instance_id=applicant_id)
        lime_params = dataclasses.replace(
            cfg.lime, seed=stage_seed(cfg.seed, f"lime-{applicant_id}")
        )
        lime_exp = lime_explain(
            model,
            test[k],
            (mu, sd),
            lime_params,
            feature_names=pipeline.feature_names,
            instance_id=applicant_id,
        )
        applicant = report_mod.ApplicantReport(
            assessment=assessments[k],
            shap=shap_exp,
            lime=lime_exp,
            model_name=report_kind,
        )
        written.extend(report_mod.render_applicant(applicant, cfg.output_dir))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riskforge",
        description="Credit-default scoring pipeline: prepare, train, evaluate, "
        "assess, and generate the synthetic corpus.",
    )
    parser.add_argument(
        "command",
        choices=["prepare", "train", "evaluate", "assess", "gen-corpus"],
    )
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument(
        "--threads", type=int, choices=[1], help="riskforge runs on one thread; only 1 is accepted"
    )
    parser.add_argument(
        "--ids", default=None, help="comma-separated applicant ids (assess only)"
    )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command == "gen-corpus":
            written = cmd_gen_corpus(cfg)
        elif args.command == "prepare":
            written = cmd_prepare(cfg)
        elif args.command == "train":
            written = cmd_train(cfg)
        elif args.command == "evaluate":
            written = cmd_evaluate(cfg)
        else:
            ids = None if args.ids is None else [i for i in args.ids.split(",") if i]
            written = cmd_assess_and_report(cfg, ids)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RiskforgeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
