"""Command-line orchestration: prepare -> train -> evaluate -> assess,
plus the synthetic corpus generator.

Every command is a pure function of (config, seed): outputs land under the
configured output directory and rerunning a command overwrites them with
identical bytes. Exit codes: 0 success, 1 internal error, 2 user error.

Raw application files and prepared label files are read by one loader, which
keeps one id rule and one 0/1 label rule for both.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import os
import sys

import numpy as np

from . import metrics as metrics_mod
from . import report as report_mod
from .config import RunConfig, load_config
from .corpus import generate_corpus
from .errors import ConfigError, CsvError, DataError, RiskforgeError, UserError
from .explain import lime_explain, shap_summary
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
from .tabular import Column, ColumnKind, Table, aggregate_merge, read_csv, select_columns
from .trees import model_from_doc, model_to_doc, predict_proba
from .tuning import grid_search
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
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in matrix)


def read_matrix_csv(path: str) -> tuple[list[str], np.ndarray]:
    """The header and float matrix of a CSV file; every row must have as
    many fields as the header. Cells are parsed as they are read, so no
    more than one row is held as strings."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        n_rows = 0

        def fields(row):
            nonlocal n_rows
            n_rows += 1
            if len(row) != len(names):
                raise CsvError(f"row {n_rows + 1} has {len(row)} fields, expected {len(names)}")
            return row

        try:
            names = next(reader, [])
            cells = itertools.chain.from_iterable(map(fields, reader))
            matrix = np.fromiter(map(float, cells), np.float64)
        except csv.Error as exc:
            raise CsvError(f"line {reader.line_num}: {exc}") from exc
    return names, matrix.reshape(n_rows, len(names))


def write_labels_csv(path: str, ids, labels: np.ndarray) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["applicant_id", "label"])
        writer.writerows(zip(ids, labels.tolist()))


def _check_applicant_ids(ids: list) -> None:
    """Each applicant id names its report directory under applicants/, so it
    must be present (not None or empty), not ``.`` or ``..``, hold no ``/``,
    ``\\`` or NUL, and be unique. The first unsafe id fails, naming its row,
    before any duplicate does."""
    unsafe = {
        v for v in set(ids)
        if not v or v in (".", "..") or "/" in v or "\\" in v or "\0" in v
    }
    if unsafe:
        k = next(k for k, v in enumerate(ids) if v in unsafe)
        what = f"{ids[k]!r} cannot name a directory" if ids[k] else "missing"
        raise DataError(f"row {k + 2}: applicant id {what}")
    seen = set()
    for k, v in enumerate(ids, 2):
        if v in seen:
            raise DataError(f"row {k}: duplicate applicant id {v!r}")
        seen.add(v)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan


def _check_labels(col: Column) -> np.ndarray:
    """The labels of the text column ``col``: each must read as the number 0
    or 1. The first other cell, missing ones too, fails naming its row."""
    values = np.array([*map(_float, col.vocabulary), np.nan])[col.values]
    bad = np.flatnonzero((values != 0.0) & (values != 1.0))  # NaN too
    if bad.size:
        k = bad[0]
        what = f"must be 0 or 1, got {col.cell(k)!r}" if col.values[k] >= 0 else "missing"
        raise DataError(f"row {k + 2}: label {col.name!r} {what}")
    return values.astype(np.int64)


def _read_applicants(path: str, id_column: str, label_column: str, keys=()):
    """(table, ids, labels) of a raw application or prepared labels file,
    with the id, label and ``keys`` columns read as text and checked by
    ``_check_applicant_ids`` and ``_check_labels``, naming ``path`` once."""
    table = read_csv(path, categorical=[id_column, label_column, *keys])
    try:
        ids = table.column(id_column).strings()
        _check_applicant_ids(ids)
        return table, ids, _check_labels(table.column(label_column))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def read_labels_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Applicant ids and 0/1 labels of a file ``write_labels_csv`` wrote."""
    return _read_applicants(path, "applicant_id", "label")[1:]


#: Header of prepared/test_loans.csv, and the rule each of its columns keeps.
LOAN_COLUMNS = ("amount", "term_months")
_LOAN_RULES = ("a finite number > 0", "a whole number >= 1")


def _check_loans(path: str, ids, loans: np.ndarray, names, cell) -> None:
    """The first row of ``loans`` whose amount or term breaks ``_LOAN_RULES``
    fails, naming its applicant, its column ``names[j]`` and ``cell(k, j)``."""
    a, t = loans.T
    whole = np.isfinite(t) & (t >= 1) & (np.floor(t) == t)
    ok = np.column_stack((np.isfinite(a) & (a > 0), whole))
    bad = np.argwhere(~ok)  # a missing (NaN) cell breaks its rule
    if bad.size:
        k, j = bad[0]
        raise DataError(
            f"{path}: applicant {ids[k]}: {names[j]!r} must be {_LOAN_RULES[j]}, "
            f"got {cell(k, j)!r}"
        )


def _test_loans(cfg: RunConfig, table: Table, ids) -> np.ndarray:
    """(amount, term) per applicant ``ids`` of the raw test ``table``, checked."""
    path = cfg.application_test
    for column in (cfg.amount_column, cfg.term_column):
        if not table.has_column(column):
            raise DataError(f"{path}: assessment column {column!r} is missing")
    cols = [table.column(cfg.amount_column), table.column(cfg.term_column)]
    loans = np.column_stack([  # a text column breaks its rule in every row
        c.values if c.kind is ColumnKind.NUMERIC else np.full(table.row_count, np.nan)
        for c in cols
    ])
    _check_loans(path, ids, loans, [c.name for c in cols], lambda k, j: cols[j].cell(k))
    return loans


def _feature_table(cfg: RunConfig, table: Table) -> Table:
    """Every column but the id, the label and the aux key columns."""
    keys = {cfg.id_column, cfg.label_column, *(spec.key_column for _, spec in cfg.aux_tables)}
    return select_columns(table, [n for n in table.column_names if n not in keys])


def cmd_gen_corpus(cfg: RunConfig) -> list[str]:
    return generate_corpus(cfg.corpus_dir, cfg.seed, cfg.corpus_rows, cfg.corpus_train_fraction)


def cmd_prepare(cfg: RunConfig) -> list[str]:
    """Merge, engineer and fit-transform; test data uses the train-fitted pipeline.
    LIME's per-feature mean and std of the train matrix go to feature_stats.csv,
    and each test applicant's loan amount and term to test_loans.csv."""
    keys = [spec.key_column for _, spec in cfg.aux_tables]
    splits = {  # split: (table, ids, labels); merge and recipes only add columns
        name: _read_applicants(path, cfg.id_column, cfg.label_column, keys)
        for name, path in (("train", cfg.application_train), ("test", cfg.application_test))
    }
    loans = _test_loans(cfg, *splits["test"][:2])
    auxes = [
        (read_csv(path, categorical=[spec.key_column]), spec) for path, spec in cfg.aux_tables
    ]
    fulls = []  # each aux table is read once and merged into both splits
    for table, _, _ in splits.values():
        for aux, spec in auxes:
            table = aggregate_merge(table, aux, spec)
        fulls.append(apply_recipes(table, cfg.recipes))
    train_full, test_full = fulls

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

    for (name, (_, ids, labels)), matrix in zip(splits.items(), (train_matrix, test_matrix)):
        feat_path = os.path.join(out, f"{name}_features.csv")
        write_matrix_csv(feat_path, pipeline.feature_names, matrix)
        label_path = os.path.join(out, f"{name}_labels.csv")
        write_labels_csv(label_path, ids, labels)
        written.extend([feat_path, label_path])
    stats_path = os.path.join(out, "feature_stats.csv")
    stats = np.array([train_matrix.mean(axis=0), train_matrix.std(axis=0)])
    write_matrix_csv(stats_path, pipeline.feature_names, stats)
    loans_path = os.path.join(out, "test_loans.csv")
    write_matrix_csv(loans_path, LOAN_COLUMNS, loans)
    written.extend([stats_path, loans_path])
    return written


def _read_stage_file(path: str, read, schema: str | None = None):
    """``read`` applied to a file an earlier stage wrote: to its path, or, when
    ``schema`` is named, to its JSON document checked against that schema. A
    missing, unreadable or corrupt file is a user error that names it."""
    try:
        if schema is None:
            return read(path)
        doc = load_json(path)
        validate(doc, schema)
        return read(doc)
    except OSError as exc:  # str(exc) would name the path a second time
        raise DataError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, LookupError, UserError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise DataError(f"{path}: the document is nested too deep") from exc


def _load_pipeline(cfg: RunConfig) -> FittedPipeline:
    out = _prepared_dir(cfg)
    pipe_path = os.path.join(out, "pipeline.json")
    if not os.path.exists(pipe_path):
        raise UserError(f"prepared artifacts not found under {out}; run prepare first")
    return _read_stage_file(pipe_path, pipeline_from_doc, "pipeline")


def _load_matrix(path: str, header, rows=None) -> np.ndarray:
    """The prepared matrix at ``path``; its header must be ``header`` and, when
    ``rows`` is given, it must have that many rows. A feature matrix must be
    finite, as ``transform`` writes it; test_loans.csv keeps ``_check_loans``."""
    names, matrix = _read_stage_file(path, read_matrix_csv)
    loans = header is LOAN_COLUMNS
    if tuple(names) != header:
        what = "loan columns" if loans else "pipeline feature names"
        raise DataError(f"{path}: prepared matrices do not match the {what}")
    if rows is not None and len(matrix) != rows:
        raise DataError(f"{path}: expected {rows} rows, got {len(matrix)}")
    if not loans and not np.isfinite(matrix).all():
        k, j = np.argwhere(~np.isfinite(matrix))[0]
        cell = matrix[k, j].item()
        raise DataError(f"{path}: row {k + 2}: {names[j]!r} must be a finite number, got {cell!r}")
    return matrix


def _load_split(cfg: RunConfig, pipeline: FittedPipeline, split: str):
    """(ids, matrix, labels) of the prepared ``split``, "train" or "test"."""
    out = _prepared_dir(cfg)
    ids, labels = read_labels_csv(os.path.join(out, f"{split}_labels.csv"))
    path = os.path.join(out, f"{split}_features.csv")
    return ids, _load_matrix(path, pipeline.feature_names, rows=len(ids)), labels


def _load_loans(cfg: RunConfig, ids) -> np.ndarray:
    """(amount, term) per test applicant of ``ids``, from the file prepare
    wrote; each row must still keep the rules prepare checked."""
    path = os.path.join(_prepared_dir(cfg), "test_loans.csv")
    loans = _load_matrix(path, LOAN_COLUMNS, rows=len(ids))
    _check_loans(path, ids, loans, LOAN_COLUMNS, lambda k, j: loans[k, j].item())
    return loans


def cmd_train(cfg: RunConfig) -> list[str]:
    """Grid-search each configured learner and persist model + search record."""
    pipeline = _load_pipeline(cfg)
    _, train, y_tr = _load_split(cfg, pipeline, "train")
    searches = grid_search(
        LabeledMatrix(train, y_tr),
        [(spec.kind, spec.grid, spec.params) for spec in cfg.models],
        cfg.cv,
        smote_params=cfg.smote if cfg.smote_enabled else None,
        feature_names=pipeline.feature_names,
    )
    written = []
    for spec, (search_doc, model) in zip(cfg.models, searches):
        model_doc = model_to_doc(model)
        validate(model_doc, "model")
        model_path = os.path.join(_models_dir(cfg), f"{spec.kind}.json")
        dump_json(model_doc, model_path)
        validate(search_doc, "search_result")
        search_path = os.path.join(_models_dir(cfg), f"{spec.kind}_search.json")
        dump_json(search_doc, search_path)
        written.extend([model_path, search_path])
    return written


def _load_models(cfg: RunConfig, pipeline: FittedPipeline) -> dict:
    """Each configured learner's model; it must read the pipeline's features."""
    models = {}
    for spec in cfg.models:
        path = os.path.join(_models_dir(cfg), f"{spec.kind}.json")
        if not os.path.exists(path):
            raise UserError(f"model file {path} not found; run train first")
        model = _read_stage_file(path, model_from_doc, "model")
        if model.feature_names != pipeline.feature_names:
            raise DataError(f"{path}: model features differ from the pipeline's; run train again")
        models[spec.kind] = model
    return models


def _evaluate_models(
    cfg: RunConfig, models: dict, test_split, amounts
) -> list[report_mod.ModelEvaluation]:
    """Per-model measurements on the prepared test split, best ROC AUC first;
    the sort is stable, so models of equal AUC keep the configured order."""
    _, test, y_te = test_split
    evaluations = []
    for kind, model in models.items():
        probs = predict_proba(model, test)
        evaluations.append(
            report_mod.ModelEvaluation(
                name=kind,
                confusion=metrics_mod.confusion(y_te, probs, cfg.threshold),
                roc_curve=metrics_mod.roc_auc(y_te, probs),
                impact=portfolio_impact(probs, amounts, y_te, cfg.risk),
                probabilities=probs,
            )
        )
    return sorted(evaluations, key=lambda ev: -ev.roc_curve.auc)


def cmd_evaluate(cfg: RunConfig) -> list[str]:
    """Per-model metrics and business impact at the configured threshold."""
    pipeline = _load_pipeline(cfg)
    models = _load_models(cfg, pipeline)
    test_split = _load_split(cfg, pipeline, "test")
    loans = _load_loans(cfg, test_split[0])
    evaluations = _evaluate_models(cfg, models, test_split, loans[:, 0])
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
    pipeline = _load_pipeline(cfg)
    models = _load_models(cfg, pipeline)
    stats_path = os.path.join(_prepared_dir(cfg), "feature_stats.csv")
    mu, sd = _load_matrix(stats_path, pipeline.feature_names, rows=2)  # LIME's feature stats
    test_split = _load_split(cfg, pipeline, "test")
    ids_te, test, _ = test_split
    index_of = {i: k for k, i in enumerate(ids_te)}
    chosen = list(ids_te) if ids is None else list(ids)
    seen = set()
    for applicant_id in chosen:
        if applicant_id not in index_of:
            raise ConfigError(f"unknown applicant id {applicant_id!r}")
        if applicant_id in seen:
            raise ConfigError(f"duplicate applicant id {applicant_id!r}")
        seen.add(applicant_id)
    loans = _load_loans(cfg, ids_te)
    evaluations = _evaluate_models(cfg, models, test_split, loans[:, 0])
    written = []

    written.extend(report_mod.render_business(evaluations, cfg.threshold, cfg.output_dir))

    # XAI summaries over a seeded sample of test rows, best model first.
    rng = np.random.default_rng(stage_seed(cfg.seed, "shap-sample"))
    sample_size = min(cfg.shap_sample, test.shape[0])
    sample_rows = np.sort(rng.choice(test.shape[0], size=sample_size, replace=False))
    summaries = {}
    for ev in evaluations:
        summaries[ev.name] = shap_summary(models[ev.name], test[sample_rows])
    written.extend(
        report_mod.render_xai(summaries, stage_seed(cfg.seed, "beeswarm"), cfg.output_dir)
    )

    # Applicant reports use the best model. Applicants in the SHAP sample
    # reuse the summary's phi and margin; the others are explained together,
    # in one batch.
    best = evaluations[0]
    model, probs = models[best.name], best.probabilities
    shap_of = {int(k): (summaries[best.name], j) for j, k in enumerate(sample_rows)}
    outside = sorted({index_of[a] for a in chosen} - shap_of.keys())
    if outside:
        batch = shap_summary(model, test[outside])
        shap_of.update((k, (batch, j)) for j, k in enumerate(outside))

    for applicant_id in chosen:
        k = index_of[applicant_id]
        summary, row = shap_of[k]
        lime_exp = lime_explain(
            functools.partial(predict_proba, model),
            test[k],
            (mu, sd),
            cfg.lime,
            stage_seed(cfg.seed, f"lime-{applicant_id}"),
            feature_names=pipeline.feature_names,
        )
        amount, term = loans[k].tolist()
        assessment = assess(
            float(probs[k]), amount, int(term), cfg.risk, applicant_id=applicant_id
        )
        written.extend(
            report_mod.render_applicant(
                assessment, summary.explanation(row), lime_exp, best.name, cfg.output_dir
            )
        )
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
