"""Output checks that do not trust the program's own arithmetic.

Predictions are recomputed from the model JSON files with a tree walker of
this module's own, AUC is the tie-adjusted pair-count (Mann-Whitney)
statistic, documents are validated with the ``jsonschema`` package against
the shipped schemas, and the corpus's true default probabilities come from
its raw columns and ``ground_truth.json``. Every check appends a message to
a list of failures instead of raising, so one run reports all of them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import jsonschema
import numpy as np

#: Generator's ratio model: credit / goods = 0.9 * exp(0.35 * z3).
RATIO_SCALE, RATIO_SIGMA = 0.9, 0.35

#: Largest distance allowed between the best model's held-out AUC and the
#: AUC of the corpus's true default probabilities (train workload).
AUC_SLACK = 0.15

#: Schema of each JSON output, by file name.
SCHEMAS = {
    "evaluation.json": "evaluation",
    "business_impact.json": "business_impact",
    "xai_report.json": "xai_report",
    "report.json": "applicant_report",
    "pipeline.json": "pipeline",
    "ground_truth.json": "ground_truth",
}


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_columns(path: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {name: [r[j] for r in rows[1:]] for j, name in enumerate(rows[0])}


def read_matrix(path: str) -> np.ndarray:
    cols = read_columns(path)
    return np.array([[float(v) for v in c] for c in cols.values()]).T


def tree_digest(root: str) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def pair_count_auc(labels, scores) -> float:
    """P(score+ > score-) + 0.5 * P(tie), counted exactly in integers."""
    y = np.asarray(labels)
    s = np.asarray(scores, dtype=np.float64)
    neg = np.sort(s[y == 0])
    pos = s[y == 1]
    below = np.searchsorted(neg, pos, side="left").sum()
    at_or_below = np.searchsorted(neg, pos, side="right").sum()
    return int(below + at_or_below) / (2 * pos.size * neg.size)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _tree_values(root: dict, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.shape[0])
    stack = [(root, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if "value" in node:
            out[rows] = node["value"]
            continue
        left = x[rows, node["feature"]] <= node["threshold"]
        stack.append((node["left"], rows[left]))
        stack.append((node["right"], rows[~left]))
    return out


def predict_doc(doc: dict, x: np.ndarray) -> np.ndarray:
    """Default probability per row from a ``riskforge.model/1`` document."""
    if doc["kind"] == "boosted":
        margin = np.full(x.shape[0], doc["base_score"])
        for tree in doc["trees"]:
            margin += doc["learning_rate"] * _tree_values(tree, x)
        return _sigmoid(margin)
    total = np.zeros(x.shape[0])
    for tree in doc["trees"]:
        total += _tree_values(tree, x)
    return total / len(doc["trees"])


def true_auc(corpus_dir: str) -> float:
    """AUC of the generator's true default probability on the test split."""
    truth = load_json(os.path.join(corpus_dir, "ground_truth.json"))
    cols = read_columns(os.path.join(corpus_dir, "application_test.csv"))

    def num(name):
        return np.array([float(v) for v in cols[name]])

    def logit(p):
        return np.log(p / (1.0 - p))

    coef = truth["coefficients"]
    z3 = np.log(num("amt_credit") / num("amt_goods_price") / RATIO_SCALE) / RATIO_SIGMA
    margin = (
        coef["ext_score_1"] * logit(num("ext_score_1"))
        + coef["ext_score_2"] * logit(num("ext_score_2"))
        + coef["CREDIT_TO_GOODS_RATIO"] * z3
    )
    return pair_count_auc(num("target").astype(int), margin)


class Expect:
    """Collects failed expectations."""

    def __init__(self):
        self.failures: list[str] = []

    def that(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def check_schemas(root: str, schema_dir: str, expect: Expect) -> None:
    """Validate every JSON file under ``root`` against its shipped schema."""
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            if not name.endswith(".json"):
                continue
            schema = SCHEMAS.get(name)
            if schema is None:
                schema = "search_result" if name.endswith("_search.json") else "model"
            path = os.path.join(dirpath, name)
            try:
                jsonschema.validate(
                    load_json(path), load_json(os.path.join(schema_dir, f"{schema}.schema.json"))
                )
            except jsonschema.ValidationError as exc:
                expect.that(False, f"{path}: not a valid {schema} document: {exc.message}")


def check_reported_auc(out_dir: str, models: list[dict], expect: Expect) -> dict:
    """Each reported model AUC equals the pair-count statistic of its predictions.

    Returns the recomputed probabilities by model name.
    """
    prepared = os.path.join(out_dir, "prepared")
    x = read_matrix(os.path.join(prepared, "test_features.csv"))
    labels = np.array([int(v) for v in read_columns(os.path.join(prepared, "test_labels.csv"))["label"]])
    probs = {}
    for entry in models:
        name = entry["name"]
        doc = load_json(os.path.join(out_dir, "models", f"{name}.json"))
        probs[name] = predict_doc(doc, x)
        auc = pair_count_auc(labels, probs[name])
        reported = entry["evaluation"]["roc_auc"]
        expect.that(
            round(auc, 6) == reported,
            f"{name}: reported AUC {reported} != pair-count statistic {auc}",
        )
    return probs


def check_train(work: str, cfg: dict, expect: Expect) -> float:
    out = os.path.join(work, cfg["output_dir"])
    for spec in cfg["models"]:
        doc = load_json(os.path.join(out, "models", f"{spec}.json"))
        loss = doc.get("train_loss", [])
        expect.that(
            all(b <= a for a, b in zip(loss, loss[1:])),
            f"{spec}: training loss increases somewhere in {loss}",
        )
    evaluation = load_json(os.path.join(out, "evaluation.json"))
    check_reported_auc(out, evaluation["models"], expect)
    best = evaluation["models"][0]["evaluation"]["roc_auc"]
    oracle = true_auc(os.path.join(work, cfg["corpus"]["dir"]))
    expect.that(
        abs(best - oracle) <= AUC_SLACK,
        f"held-out AUC {best} is not within {AUC_SLACK} of the true-probability AUC {oracle}",
    )
    return best


def _bands(p: float, risk: dict) -> set[str]:
    """Bands that a probability rounded to 6 decimals may have come from."""
    return {
        "Low" if q < risk["t_low"] else "Moderate" if q < risk["t_high"] else "High"
        for q in (p - 5e-7, p, p + 5e-7)
    }


def check_assess(work: str, cfg: dict, expect: Expect) -> float:
    out = os.path.join(work, cfg["output_dir"])
    risk = cfg["risk"]
    ids = read_columns(os.path.join(work, cfg["data"]["application_test"]))["applicant_id"]
    reports_dir = os.path.join(out, "applicants")
    found = sorted(os.listdir(reports_dir)) if os.path.isdir(reports_dir) else []
    expect.that(found == sorted(ids), f"{len(found)} applicant reports for {len(ids)} applicants")
    for applicant in found:
        doc = load_json(os.path.join(reports_dir, applicant, "report.json"))
        shap = doc["shap"]
        phis = [c["phi"] for c in shap["contributions"]]
        # Every reported number is rounded to 6 decimals: allow half a unit each.
        slack = 1e-6 + 5e-7 * (len(phis) + 2)
        expect.that(
            abs(shap["base_value"] + math.fsum(phis) - shap["margin"]) <= slack,
            f"applicant {applicant}: SHAP values do not add up to the model output",
        )
        a = doc["assessment"]
        bands = _bands(a["probability_of_default"], risk)
        expect.that(a["band"] in bands, f"applicant {applicant}: band {a['band']} not in {bands}")
        band = a["band"].lower()
        expect.that(
            a["decision"] == risk["decisions"][band],
            f"applicant {applicant}: decision {a['decision']} for band {a['band']}",
        )
        expect.that(
            abs(a["annual_rate"] - (risk["base_rate"] + risk["premiums"][band])) <= 1e-9,
            f"applicant {applicant}: annual rate {a['annual_rate']} for band {a['band']}",
        )
        if a["decision"] == "approve":
            r = a["annual_rate"] / 1200.0
            n = a["term_months"]
            pv = a["monthly_payment"] * (1.0 - (1.0 + r) ** -n) / r if r else a["monthly_payment"] * n
            expect.that(
                abs(pv - a["loan_amount"]) <= 1e-6 * a["loan_amount"],
                f"applicant {applicant}: payments are worth {pv}, not {a['loan_amount']}",
            )
        else:
            expect.that(a["monthly_payment"] is None, f"applicant {applicant}: payment set")
    business = load_json(os.path.join(out, "business_impact.json"))
    check_reported_auc(out, business["models"], expect)
    return business["models"][0]["evaluation"]["roc_auc"]


def check_score_book(work: str, cfg: dict, expect: Expect) -> float:
    out = os.path.join(work, cfg["output_dir"])
    evaluation = load_json(os.path.join(out, "evaluation.json"))
    probs = check_reported_auc(out, evaluation["models"], expect)
    book = len(read_columns(os.path.join(work, cfg["data"]["application_test"]))["applicant_id"])
    for entry in evaluation["models"]:
        name, cm = entry["name"], entry["confusion"]
        expect.that(
            cm["tp"] + cm["fp"] + cm["tn"] + cm["fn"] == book,
            f"{name}: confusion counts sum to {sum(cm.values())}, book has {book} rows",
        )
        approved = int(np.sum(probs[name] < cfg["risk"]["t_low"]))
        expect.that(
            entry["exposure"]["approved_count"] == approved
            and entry["business"]["approval_rate"] == round(approved / book, 6),
            f"{name}: approval rate {entry['business']['approval_rate']} but "
            f"{approved} of {book} probabilities are below t_low",
        )
    return evaluation["models"][0]["evaluation"]["roc_auc"]


WORKLOAD_CHECKS = {"train": check_train, "assess": check_assess, "score-book": check_score_book}


def check_run(workload: str, work: str, cfg: dict, schema_dir: str) -> tuple[list[str], float]:
    """All checks of one run: its failures and the best model's reported AUC."""
    expect = Expect()
    best = 0.0
    try:
        check_schemas(os.path.join(work, cfg["output_dir"]), schema_dir, expect)
        check_schemas(os.path.join(work, cfg["corpus"]["dir"]), schema_dir, expect)
        best = WORKLOAD_CHECKS[workload](work, cfg, expect)
    except (OSError, LookupError, ValueError) as exc:
        expect.that(False, f"outputs missing or malformed: {exc!r}")
    return expect.failures, best
