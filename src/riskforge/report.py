"""Report families: per-applicant, business impact, and XAI overview.

Each report is a JSON document plus a standalone HTML page (inline styles,
embedded SVG). Numbers are rounded once when the JSON document is built and
the HTML shows exactly those values, so the two stay comparable. Rendering
is pure: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass

import numpy as np

from . import metrics, svgplots
from .explain import LimeExplanation, ShapExplanation, ShapSummary
from .metrics import APPROVE, REVIEW, ConfusionMatrix, RocCurve
from .risk import ApplicantAssessment, PortfolioImpact
from .utils import dump_json, round6, write_text
from .validation import validate

APPLICANT_FORMAT = "riskforge.applicant_report/1"
BUSINESS_FORMAT = "riskforge.business_impact/1"
XAI_FORMAT = "riskforge.xai_report/1"
TOP_FEATURES = 5  # rows of the XAI report's side-by-side ranking table

_CSS = """
body { font-family: Helvetica, Arial, sans-serif; margin: 2em auto; max-width: 60em;
       color: #222222; }
h1 { border-bottom: 2px solid #1f77b4; padding-bottom: 0.2em; }
table.kv { border-collapse: collapse; margin: 1em 0; }
table.kv td, table.kv th { border: 1px solid #cccccc; padding: 0.35em 0.8em; text-align: left; }
table.kv th { background: #f0f4f8; }
.banner { padding: 0.6em 1em; font-size: 1.2em; font-weight: bold; margin: 1em 0;
          border-radius: 4px; color: #ffffff; display: inline-block; }
.banner.approve { background: #2e8b57; }
.banner.review { background: #d4880c; }
.banner.reject { background: #c0392b; }
.narrative { background: #f7f7f7; padding: 0.8em 1em; border-left: 4px solid #1f77b4; }
.note { color: #666666; font-size: 0.9em; }
figure { margin: 1em 0; }
"""


def _fmt(x) -> str:
    """Format a JSON scalar exactly as ``json.dump`` would."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _esc(text) -> str:
    return html.escape(str(text), quote=False)


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        f"<title>{_esc(title)}</title>\n<style>{_CSS}</style>\n</head>\n<body>\n"
        f"{body}\n</body>\n</html>\n"
    )


def _narrative(assessment: ApplicantAssessment, lime: LimeExplanation) -> list[str]:
    """Plain-language summary from a fixed sentence bank."""
    p = round6(assessment.probability_of_default)
    band = assessment.band.label
    lines = [
        f"The estimated default probability of {_fmt(p)} places this application "
        f"in the {band} risk band."
    ]
    if assessment.decision == APPROVE:
        lines.append(
            f"The engine approves the loan at an annual rate of "
            f"{_fmt(round6(assessment.annual_rate))}%."
        )
    elif assessment.decision == REVIEW:
        lines.append(
            f"The application is routed to manual review; the provisional annual "
            f"rate is {_fmt(round6(assessment.annual_rate))}%."
        )
    else:
        lines.append("The engine declines the application under the current lending rules.")
    up = [name for name, w in lime.weights if w > 0][:3]
    down = [name for name, w in lime.weights if w < 0][:3]
    if up:
        lines.append(
            "Factors pushing the estimated risk up: " + ", ".join(up) + "."
        )
    if down:
        lines.append(
            "Factors pulling the estimated risk down: " + ", ".join(down) + "."
        )
    if assessment.conditions:
        lines.append("Conditions attached: " + "; ".join(assessment.conditions) + ".")
    return lines


def applicant_report_doc(
    assessment: ApplicantAssessment,
    shap: ShapExplanation,
    lime: LimeExplanation,
    model_name: str,
) -> dict:
    a = assessment
    order = np.argsort(-np.abs(shap.phi), kind="stable")
    doc = {
        "format": APPLICANT_FORMAT,
        "applicant_id": a.applicant_id,
        "model": model_name,
        "assessment": {
            "probability_of_default": round6(a.probability_of_default),
            "band": a.band.label,
            "decision": a.decision,
            "annual_rate": round6(a.annual_rate),
            "conditions": list(a.conditions),
            "monthly_payment": None if a.monthly_payment is None else round6(a.monthly_payment),
            "loan_amount": round6(a.loan_amount),
            "term_months": int(a.term_months),
        },
        "shap": {
            "scale": shap.scale,
            "base_value": round6(shap.base_value),
            "margin": round6(shap.margin),
            "contributions": [
                {
                    "feature": shap.feature_names[int(j)],
                    "phi": round6(shap.phi[int(j)]),
                }
                for j in order
            ],
        },
        "lime": {
            "intercept": round6(lime.intercept),
            "r2": round6(lime.r2),
            "prediction": round6(lime.prediction),
            "weights": [
                {"feature": name, "weight": round6(w)} for name, w in lime.weights
            ],
        },
        "narrative": _narrative(a, lime),
    }
    validate(doc, "applicant_report")
    return doc


def _kv_table(pairs) -> str:
    rows = "\n".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in pairs
    )
    return f'<table class="kv">\n{rows}\n</table>'


def _table(header, rows) -> str:
    """A table of one header row and one row per entry of ``rows``; every cell is escaped."""
    lines = ["<tr>" + "".join(f"<th>{_esc(h)}</th>" for h in header) + "</tr>"]
    lines += ["<tr>" + "".join(f"<td>{_esc(c)}</td>" for c in row) + "</tr>" for row in rows]
    return '<table class="kv">\n' + "\n".join(lines) + "\n</table>"


def applicant_report_html(doc: dict, lime_svg: str, shap_svg: str) -> str:
    """The applicant page; the two charts are the SVGs also written as files."""
    a = doc["assessment"]
    decision = a["decision"]
    banner = f'<div class="banner {decision}">Decision: {decision.upper()}</div>'
    pairs = [
        ("Probability of default", _fmt(a["probability_of_default"])),
        ("Risk band", a["band"]),
        ("Annual rate (%)", _fmt(a["annual_rate"])),
        ("Loan amount", _fmt(a["loan_amount"])),
        ("Term (months)", _fmt(a["term_months"])),
        ("Monthly payment", _fmt(a["monthly_payment"])),
        ("Conditions", "; ".join(a["conditions"]) or "none"),
    ]
    narrative = "\n".join(f"<p>{_esc(line)}</p>" for line in doc["narrative"])
    body = "\n".join(
        [
            f"<h1>Applicant {_esc(doc['applicant_id'])}</h1>",
            f'<p class="note">Scored by model: {_esc(doc["model"])}</p>',
            banner,
            _kv_table(pairs),
            f'<div class="narrative">\n{narrative}\n</div>',
            "<h2>Local explanation (LIME)</h2>",
            f'<p class="note">Surrogate r&#178; {_fmt(doc["lime"]["r2"])}, '
            f'intercept {_fmt(doc["lime"]["intercept"])}, '
            f'predicted probability {_fmt(doc["lime"]["prediction"])}. '
            "Green bars push the application up, red bars push it down.</p>",
            f"<figure>{lime_svg}</figure>",
            f"<h2>Feature contributions (SHAP, {_esc(doc['shap']['scale'])} scale)</h2>",
            f'<p class="note">Base value {_fmt(doc["shap"]["base_value"])}, '
            f'model output {_fmt(doc["shap"]["margin"])}.</p>',
            f"<figure>{shap_svg}</figure>",
        ]
    )
    return _page(f"Applicant {doc['applicant_id']}", body)


def render_applicant(
    assessment: ApplicantAssessment,
    shap: ShapExplanation,
    lime: LimeExplanation,
    model_name: str,
    out_dir: str,
) -> list[str]:
    """Write the applicant report tree; returns the file paths written."""
    doc = applicant_report_doc(assessment, shap, lime, model_name)
    base = os.path.join(out_dir, "applicants", assessment.applicant_id)
    json_path = os.path.join(base, "report.json")
    dump_json(doc, json_path)
    lime_svg = svgplots.plot_lime(lime)
    shap_svg = svgplots.plot_instance_shap(shap)
    html_path = os.path.join(base, "report.html")
    write_text(html_path, applicant_report_html(doc, lime_svg, shap_svg))
    lime_path = os.path.join(base, "charts", "lime.svg")
    write_text(lime_path, lime_svg)
    shap_path = os.path.join(base, "charts", "shap.svg")
    write_text(shap_path, shap_svg)
    return [json_path, html_path, lime_path, shap_path]


@dataclass
class ModelEvaluation:
    """What one model measured on the test split; every score and rate printed
    from its confusion matrix and portfolio impact is derived by ``evaluation_block``."""

    name: str
    confusion: ConfusionMatrix
    roc_curve: RocCurve
    impact: PortfolioImpact
    #: default probability per test-split row, in test-split order
    probabilities: np.ndarray


def evaluation_block(ev: ModelEvaluation) -> dict:
    cm, impact = ev.confusion, ev.impact
    accuracy = metrics.accuracy(cm)
    return {
        "name": ev.name,
        "evaluation": {
            "accuracy": round6(accuracy),
            "accuracy_percent": round6(accuracy * 100.0),
            "precision": round6(metrics.precision(cm)),
            "recall": round6(metrics.recall(cm)),
            "roc_auc": round6(ev.roc_curve.auc),
            "f1": round6(metrics.f1_score(cm)),
        },
        "confusion": {
            "tp": cm.tp,
            "fp": cm.fp,
            "tn": cm.tn,
            "fn": cm.fn,
        },
        "business": {
            "approval_rate": round6(metrics.rate(impact.approved_count, cm.total)),
            "default_rate_among_approved": round6(
                metrics.rate(impact.approved_defaults, impact.approved_count)
            ),
            "fpr": round6(metrics.false_positive_rate(cm)),
            "fnr": round6(metrics.false_negative_rate(cm)),
        },
        "exposure": {
            "approved_count": impact.approved_count,
            "total_approved_principal": round6(impact.total_approved_principal),
            "expected_loss": round6(impact.expected_loss),
        },
    }


def business_report_doc(evaluations: list[ModelEvaluation], threshold: float) -> dict:
    """``evaluations`` come sorted by ROC AUC, best first."""
    doc = {
        "format": BUSINESS_FORMAT,
        "threshold": round6(threshold),
        "best_model": evaluations[0].name,
        "models": [
            {k: v for k, v in evaluation_block(ev).items() if k != "confusion"}
            for ev in evaluations
        ],
    }
    validate(doc, "business_impact")
    return doc


def business_report_html(evaluations: list[ModelEvaluation], doc: dict) -> str:
    # Evaluation table keeps the column order Accuracy, Precision, Recall, ROC AUC.
    eval_rows, biz_rows = [], []
    for m in doc["models"]:
        e, b, x = m["evaluation"], m["business"], m["exposure"]
        eval_rows.append(
            [m["name"], f"{_fmt(e['accuracy_percent'])}%", _fmt(e["precision"]),
             _fmt(e["recall"]), _fmt(e["roc_auc"]), _fmt(e["f1"])]
        )
        biz_rows.append(
            [m["name"], _fmt(b["approval_rate"]), _fmt(b["default_rate_among_approved"]),
             _fmt(b["fpr"]), _fmt(b["fnr"]), _fmt(x["total_approved_principal"]),
             _fmt(x["expected_loss"])]
        )
    eval_table = _table(["Model", "Accuracy", "Precision", "Recall", "ROC AUC", "F1"], eval_rows)
    biz_table = _table(
        ["Model", "Approval rate", "Default rate among approved", "FPR", "FNR",
         "Approved principal", "Expected loss"],
        biz_rows,
    )
    roc_svg = svgplots.plot_roc({ev.name: ev.roc_curve for ev in evaluations})
    body = "\n".join(
        [
            "<h1>Business Impact Report</h1>",
            f'<p class="note">Classification threshold {_fmt(doc["threshold"])}; '
            f"models ranked by ROC AUC. Best model: {_esc(doc['best_model'])}.</p>",
            "<h2>Evaluation metrics</h2>",
            eval_table,
            "<h2>Business metrics</h2>",
            biz_table,
            "<h2>ROC curves</h2>",
            f"<figure>{roc_svg}</figure>",
        ]
    )
    return _page("Business Impact Report", body)


def render_business(
    evaluations: list[ModelEvaluation], threshold: float, out_dir: str
) -> list[str]:
    doc = business_report_doc(evaluations, threshold)
    json_path = os.path.join(out_dir, "business_impact.json")
    dump_json(doc, json_path)
    html_path = os.path.join(out_dir, "business_impact.html")
    write_text(html_path, business_report_html(evaluations, doc))
    return [json_path, html_path]


def xai_report_doc(summaries: dict[str, ShapSummary]) -> dict:
    """``summaries`` maps model name to its summary over the same sample rows,
    in report order."""
    models = []
    for name, summary in summaries.items():
        ranking = [
            {
                "rank": i + 1,
                "feature": summary.feature_names[j],
                "mean_abs_shap": round6(summary.mean_abs[j]),
            }
            for i, j in enumerate(summary.ranking[:15])
        ]
        models.append({"name": name, "scale": summary.scale, "ranking": ranking})
    top = []
    for i in range(TOP_FEATURES):
        row = {"rank": i + 1, "features": {}}
        for name, summary in summaries.items():
            if i < len(summary.ranking):
                row["features"][name] = summary.feature_names[summary.ranking[i]]
        top.append(row)
    doc = {
        "format": XAI_FORMAT,
        "sample_size": len(next(iter(summaries.values())).shap_values),
        "models": models,
        "top_features": top,
    }
    validate(doc, "xai_report")
    return doc


def xai_report_html(summaries: dict[str, ShapSummary], seed: int, doc: dict) -> str:
    names = [m["name"] for m in doc["models"]]
    ranking_table = _table(
        ["Rank"] + names,
        [[row["rank"]] + [row["features"].get(n, "") for n in names]
         for row in doc["top_features"]],
    )

    sections = [
        "<h1>XAI Report</h1>",
        f'<p class="note">SHAP summaries over {doc["sample_size"]} sampled test '
        "applicants per model.</p>",
        "<h2>Top feature ranking</h2>",
        ranking_table,
    ]
    for name, summary in summaries.items():
        bar = svgplots.plot_shap_bar(summary)
        swarm = svgplots.plot_beeswarm(summary, seed=seed)
        sections.extend(
            [
                f"<h2>{_esc(name)}</h2>",
                f'<p class="note">Attributions on the {_esc(summary.scale)} scale.</p>',
                f"<figure>{bar}</figure>",
                f"<figure>{swarm}</figure>",
            ]
        )
    return _page("XAI Report", "\n".join(sections))


def render_xai(summaries: dict[str, ShapSummary], seed: int, out_dir: str) -> list[str]:
    doc = xai_report_doc(summaries)
    json_path = os.path.join(out_dir, "xai_report.json")
    dump_json(doc, json_path)
    html_path = os.path.join(out_dir, "xai_report.html")
    write_text(html_path, xai_report_html(summaries, seed, doc))
    return [json_path, html_path]
