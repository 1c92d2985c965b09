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

from . import svgplots
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


@dataclass
class ApplicantReport:
    assessment: ApplicantAssessment
    shap: ShapExplanation
    lime: LimeExplanation
    model_name: str


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


def applicant_report_doc(report: ApplicantReport) -> dict:
    a = report.assessment
    order = np.argsort(-np.abs(report.shap.phi), kind="stable")
    doc = {
        "format": APPLICANT_FORMAT,
        "applicant_id": a.applicant_id,
        "model": report.model_name,
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
            "scale": report.shap.scale,
            "base_value": round6(report.shap.base_value),
            "margin": round6(report.shap.margin),
            "contributions": [
                {
                    "feature": report.shap.feature_names[int(j)],
                    "phi": round6(report.shap.phi[int(j)]),
                }
                for j in order
            ],
        },
        "lime": {
            "intercept": round6(report.lime.intercept),
            "r2": round6(report.lime.r2),
            "prediction": round6(report.lime.prediction),
            "weights": [
                {"feature": name, "weight": round6(w)} for name, w in report.lime.weights
            ],
        },
        "narrative": _narrative(a, report.lime),
    }
    validate(doc, "applicant_report")
    return doc


def _kv_table(pairs) -> str:
    rows = "\n".join(
        f"<tr><th>{_esc(k)}</th><td>{_esc(v)}</td></tr>" for k, v in pairs
    )
    return f'<table class="kv">\n{rows}\n</table>'


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


def render_applicant(report: ApplicantReport, out_dir: str) -> list[str]:
    """Write the applicant report tree; returns the file paths written."""
    doc = applicant_report_doc(report)
    base = os.path.join(out_dir, "applicants", report.assessment.applicant_id)
    json_path = os.path.join(base, "report.json")
    dump_json(doc, json_path)
    lime_svg = svgplots.plot_lime(report.lime)
    shap_svg = svgplots.plot_instance_shap(report.shap)
    html_path = os.path.join(base, "report.html")
    write_text(html_path, applicant_report_html(doc, lime_svg, shap_svg))
    lime_path = os.path.join(base, "charts", "lime.svg")
    write_text(lime_path, lime_svg)
    shap_path = os.path.join(base, "charts", "shap.svg")
    write_text(shap_path, shap_svg)
    return [json_path, html_path, lime_path, shap_path]


@dataclass
class ModelEvaluation:
    """One model's evaluation block, computed by the metrics/risk modules."""

    name: str
    confusion: ConfusionMatrix
    accuracy: float
    precision: float
    recall: float
    f1: float
    roc_curve: RocCurve
    impact: PortfolioImpact
    #: default probability per test-split row, in test-split order
    probabilities: np.ndarray


def evaluation_block(ev: ModelEvaluation) -> dict:
    business = ev.impact.business
    return {
        "name": ev.name,
        "evaluation": {
            "accuracy": round6(ev.accuracy),
            "accuracy_percent": round6(ev.accuracy * 100.0),
            "precision": round6(ev.precision),
            "recall": round6(ev.recall),
            "roc_auc": round6(ev.roc_curve.auc),
            "f1": round6(ev.f1),
        },
        "confusion": {
            "tp": ev.confusion.tp,
            "fp": ev.confusion.fp,
            "tn": ev.confusion.tn,
            "fn": ev.confusion.fn,
        },
        "business": {
            "approval_rate": round6(business.approval_rate),
            "default_rate_among_approved": round6(business.default_rate_among_approved),
            "fpr": round6(business.fpr),
            "fnr": round6(business.fnr),
        },
        "exposure": {
            "approved_count": ev.impact.approved_count,
            "total_approved_principal": round6(ev.impact.total_approved_principal),
            "expected_loss": round6(ev.impact.expected_loss),
        },
    }


@dataclass
class BusinessImpactReport:
    evaluations: list[ModelEvaluation]  # pre-sorted by AUC descending
    threshold: float


def business_report_doc(report: BusinessImpactReport) -> dict:
    doc = {
        "format": BUSINESS_FORMAT,
        "threshold": round6(report.threshold),
        "best_model": report.evaluations[0].name,
        "models": [
            {k: v for k, v in evaluation_block(ev).items() if k != "confusion"}
            for ev in report.evaluations
        ],
    }
    validate(doc, "business_impact")
    return doc


def business_report_html(report: BusinessImpactReport, doc: dict) -> str:
    # Evaluation table keeps the column order Accuracy, Precision, Recall, ROC AUC.
    header = (
        "<tr><th>Model</th><th>Accuracy</th><th>Precision</th><th>Recall</th>"
        "<th>ROC AUC</th><th>F1</th></tr>"
    )
    rows = []
    for m in doc["models"]:
        e = m["evaluation"]
        rows.append(
            f"<tr><td>{_esc(m['name'])}</td>"
            f"<td>{_fmt(e['accuracy_percent'])}%</td>"
            f"<td>{_fmt(e['precision'])}</td>"
            f"<td>{_fmt(e['recall'])}</td>"
            f"<td>{_fmt(e['roc_auc'])}</td>"
            f"<td>{_fmt(e['f1'])}</td></tr>"
        )
    eval_table = f'<table class="kv">\n{header}\n' + "\n".join(rows) + "\n</table>"

    bheader = (
        "<tr><th>Model</th><th>Approval rate</th><th>Default rate among approved</th>"
        "<th>FPR</th><th>FNR</th><th>Approved principal</th><th>Expected loss</th></tr>"
    )
    brows = []
    for m in doc["models"]:
        b, x = m["business"], m["exposure"]
        brows.append(
            f"<tr><td>{_esc(m['name'])}</td>"
            f"<td>{_fmt(b['approval_rate'])}</td>"
            f"<td>{_fmt(b['default_rate_among_approved'])}</td>"
            f"<td>{_fmt(b['fpr'])}</td>"
            f"<td>{_fmt(b['fnr'])}</td>"
            f"<td>{_fmt(x['total_approved_principal'])}</td>"
            f"<td>{_fmt(x['expected_loss'])}</td></tr>"
        )
    biz_table = f'<table class="kv">\n{bheader}\n' + "\n".join(brows) + "\n</table>"

    roc_svg = svgplots.plot_roc(
        {ev.name: ev.roc_curve for ev in report.evaluations}
    )
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


def render_business(report: BusinessImpactReport, out_dir: str) -> list[str]:
    doc = business_report_doc(report)
    json_path = os.path.join(out_dir, "business_impact.json")
    dump_json(doc, json_path)
    html_path = os.path.join(out_dir, "business_impact.html")
    write_text(html_path, business_report_html(report, doc))
    return [json_path, html_path]


@dataclass
class XaiReport:
    summaries: dict[str, ShapSummary]  # model name -> summary, insertion-ordered
    sample_size: int
    seed: int = 0


def xai_report_doc(report: XaiReport) -> dict:
    models = []
    for name, summary in report.summaries.items():
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
        for name, summary in report.summaries.items():
            if i < len(summary.ranking):
                row["features"][name] = summary.feature_names[summary.ranking[i]]
        top.append(row)
    doc = {
        "format": XAI_FORMAT,
        "sample_size": report.sample_size,
        "models": models,
        "top_features": top,
    }
    validate(doc, "xai_report")
    return doc


def xai_report_html(report: XaiReport, doc: dict) -> str:
    names = [m["name"] for m in doc["models"]]
    header = "<tr><th>Rank</th>" + "".join(f"<th>{_esc(n)}</th>" for n in names) + "</tr>"
    rows = []
    for row in doc["top_features"]:
        cells = "".join(
            f"<td>{_esc(row['features'].get(n, ''))}</td>" for n in names
        )
        rows.append(f"<tr><td>{row['rank']}</td>{cells}</tr>")
    ranking_table = f'<table class="kv">\n{header}\n' + "\n".join(rows) + "\n</table>"

    sections = [
        "<h1>XAI Report</h1>",
        f'<p class="note">SHAP summaries over {doc["sample_size"]} sampled test '
        "applicants per model.</p>",
        "<h2>Top feature ranking</h2>",
        ranking_table,
    ]
    for name, summary in report.summaries.items():
        bar = svgplots.plot_shap_bar(summary)
        swarm = svgplots.plot_beeswarm(summary, seed=report.seed)
        sections.extend(
            [
                f"<h2>{_esc(name)}</h2>",
                f'<p class="note">Attributions on the {_esc(summary.scale)} scale.</p>',
                f"<figure>{bar}</figure>",
                f"<figure>{swarm}</figure>",
            ]
        )
    return _page("XAI Report", "\n".join(sections))


def render_xai(report: XaiReport, out_dir: str) -> list[str]:
    doc = xai_report_doc(report)
    json_path = os.path.join(out_dir, "xai_report.json")
    dump_json(doc, json_path)
    html_path = os.path.join(out_dir, "xai_report.html")
    write_text(html_path, xai_report_html(report, doc))
    return [json_path, html_path]
