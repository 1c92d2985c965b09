import json
import xml.etree.ElementTree as ET
from html.parser import HTMLParser

import numpy as np
import pytest

from riskforge.errors import SchemaError
from riskforge.explain import LimeExplanation, ShapExplanation, ShapSummary
from riskforge.metrics import (
    APPROVE,
    BusinessMetrics,
    ConfusionMatrix,
    Rate,
    RocCurve,
)
from riskforge.report import (
    ApplicantReport,
    BusinessImpactReport,
    ModelEvaluation,
    XaiReport,
    applicant_report_doc,
    applicant_report_html,
    business_report_doc,
    business_report_html,
    render_applicant,
    render_business,
    render_xai,
    xai_report_doc,
    xai_report_html,
)
from riskforge.risk import PortfolioImpact, RiskConfig, assess
from riskforge.svgplots import (
    plot_beeswarm,
    plot_instance_shap,
    plot_lime,
    plot_roc,
    plot_shap_bar,
)
from riskforge.validation import validate

VOID_TAGS = {"meta", "br", "hr", "img", "link", "input"}


class TagBalanceChecker(HTMLParser):
    """Fails on crossed or unclosed tags; void elements are exempt."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.stack = []
        self.errors = []

    def handle_starttag(self, tag, attrs):
        if tag not in VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        pass

    def handle_endtag(self, tag):
        if tag in VOID_TAGS:
            return
        if not self.stack or self.stack[-1] != tag:
            self.errors.append(f"unbalanced </{tag}> (stack {self.stack[-3:]})")
        else:
            self.stack.pop()


def assert_html_well_formed(text: str):
    checker = TagBalanceChecker()
    checker.feed(text)
    checker.close()
    assert not checker.errors, checker.errors
    assert not checker.stack, f"unclosed tags: {checker.stack}"


def sample_assessment(p=0.25, amount=600_000.0, term=480):
    return assess(p, amount, term, RiskConfig(), applicant_id="42")


def sample_shap():
    return ShapExplanation(
        instance_id="42",
        scale="margin",
        base_value=-2.1,
        phi=np.array([0.8, -0.31, 0.05]),
        margin=-1.56,
        feature_names=("ext_score_1", "age_years", "noise"),
    )


def sample_lime():
    return LimeExplanation(
        instance_id="42",
        intercept=0.21,
        weights=(("ext_score_1", -0.4), ("age_years", 0.12), ("noise", 0.0)),
        r2=0.93,
        prediction=0.25,
    )


def sample_report():
    return ApplicantReport(
        assessment=sample_assessment(),
        shap=sample_shap(),
        lime=sample_lime(),
        model_name="boosted_leafwise",
    )


def sample_summary(n=6, d=3, seed=0):
    rng = np.random.default_rng(seed)
    shap_values = rng.normal(size=(n, d))
    mean_abs = np.abs(shap_values).mean(axis=0)
    return ShapSummary(
        feature_names=tuple(f"f{i}" for i in range(d)),
        scale="margin",
        shap_values=shap_values,
        feature_values=rng.normal(size=(n, d)),
        base_value=-2.0,
        margins=shap_values.sum(axis=1) - 2.0,
        mean_abs=mean_abs,
        ranking=tuple(int(i) for i in np.argsort(-mean_abs, kind="stable")),
    )


def sample_evaluation(name="boosted_leafwise", auc=0.9):
    bm = BusinessMetrics(
        approval_rate=Rate(0.5),
        default_rate_among_approved=Rate(0.01),
        fpr=Rate(0.1),
        fnr=Rate(0.4),
    )
    return ModelEvaluation(
        name=name,
        confusion=ConfusionMatrix(10, 5, 80, 5),
        accuracy=0.9,
        precision=0.67,
        recall=0.67,
        f1=0.67,
        roc_auc=auc,
        roc_curve=RocCurve(((0.0, 0.0), (0.2, 0.9), (1.0, 1.0)), auc),
        business=bm,
        impact=PortfolioImpact(bm, 50, 5_000_000.0, 123_456.0),
        assessments=(),
    )


def applicant_html(report, doc=None):
    doc = doc or applicant_report_doc(report)
    return applicant_report_html(doc, plot_lime(report.lime), plot_instance_shap(report.shap))


class TestApplicantReport:
    def test_doc_validates_and_round_trips(self):
        doc = applicant_report_doc(sample_report())
        validate(doc, "applicant_report")
        assert doc["assessment"]["band"] == "High"
        assert doc["assessment"]["decision"] == "reject"

    def test_decision_banner_exactly_once(self):
        report = sample_report()
        html = applicant_html(report)
        assert html.count("Decision: REJECT") == 1

    def test_html_numbers_equal_json_values(self):
        report = sample_report()
        doc = applicant_report_doc(report)
        html = applicant_html(report, doc)
        for value in (
            doc["assessment"]["probability_of_default"],
            doc["assessment"]["annual_rate"],
            doc["lime"]["r2"],
            doc["shap"]["base_value"],
        ):
            assert repr(value) in html

    def test_every_condition_rendered(self):
        report = sample_report()
        doc = applicant_report_doc(report)
        html = applicant_html(report, doc)
        for cond in doc["assessment"]["conditions"]:
            assert cond in html

    def test_html_well_formed(self):
        report = sample_report()
        assert_html_well_formed(
            applicant_html(report)
        )

    def test_render_writes_expected_tree(self, tmp_path):
        files = render_applicant(sample_report(), str(tmp_path))
        names = {f.replace(str(tmp_path), "") for f in files}
        assert names == {
            "/applicants/42/report.json",
            "/applicants/42/report.html",
            "/applicants/42/charts/lime.svg",
            "/applicants/42/charts/shap.svg",
        }
        doc = json.loads((tmp_path / "applicants/42/report.json").read_text())
        validate(doc, "applicant_report")

    def test_render_idempotent(self, tmp_path):
        report = sample_report()
        render_applicant(report, str(tmp_path))
        first = (tmp_path / "applicants/42/report.html").read_bytes()
        render_applicant(report, str(tmp_path))
        assert (tmp_path / "applicants/42/report.html").read_bytes() == first

    def test_narrative_present(self):
        doc = applicant_report_doc(sample_report())
        assert any("High risk band" in line for line in doc["narrative"])


class TestBusinessReport:
    def test_table3_row_renders_in_column_order(self):
        # Verified against the published evaluation table: accuracy 90.07%,
        # precision 0.2757, recall 0.1434, ROC AUC 0.7203.
        ev = sample_evaluation()
        ev.accuracy = 0.9007
        ev.precision = 0.2757
        ev.recall = 0.1434
        ev.roc_auc = 0.7203
        ev.f1 = 2 * 0.2757 * 0.1434 / (0.2757 + 0.1434)
        report = BusinessImpactReport([ev], threshold=0.5)
        html = business_report_html(report, business_report_doc(report))
        row = (
            "<td>90.07%</td><td>0.2757</td><td>0.1434</td><td>0.7203</td>"
        )
        assert row in html.replace("\n", "")

    def test_empty_model_list_renders_marker(self):
        report = BusinessImpactReport([], threshold=0.5)
        doc = business_report_doc(report)
        html = business_report_html(report, doc)
        assert "no models evaluated" in html
        assert doc["models"] == [] and doc["best_model"] is None

    def test_doc_validates(self, tmp_path):
        report = BusinessImpactReport(
            [sample_evaluation(), sample_evaluation("forest", 0.8)], threshold=0.5
        )
        files = render_business(report, str(tmp_path))
        doc = json.loads((tmp_path / "business_impact.json").read_text())
        validate(doc, "business_impact")
        assert doc["best_model"] == "boosted_leafwise"
        assert_html_well_formed((tmp_path / "business_impact.html").read_text())

    def test_roc_svg_one_path_per_model_plus_diagonal(self):
        report = BusinessImpactReport(
            [sample_evaluation(), sample_evaluation("forest", 0.8)], threshold=0.5
        )
        html = business_report_html(report, business_report_doc(report))
        start = html.index("<svg")
        end = html.index("</svg>") + 6
        svg = html[start:end]
        assert svg.count("<path") == 2
        assert 'class="diagonal"' in svg


class TestXaiReport:
    def test_ranking_table_matches_summary_order(self):
        summary = sample_summary()
        report = XaiReport({"m1": summary}, sample_size=6)
        doc = xai_report_doc(report)
        want = [summary.feature_names[j] for j in summary.ranking]
        got = [r["feature"] for r in doc["models"][0]["ranking"]]
        assert got == want

    def test_top_features_table_shape(self):
        report = XaiReport(
            {"m1": sample_summary(seed=1), "m2": sample_summary(seed=2)},
            sample_size=6,
            top_n=3,
        )
        doc = xai_report_doc(report)
        assert [row["rank"] for row in doc["top_features"]] == [1, 2, 3]
        for row in doc["top_features"]:
            assert set(row["features"]) == {"m1", "m2"}

    def test_render_validates_and_well_formed(self, tmp_path):
        report = XaiReport({"m1": sample_summary()}, sample_size=6)
        render_xai(report, str(tmp_path))
        doc = json.loads((tmp_path / "xai_report.json").read_text())
        validate(doc, "xai_report")
        assert_html_well_formed((tmp_path / "xai_report.html").read_text())

    def test_bar_chart_order_equals_ranking(self):
        summary = sample_summary()
        svg = plot_shap_bar(summary)
        names = [summary.feature_names[j] for j in summary.ranking]
        positions = [svg.index(f">{n}</text>") for n in names]
        assert positions == sorted(positions)


class TestSvgPlots:
    def test_all_plots_are_well_formed_xml(self):
        summary = sample_summary()
        curve = RocCurve(((0.0, 0.0), (0.5, 0.8), (1.0, 1.0)), 0.9)
        for svg in (
            plot_roc({"m": curve}),
            plot_shap_bar(summary),
            plot_beeswarm(summary, seed=1),
            plot_lime(sample_lime()),
        ):
            ET.fromstring(svg)

    def test_beeswarm_one_dot_per_instance_feature(self):
        summary = sample_summary(n=1, d=3)
        svg = plot_beeswarm(summary, seed=0)
        assert svg.count("<circle") == 3

    def test_beeswarm_jitter_seeded(self):
        summary = sample_summary(n=8, d=3)
        assert plot_beeswarm(summary, seed=5) == plot_beeswarm(summary, seed=5)
        assert plot_beeswarm(summary, seed=5) != plot_beeswarm(summary, seed=6)

    def test_bar_lengths_proportional_to_mean_abs(self):
        summary = sample_summary()
        svg = plot_shap_bar(summary)
        widths = []
        for chunk in svg.split("<rect ")[1:]:
            attrs = dict(
                part.split("=", 1) for part in chunk.split(">", 1)[0].split() if "=" in part
            )
            widths.append(float(attrs["width"].strip('"')))
        ranked = [float(summary.mean_abs[j]) for j in summary.ranking]
        scale = widths[0] / ranked[0]
        for w, v in zip(widths, ranked):
            assert abs(w - v * scale) <= 1.0  # +/- 1 px rounding

    def test_perfect_roc_passes_through_top_left(self):
        curve = RocCurve(((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)), 1.0)
        svg = plot_roc({"perfect": curve})
        # the (0,1) corner in plot coordinates is (left, top) = (60, 24)
        assert "L60.00,24.00" in svg

    def test_lime_bars_green_positive_red_negative(self):
        svg = plot_lime(sample_lime())
        assert svg.count("#2e8b57") == 1  # one positive weight
        assert svg.count("#c0392b") == 1  # one negative weight

    def test_zero_weight_feature_omitted_from_lime_bars(self):
        svg = plot_lime(sample_lime())
        assert "noise" not in svg


class TestGoldenStability:
    def test_applicant_render_byte_stable(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        render_applicant(sample_report(), str(a))
        render_applicant(sample_report(), str(b))
        for rel in (
            "applicants/42/report.json",
            "applicants/42/report.html",
            "applicants/42/charts/lime.svg",
            "applicants/42/charts/shap.svg",
        ):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestValidator:
    def test_rejects_missing_required_key(self):
        doc = applicant_report_doc(sample_report())
        del doc["assessment"]
        with pytest.raises(SchemaError, match="assessment"):
            validate(doc, "applicant_report")

    def test_rejects_unknown_key(self):
        doc = applicant_report_doc(sample_report())
        doc["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            validate(doc, "applicant_report")

    def test_rejects_wrong_type(self):
        doc = applicant_report_doc(sample_report())
        doc["assessment"]["probability_of_default"] = "high"
        with pytest.raises(SchemaError, match="probability_of_default"):
            validate(doc, "applicant_report")

    def test_rejects_out_of_range(self):
        doc = applicant_report_doc(sample_report())
        doc["assessment"]["probability_of_default"] = 2.0
        with pytest.raises(SchemaError, match="maximum"):
            validate(doc, "applicant_report")

    def test_unknown_schema_name(self):
        with pytest.raises(SchemaError, match="no shipped schema"):
            validate({}, "nonexistent")
