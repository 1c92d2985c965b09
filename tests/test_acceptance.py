"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The module-scoped fixture performs one full pipeline run on
the bundled 10,000-row synthetic corpus (seed 42) with the shipped default
configuration; individual criteria read its artifacts.
"""

import contextlib
import filecmp
import functools
import hashlib
import io
import json
import os
import time
import xml.etree.ElementTree as ET
from html.parser import HTMLParser
from pathlib import Path

import numpy as np
import pytest

from riskforge.cli import (
    cmd_assess_and_report,
    cmd_evaluate,
    cmd_gen_corpus,
    cmd_prepare,
    cmd_train,
    main,
    read_labels_csv,
    read_matrix_csv,
)
from riskforge.config import default_config_dict, parse_config
from riskforge.explain import shap_summary
from riskforge.metrics import roc_auc
from riskforge.risk import RiskConfig, amortized_payment, assess, band_for
from riskforge.sampling import LabeledMatrix, SmoteParams, smote
from riskforge.trees import (
    BoostedModel,
    BoostingParams,
    ForestModel,
    ForestParams,
    TreeNode,
    model_from_doc,
    model_to_doc,
    predict_margin,
)
from riskforge.tuning import (
    LEARNER_LEAFWISE,
    CvPlan,
    _build_params,
    fit_learner,
    fold_training_set,
    make_folds,
)
from riskforge.utils import load_json, stage_seed
from riskforge.validation import validate
from shap_oracle import brute_shapley, explain_row


def criterion(number, title):
    """Print one PASS/FAIL line per acceptance criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} ({title}): PASS")

        return run

    return wrap


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """Full default-config pipeline on the shipped corpus (seed 42)."""
    root = tmp_path_factory.mktemp("acceptance")
    corpus = root / "corpus"
    out = root / "out"
    cfg = parse_config(default_config_dict(str(corpus), str(out), n_rows=10000, seed=42))
    cmd_gen_corpus(cfg)
    t0 = time.time()
    cmd_prepare(cfg)
    cmd_train(cfg)
    cmd_evaluate(cfg)
    pipeline_seconds = time.time() - t0
    ids, _ = read_labels_csv(str(out / "prepared" / "test_labels.csv"))
    cmd_assess_and_report(cfg, ids=ids[:3])
    return {
        "root": root,
        "out": out,
        "corpus": corpus,
        "cfg": cfg,
        "pipeline_seconds": pipeline_seconds,
        "applicant_ids": ids[:3],
    }


def _load_models(out):
    models = {}
    for kind in ("boosted_leafwise", "boosted_levelwise", "forest"):
        models[kind] = model_from_doc(load_json(out / "models" / f"{kind}.json"))
    return models


def _random_small_model(rng):
    """Random ensemble within the oracle limits: <=10 features, <=15
    leaves per tree, <=5 trees, with consistent cover flow."""
    d = int(rng.integers(2, 11))

    def tree(budget, cover):
        if budget < 2 or cover < 2 or rng.random() < 0.25:
            return TreeNode(value=float(rng.normal()), cover=cover), 1
        frac = float(rng.uniform(0.2, 0.8))
        node = TreeNode(
            feature=int(rng.integers(d)), threshold=float(rng.normal()), cover=cover
        )
        node.left, used_left = tree((budget - 1) // 2 + 1, cover * frac)
        node.right, used_right = tree(budget - used_left, cover * (1 - frac))
        return node, used_left + used_right

    trees = []
    for _ in range(int(rng.integers(1, 6))):
        root, leaves = tree(15, float(rng.uniform(20, 200)))
        assert leaves <= 15
        trees.append(root)
    names = tuple(f"f{i}" for i in range(d))
    if rng.random() < 0.5:
        return BoostedModel(
            trees=trees,
            base_score=float(rng.normal()),
            params=BoostingParams(learning_rate=float(rng.uniform(0.05, 1.0))),
            feature_names=names,
        )
    return ForestModel(trees=trees, params=ForestParams(), feature_names=names)


@criterion(1, "SHAP oracle equivalence")
def test_criterion_1_shap_oracle():
    rng = np.random.default_rng(2024)
    start = time.time()
    for _ in range(50):
        model = _random_small_model(rng)
        x = rng.normal(size=len(model.feature_names))
        fast = explain_row(model, x)
        slow = brute_shapley(model, x)
        assert np.max(np.abs(fast.phi - slow.phi)) < 1e-9
        assert abs(fast.base_value - slow.base_value) < 1e-9
        assert abs(fast.margin - slow.margin) < 1e-9
    assert time.time() - start < 60.0


@criterion(2, "SHAP additivity on 1000 corpus instances per model")
def test_criterion_2_additivity(corpus_run):
    out = corpus_run["out"]
    _, test = read_matrix_csv(str(out / "prepared" / "test_features.csv"))
    rng = np.random.default_rng(stage_seed(42, "additivity-sample"))
    rows = rng.choice(test.shape[0], size=min(1000, test.shape[0]), replace=False)
    sample = test[np.sort(rows)]
    for kind, model in _load_models(out).items():
        summary = shap_summary(model, sample)
        gap = np.abs(summary.base_value + summary.shap_values.sum(axis=1) - summary.margins)
        assert float(gap.max()) < 1e-6, f"{kind}: max additivity gap {gap.max()}"


@criterion(3, "AUC trapezoid equals pair-count oracle")
def test_criterion_3_auc_oracle():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        scores = rng.integers(0, 25, n) / 24.0  # coarse grid guarantees ties
        auc = roc_auc(labels, scores).auc
        pos, neg = scores[labels == 1], scores[labels == 0]
        greater = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (greater + 0.5 * ties) / (len(pos) * len(neg))
        assert abs(auc - oracle) < 1e-12
        checked += 1


@criterion(4, "boosting log-loss monotonicity")
def test_criterion_4_boosting_monotonicity(corpus_run):
    out = corpus_run["out"]
    for kind in ("boosted_leafwise", "boosted_levelwise"):
        doc = load_json(out / "models" / f"{kind}.json")
        losses = np.asarray(doc["train_loss"], dtype=float)
        assert losses.size >= 20, f"{kind}: only {losses.size} rounds recorded"
        first = np.diff(losses[:21])
        assert np.all(first < 0), f"{kind}: loss not strictly decreasing early"
        assert np.all(np.diff(losses) <= 1e-12), f"{kind}: loss increased"


@criterion(5, "end-to-end quality and runtime on the shipped corpus")
def test_criterion_5_end_to_end(corpus_run):
    doc = load_json(corpus_run["out"] / "evaluation.json")
    aucs = {m["name"]: m["evaluation"]["roc_auc"] for m in doc["models"]}
    assert aucs["boosted_leafwise"] >= 0.85
    assert aucs["boosted_leafwise"] > aucs["forest"]
    assert corpus_run["pipeline_seconds"] < 300.0


@criterion(6, "SMOTE segment geometry (1000 points)")
def test_criterion_6_smote_geometry():
    rng = np.random.default_rng(6)
    n_min, n_maj, d, k = 60, 1100, 4, 5
    minority = rng.normal(size=(n_min, d))
    majority = rng.normal(loc=2.5, size=(n_maj, d))
    data = LabeledMatrix(
        np.vstack([minority, majority]), np.array([1] * n_min + [0] * n_maj)
    )
    out = smote(data, SmoteParams(k=k, seed=99))
    synthetic = out.features[n_min + n_maj:]
    assert synthetic.shape[0] >= 1000

    # Brute-force neighbor oracle, reconstructed independently.
    neighbor_sets = []
    for i in range(n_min):
        dists = sorted(
            (float(np.linalg.norm(minority[i] - minority[j])), j)
            for j in range(n_min)
            if j != i
        )
        neighbor_sets.append([j for _, j in dists[:k]])

    for point in synthetic:
        found = False
        for i in range(n_min):
            a = minority[i]
            for j in neighbor_sets[i]:
                b = minority[j]
                seg = b - a
                denom = float(seg @ seg)
                if denom == 0.0:
                    continue
                u = float((point - a) @ seg) / denom
                if -1e-9 <= u <= 1 + 1e-9 and np.allclose(
                    a + u * seg, point, atol=1e-9
                ):
                    found = True
                    break
            if found:
                break
        assert found, "synthetic point off every candidate segment"


@criterion(7, "SMOTE class balance across 20 configurations")
def test_criterion_7_class_balance():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n_min = int(rng.integers(8, 60))
        n_maj = int(rng.integers(n_min + 10, 400))
        ratio = float(rng.uniform(0.2, 1.0))
        features = rng.normal(size=(n_min + n_maj, 3))
        labels = np.array([1] * n_min + [0] * n_maj)
        k = min(5, n_min - 1)
        out = smote(
            LabeledMatrix(features, labels),
            SmoteParams(k=k, seed=trial, target_ratio=ratio),
        )
        want = max(round(ratio * n_maj), n_min)
        assert int(np.bincount(out.labels)[1]) == want
        assert int(np.bincount(out.labels)[0]) == n_maj


@criterion(8, "no validation leakage into fold models (5 trials)")
def test_criterion_8_leakage(corpus_run):
    out = corpus_run["out"]
    _, train = read_matrix_csv(str(out / "prepared" / "train_features.csv"))
    _, y = read_labels_csv(str(out / "prepared" / "train_labels.csv"))
    data = LabeledMatrix(train[:600], y[:600])
    folds = make_folds(data.labels, CvPlan(n_folds=3, seed=8))
    params = _build_params(LEARNER_LEAFWISE, {"n_trees": 5, "seed": 3}, {})
    smote_params = SmoteParams(k=3, seed=4)
    mask = folds != 0

    def fold_model_doc(source):
        fold_data = fold_training_set(source, mask, smote_params)
        return json.dumps(model_to_doc(fit_learner(LEARNER_LEAFWISE, fold_data, params)))

    baseline = fold_model_doc(data)
    val_rows = np.flatnonzero(~mask)
    rng = np.random.default_rng(80)
    for row in rng.choice(val_rows, size=5, replace=False):
        poisoned = LabeledMatrix(data.features.copy(), data.labels.copy())
        poisoned.labels[row] = 1 - poisoned.labels[row]
        assert fold_model_doc(poisoned) == baseline


@criterion(9, "informative features top the XAI ranking")
def test_criterion_9_feature_recovery(corpus_run):
    ground_truth = load_json(corpus_run["corpus"] / "ground_truth.json")
    informative = set(ground_truth["informative_features"])
    xai = load_json(corpus_run["out"] / "xai_report.json")
    by_name = {m["name"]: m for m in xai["models"]}
    for kind in ("boosted_leafwise", "boosted_levelwise"):
        top3 = {r["feature"] for r in by_name[kind]["ranking"][:3]}
        assert top3 == informative, f"{kind}: top-3 {top3} != {informative}"


def _tree_files(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = path
    return out

#: SHA-256 of every file the ``corpus_run`` fixture writes under ``corpus/``
#: and ``out/``, recorded with numpy 2.4.6 on x86-64; another numpy build or
#: CPU may change last-bit float results. A change that moves a byte of the
#: default run re-records the entries it moved and names each one in
#: CHANGES.md with the reason.
DEFAULT_RUN_GOLDEN = {
    "corpus/application_test.csv": "a0eb081dbb7b11255f789c7f3b4de4c779d94853bb3e9f0ac78b3b1ecc6060be",
    "corpus/application_train.csv": "b37f52eaf33b8e31fe8605e8ff68bfa21138b35908daaba33a922673a049f118",
    "corpus/bureau.csv": "bfc18621405a2a8c0171731d47b4b31f40eb46d902975d50fc69918b4ebbfac4",
    "corpus/ground_truth.json": "eaf7a11d102c0baec270be634f9e0dc2025ff5827e5660877ffb3bc61175a1a2",
    "corpus/payments.csv": "7b4a8a67db969a24a1550387e0d8b8d41ca8fd71fa81cf0a9ee3b821d127f832",
    "out/applicants/8001/charts/lime.svg": "a101222fc32b75da48cd81190ad14ac27cd6aa6178bc636ad4208d470da23fa9",
    "out/applicants/8001/charts/shap.svg": "c6a28ecc876876c382fa13c9307cb20f857820077958b139a16558b11a077803",
    "out/applicants/8001/report.html": "c96dc6a9b8e41180c696d923a22e2ee5455ef166553262e3507c6b47e6094673",
    "out/applicants/8001/report.json": "675ea30aee55f4663e7b665030a4ef4e3c4592721ec85b98747224c7c46bc5cb",
    "out/applicants/8002/charts/lime.svg": "5fd040a7ea947e626a80fbfc8b8c1ad30a678e529197c411c58fac8fcf3e5f2a",
    "out/applicants/8002/charts/shap.svg": "e992d620066c2a02f4e9c74b1b794a58b758ee470d3f3adf6fdc585690c7a71b",
    "out/applicants/8002/report.html": "b880c4cc31e5df0f42d10a310074b33d42b6d7516645d67bd5a52c6b3c03bd0d",
    "out/applicants/8002/report.json": "76643aadfb50bca6e83ac685f5f80641bc0dee0c6cba92456f38216a37fe00c5",
    "out/applicants/8003/charts/lime.svg": "0198913a7353ee84bbe3638a45c95c786a1e44cccb1b29b1ed5f81c0b6c0bea3",
    "out/applicants/8003/charts/shap.svg": "3f7514556114d0b3a20f8c106a96dfbd7c315694888be10d4521c34596a033a8",
    "out/applicants/8003/report.html": "70e217ed4e1d30671cd854bd9eae1af3af8db171d4da234f2729a50a30a76866",
    "out/applicants/8003/report.json": "5e4abb35250835405a4012ade4180837f0d7adbaa7e5daff8077f31999f1ffe2",
    "out/business_impact.html": "4446609e68b36f271d9e75b92d89819abba319578f5d007884a1aca0e694f19d",
    "out/business_impact.json": "5ada22cb09f7041de05358c66da806a5118730e3e51f47ee1dc95b4710b5152c",
    "out/evaluation.json": "1ea7ca2067471068b10961b10890f1cb476a0b7723bcdc008c44cc892398558d",
    "out/models/boosted_leafwise.json": "4d300b059fc4a8bf5d4797714fee564f4a17124727c2e1c627e2c850f7d175a1",
    "out/models/boosted_leafwise_search.json": "ec4a0c6beea412c0630b390d6e66608bcf4ae2ba69b413766f2ebe07d6d91a36",
    "out/models/boosted_levelwise.json": "520abc77fc4cdf308b21483670f5a8157186078c3b431f8756202190606abe91",
    "out/models/boosted_levelwise_search.json": "a1fc352ba7d0ab3043e2f51451cf1c45ddd7e73d1c9af5cce1565818eaf9acc8",
    "out/models/forest.json": "8c7e8be893f032c6dc7ecbdaa76f43f8661a3d06184cc8b2681b5cdaffcc8aaa",
    "out/models/forest_search.json": "97617b2ab56b8239485f72d88f3744eb0983ae8324cf8b016311d1745c417291",
    "out/prepared/feature_stats.csv": "3fe1c2e93cec0c2c7a503b7d17e2951aa25e40d81f1dc4d0c51675652d18e168",
    "out/prepared/pipeline.json": "5c0907c1d767ff0912e0aacbb8e9b45d8f441f85f675a5a288cab2f20da548e5",
    "out/prepared/test_features.csv": "31afd71ae07de45f18d81d2275b2810eaf230f5491e59c8abcc813cfbf572221",
    "out/prepared/test_labels.csv": "376d7e92dd376829ec5195e82da4525f83d834d4f6723bedb2eab45f3fabf4e8",
    "out/prepared/test_loans.csv": "cda2ad6c1c09a9a72fd49d1568a16d1742854da9948d9888fa1b0bb903377b3a",
    "out/prepared/train_features.csv": "9eee3f40c50f86ad47d084f2fd409ce9656d245ebfb75760e07f176c5ba79bac",
    "out/prepared/train_labels.csv": "32e98bea8d54a585e777e5a8ce8114ee5c84d3b17dcca0a53af28bfaae96b123",
    "out/xai_report.html": "e4739fae09ad9829e4d9391caa33472b6721a07682b85fdeb8705171cb9cadd7",
    "out/xai_report.json": "044e646ed209cb7c36c1de6adfe92ca4ea56319fe564391d099bb37cb0c26432",
}


def test_default_run_matches_golden(corpus_run):
    digests = {}
    for name in ("corpus", "out"):
        for rel, path in _tree_files(corpus_run[name]).items():
            with open(path, "rb") as fh:
                digests[f"{name}/{rel}"] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == DEFAULT_RUN_GOLDEN


@criterion(10, "byte-identical output trees for identical config and seed")
def test_criterion_10_determinism(tmp_path):
    results = []
    for run in ("a", "b"):
        base = tmp_path / run
        cfg = default_config_dict(str(base / "corpus"), str(base / "out"), n_rows=800, seed=5)
        cfg["models"]["boosted_leafwise"]["params"]["n_trees"] = 12
        cfg["models"]["boosted_leafwise"]["grid"] = {}
        cfg["models"]["boosted_levelwise"]["params"]["n_trees"] = 12
        cfg["models"]["boosted_levelwise"]["grid"] = {}
        cfg["models"]["forest"]["params"]["n_trees"] = 8
        cfg["cv"]["n_folds"] = 2
        cfg["explain"]["shap_sample"] = 40
        cfg["explain"]["lime"]["n_samples"] = 500
        config_path = base / "config.json"
        base.mkdir()
        config_path.write_text(json.dumps(cfg, indent=2))
        with contextlib.redirect_stdout(io.StringIO()):
            for command in ("gen-corpus", "prepare", "train", "evaluate"):
                assert main([command, "--config", str(config_path)]) == 0
            assert main(["assess", "--config", str(config_path), "--ids", "799,800"]) == 0
        results.append(base)

    files_a = _tree_files(results[0] / "out")
    files_b = _tree_files(results[1] / "out")
    assert files_a.keys() == files_b.keys()
    for rel in files_a:
        assert filecmp.cmp(files_a[rel], files_b[rel], shallow=False), rel
    corpus_a = _tree_files(results[0] / "corpus")
    corpus_b = _tree_files(results[1] / "corpus")
    for rel in corpus_a:
        assert filecmp.cmp(corpus_a[rel], corpus_b[rel], shallow=False), rel


class _TagChecker(HTMLParser):
    VOID = {"meta", "br", "hr", "img", "link", "input"}

    def __init__(self):
        super().__init__()
        self.stack = []
        self.bad = []

    def handle_starttag(self, tag, attrs):
        if tag not in self.VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in self.VOID:
            return
        if not self.stack or self.stack[-1] != tag:
            self.bad.append(tag)
        else:
            self.stack.pop()


_SCHEMA_FOR = {
    "pipeline.json": "pipeline",
    "evaluation.json": "evaluation",
    "business_impact.json": "business_impact",
    "xai_report.json": "xai_report",
    "report.json": "applicant_report",
    "ground_truth.json": "ground_truth",
}


@criterion(11, "report fidelity: schemas, markup, stability")
def test_criterion_11_report_fidelity(corpus_run):
    out = corpus_run["out"]
    corpus = corpus_run["corpus"]
    json_count = html_count = svg_count = 0
    for root in (out, corpus):
        for rel, path in _tree_files(root).items():
            name = os.path.basename(rel)
            if name.endswith(".json"):
                doc = load_json(path)
                schema = _SCHEMA_FOR.get(name)
                if schema is None and name.endswith("_search.json"):
                    schema = "search_result"
                elif schema is None and rel.startswith("models"):
                    schema = "model"
                if schema:
                    validate(doc, schema)
                    json_count += 1
            elif name.endswith(".html"):
                checker = _TagChecker()
                with open(path, encoding="utf-8") as fh:
                    checker.feed(fh.read())
                checker.close()
                assert not checker.bad and not checker.stack, rel
                html_count += 1
            elif name.endswith(".svg"):
                ET.parse(path)
                svg_count += 1
    assert json_count >= 12  # pipeline, 6 model docs, evaluation, 2 reports, applicants
    assert html_count >= 5
    assert svg_count >= 6

    # Golden stability: re-render the applicant tree and compare bytes.
    cfg = corpus_run["cfg"]
    first = {rel: Path(path).read_bytes() for rel, path in _tree_files(out / "applicants").items()}
    cmd_assess_and_report(cfg, ids=corpus_run["applicant_ids"])
    second = _tree_files(out / "applicants")
    assert first.keys() == second.keys()
    for rel in first:
        assert Path(second[rel]).read_bytes() == first[rel], rel


def test_corpus_default_rate_near_target(corpus_run):
    # Generator contract: empirical default rate within +/-2% of 8% at n=10000.
    import csv

    rates = []
    for name in ("application_train.csv", "application_test.csv"):
        with open(corpus_run["corpus"] / name) as fh:
            rows = list(csv.DictReader(fh))
        rates.extend(float(r["target"]) for r in rows)
    rate = sum(rates) / len(rates)
    assert 0.06 <= rate <= 0.10


def test_corpus_informative_features_beat_noise(corpus_run):
    # |corr(label, informative)| must exceed |corr(label, noise)| at n=10000.
    import csv

    with open(corpus_run["corpus"] / "application_train.csv") as fh:
        rows = list(csv.DictReader(fh))
    y = np.array([float(r["target"]) for r in rows])

    def corr(col):
        x = np.array([float(r[col]) for r in rows])
        return abs(np.corrcoef(x, y)[0, 1])

    informative = [corr("ext_score_1"), corr("ext_score_2")]
    ratio = np.array(
        [float(r["amt_credit"]) / float(r["amt_goods_price"]) for r in rows]
    )
    informative.append(abs(np.corrcoef(ratio, y)[0, 1]))
    noise = [corr(c) for c in ("noise_1", "noise_2", "noise_3", "amt_income_total")]
    assert min(informative) > max(noise)


@criterion(12, "risk engine: band monotonicity and amortization identity")
def test_criterion_12_risk_engine():
    cfg = RiskConfig()
    rng = np.random.default_rng(12)
    probs = np.sort(rng.random(10_000))
    bands = [band_for(float(p), cfg) for p in probs]
    assert all(b1 <= b2 for b1, b2 in zip(bands, bands[1:]))

    for _ in range(1000):
        principal = float(rng.uniform(500, 3_000_000))
        rate = float(rng.uniform(0.0, 36.0))
        n = int(rng.integers(1, 481))
        m = amortized_payment(principal, rate, n)
        r = rate / 100.0 / 12.0
        if (1.0 + r) ** n == 1.0:
            pv = m * n
        else:
            pv = m * (1 - (1 + r) ** (-n)) / r
        assert abs(pv - principal) / principal < 1e-6
