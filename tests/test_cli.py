import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import riskforge
from riskforge import cli, corpus, tuning
from riskforge.cli import (
    _evaluate_models,
    main,
    read_labels_csv,
    read_matrix_csv,
)
from riskforge.config import default_config_dict, load_config, parse_config
from riskforge.errors import ConfigError, DataError
from riskforge.explain import LimeParams, TreeShapExplainer
from riskforge.risk import Band, RiskConfig, assess
from riskforge.sampling import SmoteParams
from riskforge.trees import model_from_doc
from riskforge.tuning import CvPlan
from riskforge.utils import load_json
from riskforge.validation import validate
from shap_oracle import oracle_phi


def small_config(corpus_dir, out_dir, n_rows=600, seed=7):
    cfg = default_config_dict(corpus_dir=str(corpus_dir), output_dir=str(out_dir), n_rows=n_rows, seed=seed)
    cfg["models"]["boosted_leafwise"]["params"]["n_trees"] = 10
    cfg["models"]["boosted_leafwise"]["grid"] = {}
    cfg["models"]["boosted_levelwise"]["params"]["n_trees"] = 10
    cfg["models"]["boosted_levelwise"]["grid"] = {"max_depth": [3]}
    cfg["models"]["forest"]["params"]["n_trees"] = 6
    cfg["cv"]["n_folds"] = 2
    cfg["explain"]["shap_sample"] = 25
    cfg["explain"]["lime"]["n_samples"] = 400
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One small end-to-end run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = small_config(root / "corpus", root / "out")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(cfg, indent=2))
    for command in ("gen-corpus", "prepare", "train", "evaluate"):
        assert main([command, "--config", str(config_path)]) == 0
    return root, config_path


class TestGenCorpus:
    def test_corpus_files_written(self, workdir):
        root, _ = workdir
        for name in (
            "application_train.csv",
            "application_test.csv",
            "bureau.csv",
            "payments.csv",
            "ground_truth.json",
        ):
            assert (root / "corpus" / name).exists()
        gt = json.loads((root / "corpus" / "ground_truth.json").read_text())
        validate(gt, "ground_truth")

    def test_rerun_is_byte_identical(self, workdir, tmp_path):
        root, config_path = workdir
        cfg = json.loads(config_path.read_text())
        cfg["corpus"]["dir"] = str(tmp_path / "corpus2")
        p2 = tmp_path / "config2.json"
        p2.write_text(json.dumps(cfg))
        assert main(["gen-corpus", "--config", str(p2)]) == 0
        a = (root / "corpus" / "application_train.csv").read_bytes()
        b = (tmp_path / "corpus2" / "application_train.csv").read_bytes()
        assert a == b

    def test_too_small_corpus_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "c", tmp_path / "o", n_rows=50)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["gen-corpus", "--config", str(p)]) == 2
        assert "200" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n_rows, train_fraction, needle",
        [
            (199, 0.8, "corpus needs at least 200 rows, got 199"),
            (200, 0.0, "train_fraction must be in (0, 1)"),
            (200, 1.0, "train_fraction must be in (0, 1)"),
        ],
        ids=["rows-too-few", "train-fraction-zero", "train-fraction-one"],
    )
    def test_generate_corpus_checks_its_own_bounds(self, tmp_path, n_rows, train_fraction,
                                                   needle):
        """The library call checks what a config is checked for when read."""
        with pytest.raises(DataError, match=re.escape(needle)):
            corpus.generate_corpus(str(tmp_path), 0, n_rows, train_fraction)
        assert list(tmp_path.iterdir()) == []

    def test_default_rate_within_tolerance(self, workdir):
        root, _ = workdir
        with open(root / "corpus" / "application_train.csv") as fh:
            rows = list(csv.DictReader(fh))
        rate = sum(float(r["target"]) for r in rows) / len(rows)
        assert 0.03 <= rate <= 0.14  # loose bound at n=600


class TestPrepare:
    def test_artifacts_exist_and_validate(self, workdir):
        root, _ = workdir
        doc = json.loads((root / "out" / "prepared" / "pipeline.json").read_text())
        validate(doc, "pipeline")

    def test_prepare_is_deterministic(self, workdir, tmp_path):
        root, config_path = workdir
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out2")
        p2 = tmp_path / "cfg2.json"
        p2.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(p2)]) == 0
        for rel in ("prepared/pipeline.json", "prepared/train_features.csv"):
            assert (root / "out" / rel).read_bytes() == (
                tmp_path / "out2" / rel
            ).read_bytes()

    def test_missing_aux_exits_2_naming_path(self, workdir, tmp_path, capsys):
        _, config_path = workdir
        cfg = json.loads(config_path.read_text())
        cfg["data"]["aux"][0]["path"] = str(tmp_path / "ghost_bureau.csv")
        cfg["output_dir"] = str(tmp_path / "out3")
        p = tmp_path / "cfg3.json"
        p.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(p)]) == 2
        assert "ghost_bureau.csv" in capsys.readouterr().err

    def test_aux_key_column_not_in_header_exits_2(self, workdir, tmp_path, capsys):
        _, config_path = workdir
        cfg = json.loads(config_path.read_text())
        cfg["data"]["aux"][0]["key_column"] = "ghost_id"
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        capsys.readouterr()
        code = main(["prepare", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2 and line.endswith("categorical column 'ghost_id' is not in the header")

    def test_aux_key_other_than_id_column_matches(self, workdir, tmp_path):
        """With ``loan_id`` as the id column, the aux tables still join on
        ``applicant_id``, and the key is no feature: the train matrix, its 9
        merged columns included, equals the default run's."""
        def add_loan_id(rows):
            rows[0].append("loan_id")
            for row in rows[1:]:
                row.append("L" + row[0])

        p = _edited_config(
            workdir, tmp_path,
            {"application_train.csv": add_loan_id, "application_test.csv": add_loan_id},
        )
        cfg = json.loads(p.read_text())
        cfg["data"]["id_column"] = "loan_id"
        p.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(p)]) == 0
        rel = "prepared/train_features.csv"
        names, _ = read_matrix_csv(str(tmp_path / "out" / rel))
        assert sum(n.startswith(("bureau_", "payments_")) for n in names) == 9
        assert (tmp_path / "out" / rel).read_bytes() == (workdir[0] / "out" / rel).read_bytes()

    def test_test_matrix_uses_train_schema(self, workdir):
        root, _ = workdir
        with open(root / "out" / "prepared" / "train_features.csv") as fh:
            train_header = fh.readline()
        with open(root / "out" / "prepared" / "test_features.csv") as fh:
            test_header = fh.readline()
        assert train_header == test_header


def _train_config(workdir, tmp_path, **smote):
    """Config whose fresh output directory holds a copy of the shared prepared
    files, with ``smote`` merged into its SMOTE section."""
    root, config_path = workdir
    shutil.copytree(root / "out" / "prepared", tmp_path / "out" / "prepared")
    cfg = json.loads(config_path.read_text())
    cfg["output_dir"] = str(tmp_path / "out")
    cfg["smote"].update(smote)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p, cfg


class TestTrain:
    def test_model_files_per_learner(self, workdir):
        root, _ = workdir
        for kind in ("boosted_leafwise", "boosted_levelwise", "forest"):
            doc = json.loads((root / "out" / "models" / f"{kind}.json").read_text())
            validate(doc, "model")
            sr = json.loads(
                (root / "out" / "models" / f"{kind}_search.json").read_text()
            )
            validate(sr, "search_result")

    def test_empty_grid_marked_as_defaults(self, workdir):
        root, _ = workdir
        sr = json.loads(
            (root / "out" / "models" / "boosted_leafwise_search.json").read_text()
        )
        assert sr["used_defaults"] is True
        assert len(sr["candidates"]) == 1

    def test_search_document_written_as_returned(self, workdir, tmp_path, monkeypatch):
        """A candidate that fails on every fold keeps ``"mean_score": null``
        and its error, and train writes each document grid_search returns
        unchanged."""
        p, cfg = _train_config(workdir, tmp_path)
        cfg["models"]["boosted_leafwise"]["grid"] = {"learning_rate": [0.05, 0.1]}
        p.write_text(json.dumps(cfg))
        leafwise = tuning.LEARNERS[tuning.LEARNER_LEAFWISE]

        def fit(train, params, feature_names=None):
            if params.learning_rate == 0.05:
                raise DataError("no fit at 0.05")
            return leafwise.fit(train, params, feature_names=feature_names)

        monkeypatch.setitem(tuning.LEARNERS, tuning.LEARNER_LEAFWISE, leafwise._replace(fit=fit))
        returned = []
        search = cli.grid_search

        def recording_search(*args, **kwargs):
            returned.extend(search(*args, **kwargs))
            return returned

        monkeypatch.setattr(cli, "grid_search", recording_search)
        assert main(["train", "--config", str(p)]) == 0
        for kind, (doc, _) in zip(cfg["models"], returned):
            text = (tmp_path / "out" / "models" / f"{kind}_search.json").read_text()
            assert text == json.dumps(doc, indent=2) + "\n"
        failed, ok = returned[0][0]["candidates"]  # boosted_leafwise
        assert failed == {"params": {"learning_rate": 0.05}, "fold_scores": [],
                          "mean_score": None, "error": "no fit at 0.05"}
        assert ok["error"] is None and len(ok["fold_scores"]) == cfg["cv"]["n_folds"]

    def test_one_smote_per_fold_plus_full_set(self, workdir, tmp_path, monkeypatch):
        p, cfg = _train_config(workdir, tmp_path)
        calls = []
        smote = tuning.smote

        def counting_smote(*args):
            calls.append(args)
            return smote(*args)

        monkeypatch.setattr(tuning, "smote", counting_smote)
        assert len(cfg["models"]) == 3
        assert main(["train", "--config", str(p)]) == 0
        assert len(calls) == cfg["cv"]["n_folds"] + 1

    def test_fold_smote_failure_exits_2_with_its_message(self, workdir, tmp_path, capsys):
        p, _ = _train_config(workdir, tmp_path, k=1000)
        capsys.readouterr()
        code = main(["train", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2 and "k=1000 must be below the minority count" in line
        assert not (tmp_path / "out" / "models").exists()

    def test_bad_learner_param_exits_2_before_any_fold(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        p, cfg = _train_config(workdir, tmp_path)
        cfg["models"]["boosted_levelwise"]["params"]["n_trees"] = 0
        p.write_text(json.dumps(cfg))
        monkeypatch.setattr(tuning, "smote", lambda *args: pytest.fail("a fold was SMOTE'd"))
        capsys.readouterr()
        code = main(["train", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        assert line == "error: models.boosted_levelwise.params: n_trees must be >= 1"
        assert not (tmp_path / "out" / "models").exists()

    def test_single_class_training_file_exits_2(self, workdir, tmp_path, capsys):
        def no_defaults(rows):
            target = rows[0].index("target")
            for row in rows[1:]:
                row[target] = "0"

        p = _edited_config(workdir, tmp_path, {"application_train.csv": no_defaults})
        capsys.readouterr()
        assert main(["prepare", "--config", str(p)]) == 0
        capsys.readouterr()
        code = main(["train", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == "error: class 1 has 0 rows, fewer than 2 folds"
        assert not (tmp_path / "out" / "models").exists()

    def test_training_before_prepare_exits_2(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "c", tmp_path / "o")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p)]) == 2
        assert "prepare" in capsys.readouterr().err


class TestEvaluate:
    def test_evaluation_validates_and_sorted_by_auc(self, workdir):
        root, _ = workdir
        doc = json.loads((root / "out" / "evaluation.json").read_text())
        validate(doc, "evaluation")
        aucs = [m["evaluation"]["roc_auc"] for m in doc["models"]]
        assert aucs == sorted(aucs, reverse=True)
        assert len(doc["models"]) == 3

    def test_equal_auc_keeps_configured_order(self, workdir):
        root, config_path = workdir
        cfg = load_config(config_path)
        prepared = root / "out" / "prepared"
        ids, labels = read_labels_csv(str(prepared / "test_labels.csv"))
        _, test = read_matrix_csv(str(prepared / "test_features.csv"))
        _, loans = read_matrix_csv(str(prepared / "test_loans.csv"))
        amounts = loans[:, 0]
        model = model_from_doc(load_json(root / "out" / "models" / "forest.json"))
        for names in (["forest", "boosted_leafwise"], ["boosted_leafwise", "forest"]):
            models = dict.fromkeys(names, model)
            evaluations = _evaluate_models(cfg, models, (ids, test, labels), amounts)
            assert [ev.name for ev in evaluations] == names


class TestAssess:
    def test_selected_ids_produce_directories(self, workdir):
        root, config_path = workdir
        with open(root / "out" / "prepared" / "test_labels.csv") as fh:
            ids = [row[0] for row in list(csv.reader(fh))[1:4]]
        assert main(
            ["assess", "--config", str(config_path), "--ids", ",".join(ids)]
        ) == 0
        for applicant_id in ids:
            base = root / "out" / "applicants" / applicant_id
            doc = json.loads((base / "report.json").read_text())
            validate(doc, "applicant_report")
        biz = json.loads((root / "out" / "business_impact.json").read_text())
        validate(biz, "business_impact")
        xai = json.loads((root / "out" / "xai_report.json").read_text())
        validate(xai, "xai_report")

    @pytest.mark.parametrize(
        "ids, message",
        [
            ("zzz", "unknown applicant id 'zzz'"),
            ("481,482,481", "duplicate applicant id '481'"),
            ("", "--ids '' holds an empty applicant id"),
            (",", "--ids ',' holds an empty applicant id"),
            ("481,,482", "--ids '481,,482' holds an empty applicant id"),
            ("481,", "--ids '481,' holds an empty applicant id"),
        ],
        ids=["unknown", "repeated", "empty", "comma", "empty-item", "trailing-comma"],
    )
    def test_bad_id_exits_2(self, workdir, tmp_path, capsys, ids, message):
        root, _ = workdir
        p, _ = _train_config(workdir, tmp_path)
        shutil.copytree(root / "out" / "models", tmp_path / "out" / "models")
        capsys.readouterr()
        code = main(["assess", "--config", str(p), "--ids", ids])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2 and line == f"error: {message}"
        assert sorted(os.listdir(tmp_path / "out")) == ["models", "prepared"]

    @pytest.mark.parametrize("command", ["gen-corpus", "prepare", "train", "evaluate"])
    def test_ids_outside_assess_exits_2(self, tmp_path, capsys, command):
        """--ids is refused before the config is read, so nothing runs."""
        code = main([command, "--config", str(tmp_path / "no.json"), "--ids", "481"])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == f"error: --ids applies to assess only, not {command}"
        assert os.listdir(tmp_path) == []

    def test_rerun_overwrites_identically(self, workdir):
        root, config_path = workdir
        with open(root / "out" / "prepared" / "test_labels.csv") as fh:
            applicant_id = list(csv.reader(fh))[1][0]
        args = ["assess", "--config", str(config_path), "--ids", applicant_id]
        assert main(args) == 0
        before = (root / "out" / "applicants" / applicant_id / "report.html").read_bytes()
        assert main(args) == 0
        after = (root / "out" / "applicants" / applicant_id / "report.html").read_bytes()
        assert before == after


class TestShapBatch:
    @pytest.mark.parametrize("kind", ["boosted_leafwise", "boosted_levelwise", "forest"])
    def test_batch_matches_scalar_oracle_on_corpus_models(self, workdir, kind):
        root, _ = workdir
        model = model_from_doc(load_json(root / "out" / "models" / f"{kind}.json"))
        _, test = read_matrix_csv(str(root / "out" / "prepared" / "test_features.csv"))
        batch = TreeShapExplainer(model).shap_values(test)
        for row, phi in zip(test, batch):
            assert np.max(np.abs(phi - oracle_phi(model, row))) <= 1e-12

    def test_applicants_outside_shap_sample_explained_in_one_batch(
        self, workdir, tmp_path, monkeypatch
    ):
        root, config_path = workdir
        for sub in ("prepared", "models"):
            shutil.copytree(root / "out" / sub, tmp_path / "out" / sub)
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["explain"]["shap_sample"] = 1
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        batches = []
        shap_values = TreeShapExplainer.shap_values

        def counting(self, matrix):
            batches.append(len(matrix))
            return shap_values(self, matrix)

        monkeypatch.setattr(TreeShapExplainer, "shap_values", counting)
        ids, _ = read_labels_csv(str(root / "out" / "prepared" / "test_labels.csv"))
        chosen = ids[:3]
        assert main(["assess", "--config", str(p), "--ids", ",".join(chosen)]) == 0
        # One one-row summary per model, then one batch for the chosen
        # applicants outside the sample: at least two of the three.
        assert batches[:3] == [1, 1, 1]
        assert len(batches) == 4 and batches[3] in (2, 3)
        _, test = read_matrix_csv(str(root / "out" / "prepared" / "test_features.csv"))
        for applicant_id in chosen:
            doc = load_json(tmp_path / "out" / "applicants" / applicant_id / "report.json")
            model = model_from_doc(load_json(tmp_path / "out" / "models" / f"{doc['model']}.json"))
            expected = oracle_phi(model, test[ids.index(applicant_id)])
            got = {c["feature"]: c["phi"] for c in doc["shap"]["contributions"]}
            for name, phi in zip(model.feature_names, expected):
                assert got[name] == pytest.approx(phi, abs=1e-6)

    def test_report_bytes_same_from_sample_or_batch(self, workdir, tmp_path):
        """An applicant's files have the same bytes whether its SHAP row comes
        from the XAI summary's sample or from the batch of applicants outside
        it: the sample covers every test row, then only one."""
        root, config_path = workdir
        ids, _ = read_labels_csv(str(root / "out" / "prepared" / "test_labels.csv"))
        written = []
        for shap_sample in (len(ids), 1):
            out = tmp_path / f"sample{shap_sample}"
            for sub in ("prepared", "models"):
                shutil.copytree(root / "out" / sub, out / sub)
            cfg = json.loads(config_path.read_text())
            cfg["output_dir"] = str(out)
            cfg["explain"]["shap_sample"] = shap_sample
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps(cfg))
            assert main(["assess", "--config", str(p), "--ids", ",".join(ids[:3])]) == 0
            files = sorted(f for f in (out / "applicants").rglob("*") if f.is_file())
            written.append({str(f.relative_to(out)): f.read_bytes() for f in files})
        assert len(written[0]) == 12
        assert written[0] == written[1]


class TestRawLoanInputs:
    """prepare checks each test applicant's loan amount and term once, and
    exits 2 with one line naming the applicant and the column."""

    @pytest.mark.parametrize(
        "column, text, rule",
        [("amt_credit", "", "a finite number > 0, got None"),
         ("term_months", "36.5", "a whole number >= 1, got 36.5")],
        ids=["blank-amount", "fractional-term"],
    )
    def test_bad_loan_cell_exits_2_naming_applicant(
        self, workdir, tmp_path, capsys, column, text, rule
    ):
        with open(workdir[0] / "corpus" / "application_test.csv", newline="") as fh:
            applicant_id = list(csv.reader(fh))[2][0]
        p = _edited_config(workdir, tmp_path, {"application_test.csv": _set_cell(column, text, 2)})
        capsys.readouterr()
        code = main(["prepare", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        path = tmp_path / "corpus" / "application_test.csv"
        assert line == f"error: {path}: applicant {applicant_id}: {column!r} must be {rule}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_blank_amount_exits_2_naming_applicant(self, workdir, tmp_path, capsys, command):
        """evaluate and assess take the amounts from prepared/test_loans.csv,
        where a missing amount is written "nan", and check them again."""
        root, config_path = workdir
        shutil.copytree(root / "out" / "prepared", tmp_path / "out" / "prepared")
        shutil.copytree(root / "out" / "models", tmp_path / "out" / "models")
        ids, _ = read_labels_csv(str(tmp_path / "out" / "prepared" / "test_labels.csv"))
        loans_path = tmp_path / "out" / "prepared" / "test_loans.csv"
        lines = loans_path.read_text().splitlines(keepends=True)
        lines[2] = "nan" + lines[2][lines[2].index(","):]
        loans_path.write_text("".join(lines))
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = [command, "--config", str(p)]
        if command == "assess":
            args += ["--ids", ids[0]]
        capsys.readouterr()
        code = main(args)
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        assert line == (
            f"error: {loans_path}: applicant {ids[1]}: 'amount' must be "
            "a finite number > 0, got nan"
        )

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_stages_after_prepare_read_no_raw_input(self, workdir, tmp_path, command):
        """evaluate and assess read only prepared and model files: with every
        raw input gone they still run, and evaluate writes the same bytes."""
        root, config_path = workdir
        out = tmp_path / "out"
        for sub in ("prepared", "models"):
            shutil.copytree(root / "out" / sub, out / sub)
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(out)
        data = cfg["data"]
        data["application_train"] = data["application_test"] = str(tmp_path / "gone.csv")
        for aux in data["aux"]:
            aux["path"] = str(tmp_path / "gone.csv")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = [command, "--config", str(p)]
        assert main(args + (["--ids", "481"] if command == "assess" else [])) == 0
        if command == "evaluate":
            expected = (root / "out" / "evaluation.json").read_bytes()
            assert (out / "evaluation.json").read_bytes() == expected


class TestLoanDecisions:
    def test_assess_called_only_for_reported_applicants(self, workdir, monkeypatch):
        root, config_path = workdir
        calls = []

        def counting_assess(*args, **kwargs):
            calls.append(kwargs.get("applicant_id"))
            return assess(*args, **kwargs)

        monkeypatch.setattr("riskforge.cli.assess", counting_assess)
        assert main(["evaluate", "--config", str(config_path)]) == 0
        assert calls == []
        with open(root / "out" / "prepared" / "test_labels.csv") as fh:
            a, b = [row[0] for row in list(csv.reader(fh))[1:3]]
        assert main(["assess", "--config", str(config_path), "--ids", f"{a},{b}"]) == 0
        assert calls == [a, b]

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_nan_leaf_exits_2(self, workdir, tmp_path, capsys, command):
        root, config_path = workdir
        shutil.copytree(root / "out" / "prepared", tmp_path / "out" / "prepared")
        shutil.copytree(root / "out" / "models", tmp_path / "out" / "models")
        model_path = tmp_path / "out" / "models" / "boosted_leafwise.json"
        doc = json.loads(model_path.read_text())
        # The base score adds into every row's margin: a NaN would score every
        # row NaN, so the model file is rejected.
        doc["base_score"] = float("nan")
        model_path.write_text(json.dumps(doc))
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main([command, "--config", str(p)]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines == [f"error: {model_path}: model 'base_score' must be finite, got nan"]

    def test_overflowing_payment_exits_2_naming_applicant(self, workdir, tmp_path, capsys):
        root, config_path = workdir
        shutil.copytree(root / "out" / "prepared", tmp_path / "out" / "prepared")
        shutil.copytree(root / "out" / "models", tmp_path / "out" / "models")
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["risk"]["base_rate"] = 1e308
        cfg["risk"]["decisions"] = dict.fromkeys(("low", "moderate", "high"), "approve")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        with open(root / "out" / "prepared" / "test_labels.csv") as fh:
            applicant = list(csv.reader(fh))[1][0]
        code = main(["assess", "--config", str(p), "--ids", applicant])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        assert line.startswith(f"error: applicant {applicant}: the monthly payment at 1e+308% a")
        assert line.endswith("months overflows a float")


def _set_cell(column, value, row=1):
    def edit(rows):
        rows[row][rows[0].index(column)] = value
    return edit


def _drop_last_field(rows):
    rows[2] = rows[2][:-1]


def _repeat_first_id(rows):
    rows[2][0] = rows[1][0]


def _rename_column(column, name):
    def edit(rows):
        rows[0][rows[0].index(column)] = name
    return edit


def _edited_config(workdir, tmp_dir, edits):
    """Config for a copy of the shared corpus with ``edits[file](rows)`` applied."""
    root, config_path = workdir
    corpus = tmp_dir / "corpus"
    shutil.copytree(root / "corpus", corpus)
    for name, edit in edits.items():
        with open(corpus / name, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(corpus / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    cfg = json.loads(config_path.read_text())
    data = cfg["data"]
    for key in ("application_train", "application_test"):
        data[key] = str(corpus / os.path.basename(data[key]))
    for aux in data["aux"]:
        aux["path"] = str(corpus / os.path.basename(aux["path"]))
    cfg["output_dir"] = str(tmp_dir / "out")
    p = tmp_dir / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


DELETE = object()

#: SHA-256 of ``repr(parse_config(default_config_dict()))``, recorded before
#: each config section was read from its dataclass, so that no parsed value or
#: type (an int where a float was read, say) can drift. Re-recorded when
#: ``LimeParams`` lost its ``seed=0`` field, when ``RunConfig`` lost its
#: ``metric`` and ``report_model`` fields, when ``aux_tables`` became
#: (path, spec) pairs and ``catalog`` became ``recipes``, a tuple of named
#: recipes, and when ``LimeParams`` lost its ``kernel_width=None`` field, each
#: time the repr's only change.
DEFAULT_CONFIG_REPR_SHA256 = "0f3ddff2847524bedc71b95a99b4d74e00bc037e32aca64c6e8dde0c857b899f"


def _assert_clean_exit(code, err):
    """Exit 0 with nothing on stderr, or exit 2 with one short error line."""
    lines = err.strip().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code == 2
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert len(lines[0]) < 300
    return lines


class TestCorruptCells:
    """One corrupted corpus cell: prepare exits 0, or 2 with one stderr line."""

    @pytest.mark.parametrize(
        "name, edit, code, needle",
        [
            ("application_test.csv", _set_cell("ext_score_1", "high"), 2, "'ext_score_1'"),
            ("application_train.csv", _set_cell("ext_score_1", "high"), 2, "'ext_score_1'"),
            ("application_train.csv", _set_cell("ext_score_1", ""), 0, None),
            ("application_test.csv", _set_cell("amt_income_total", "NA"), 0, None),
            ("application_train.csv", _drop_last_field, 2, "row 3"),
            ("application_train.csv", _set_cell("target", ""), 2,
             "application_train.csv: row 2: label 'target' missing"),
            ("application_train.csv", _set_cell("target", "2"), 2,
             "application_train.csv: row 2: label 'target' must be 0 or 1, got '2'"),
            ("application_test.csv", _repeat_first_id, 2,
             "application_test.csv: row 3: duplicate applicant id"),
            ("bureau.csv", _set_cell("amt_credit_sum", "lots"), 2,
             "error: {corpus}/bureau.csv: aux value column 'amt_credit_sum' is not numeric"),
            ("bureau.csv", _rename_column("amt_credit_sum", "nope"), 2,
             "error: {corpus}/bureau.csv: unknown column 'amt_credit_sum'"),
            ("application_test.csv", _set_cell("days_birth", "x"), 2,
             "error: {corpus}/application_test.csv: "
             "recipe 'AGE_YEARS' input 'days_birth' is not numeric"),
            ("application_train.csv", _set_cell("amt_income_total", "1e308"), 2,
             "'amt_income_total'"),
            ("application_train.csv", _rename_column("applicant_id", "id"), 2,
             "categorical column 'applicant_id' is not in the header"),
            ("application_train.csv", _rename_column("target", "label"), 2,
             "application_train.csv: categorical column 'target' is not in the header"),
            ("application_train.csv", _set_cell("ext_score_1", "9" * 140_000), 2,
             "application_train.csv: line 2: field larger than field limit (131072)"),
        ],
        ids=[
            "text-in-numeric-test", "text-in-numeric-train", "blank-numeric",
            "na-numeric", "ragged-row", "blank-target", "target-2", "duplicate-id",
            "text-in-bureau-value", "no-bureau-value-column", "text-in-recipe-input-test",
            "huge-numeric-train", "no-id-column", "no-label-column", "long-field",
        ],
    )
    def test_prepare_exit_code(self, workdir, tmp_path, capsys, name, edit, code, needle):
        """A needle that starts with ``error: `` is the whole line."""
        p = _edited_config(workdir, tmp_path, {name: edit})
        capsys.readouterr()
        assert main(["prepare", "--config", str(p)]) == code
        lines = _assert_clean_exit(code, capsys.readouterr().err)
        if code == 2 and needle.startswith("error: "):
            assert lines[0] == needle.format(corpus=tmp_path / "corpus")
        elif code == 2:
            assert needle in lines[0]

    def test_non_utf8_byte_exits_2(self, workdir, tmp_path, capsys):
        p = _edited_config(workdir, tmp_path, {})
        payments = tmp_path / "corpus" / "payments.csv"
        with open(payments, "ab") as fh:
            fh.write(b"1,\xff\r\n")
        capsys.readouterr()
        code = main(["prepare", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        assert line == f"error: {payments}: not UTF-8 text (invalid start byte: byte 0xff)"


class TestApplicantIds:
    """Each applicant id names its report directory under ``applicants/``: a
    missing id, ``.``, ``..`` or one holding ``/``, ``\\`` or NUL makes prepare
    exit 2 with one line naming the file and the row, before writing anything."""

    @pytest.mark.parametrize("name", ["application_train.csv", "application_test.csv"])
    @pytest.mark.parametrize(
        "applicant_id, needle",
        [
            ("", "applicant id missing"),
            ("NA", "applicant id missing"),
            (".", "applicant id '.' cannot name a directory"),
            ("..", "applicant id '..' cannot name a directory"),
            ("../../escaped", "applicant id '../../escaped' cannot name a directory"),
            ("a\\b", "applicant id 'a\\\\b' cannot name a directory"),
            ("a\0b", "applicant id 'a\\x00b' cannot name a directory"),
        ],
        ids=["blank", "na", "dot", "dot-dot", "slash", "backslash", "nul"],
    )
    def test_prepare_exits_2_naming_row(
        self, workdir, tmp_path, capsys, name, applicant_id, needle
    ):
        p = _edited_config(workdir, tmp_path, {name: _set_cell("applicant_id", applicant_id, 3)})
        capsys.readouterr()
        code = main(["prepare", "--config", str(p)])
        assert code == 2
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == f"error: {tmp_path / 'corpus' / name}: row 4: {needle}"
        assert not (tmp_path / "out").exists()


def _keep_header(rows):
    del rows[1:]


class TestHeaderOnlyInputs:
    """A corpus file with a header and no rows: prepare exits 2 with one line."""

    @pytest.mark.parametrize(
        "name, message",
        [
            ("bureau.csv",
             "column 'bureau_amt_credit_sum_MEAN' has no non-missing values to fit"),
            ("application_test.csv", "{corpus}/application_test.csv: no applicant rows"),
            ("application_train.csv", "{corpus}/application_train.csv: no applicant rows"),
        ],
        ids=["bureau", "application-test", "application-train"],
    )
    def test_prepare_exits_2(self, workdir, tmp_path, capsys, name, message):
        p = _edited_config(workdir, tmp_path, {name: _keep_header})
        capsys.readouterr()
        code = main(["prepare", "--config", str(p)])
        message = message.format(corpus=tmp_path / "corpus")
        assert _assert_clean_exit(code, capsys.readouterr().err) == [f"error: {message}"]


def _set_column(column, first, rest):
    """Every cell of ``column`` set to ``rest``, but the first row's to ``first``."""
    def edit(rows):
        j = rows[0].index(column)
        for k, row in enumerate(rows[1:]):
            row[j] = rest if k else first
    return edit


def test_test_split_without_a_categorical_cell(workdir, tmp_path):
    """A test split with no housing_type cell keeps it a text column: each
    row takes the indicator of the train mode."""
    p = _edited_config(
        workdir, tmp_path, {"application_test.csv": _set_column("housing_type", "", "")}
    )
    assert main(["prepare", "--config", str(p)]) == 0
    prepared = tmp_path / "out" / "prepared"
    mode = load_json(prepared / "pipeline.json")["imputer"]["modes"]["housing_type"]
    names, matrix = read_matrix_csv(str(prepared / "test_features.csv"))
    housing = [j for j, name in enumerate(names) if name.startswith("housing_type=")]
    want = np.array([name == f"housing_type={mode}" for name in names])[housing]
    assert len(housing) > 1 and want.sum() == 1
    assert len(matrix) > 1 and (matrix[:, housing] == want).all()


def test_test_split_with_only_a_number_in_a_categorical_column(workdir, tmp_path, capsys):
    """A present cell keeps its column's kind: one number among blanks makes
    housing_type numeric in the test split, as one text cell in a numeric
    train column makes it text, and prepare exits 2 as before."""
    p = _edited_config(
        workdir, tmp_path, {"application_test.csv": _set_column("housing_type", "1", "")}
    )
    capsys.readouterr()
    code = main(["prepare", "--config", str(p)])
    assert _assert_clean_exit(code, capsys.readouterr().err) == [
        "error: table schema does not match the fitted pipeline: "
        "column 'housing_type' is numeric, fitted as categorical"
    ]


def _edit_json(edit):
    def apply(path):
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    return apply


def _write_text(text):
    return lambda path: path.write_text(text)


def _set_second_cell(text):
    """The second cell of a two-column file's first row (a label or a loan
    term) set to ``text``."""
    def edit(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].split(",")[0] + f",{text}\n"
        path.write_text("".join(lines))
    return edit


def _drop_last_line(path):
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def _rename_last_column(path):
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = lines[0].replace("term_months", "term")
    path.write_text("".join(lines))


def _set_first_cell(text, row=1):
    def edit(path):
        lines = path.read_text().splitlines(keepends=True)
        lines[row] = text + lines[row][lines[row].index(","):]
        path.write_text("".join(lines))
    return edit


def _repeat_first_label_id(path):
    first_id = path.read_text().splitlines()[1].split(",")[0]
    _set_first_cell(first_id, row=2)(path)


def _move_cell_to_next_row(path):
    """The first row's last cell moved to the front of the second row: the
    file keeps its cell count, but the first row is one field short."""
    lines = path.read_text().splitlines(keepends=True)
    head, _, cell = lines[1].rstrip("\r\n").rpartition(",")
    lines[1:3] = [head + "\r\n", cell + "," + lines[2]]
    path.write_text("".join(lines))


def _edit_first_leaf(**values):
    """Tree 0's leftmost leaf updated with ``values``."""
    def edit(doc):
        node = doc["trees"][0]
        while "value" not in node:
            node = node["left"]
        node.update(values)
    return _edit_json(edit)


def _deep_first_tree(depth):
    """Tree 0 made a left chain ``depth`` splits deep. The chain is written as
    text, because the json module cannot encode a document that deep."""
    def edit(path):
        doc = json.loads(path.read_text())
        doc["trees"][0] = "chain"
        split = (
            '{"feature": 0, "threshold": 0.0, "cover": 2.0,'
            ' "right": {"value": 0.0, "cover": 1.0}, "left": '
        )
        chain = split * depth + '{"value": 0.0, "cover": 1.0}' + "}" * depth
        path.write_text(json.dumps(doc).replace('"chain"', chain))
    return edit


def _copied_outputs(workdir, tmp_path):
    """(out, config path): a copy of the shared run's prepared and model
    files, and a config that reads them."""
    root, config_path = workdir
    out = tmp_path / "out"
    for sub in ("prepared", "models"):
        shutil.copytree(root / "out" / sub, out / sub)
    cfg = json.loads(config_path.read_text())
    cfg["output_dir"] = str(out)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return out, p


@pytest.mark.parametrize(
    "cell, valid",
    [("0", True), ("1", True), ("1.0", True), ("2", False), ("", False), ("x", False)],
)
def test_label_rule_same_in_raw_and_prepared_files(workdir, tmp_path, capsys, cell, valid):
    """One label cell in a raw application file and in a prepared labels file
    gets one verdict; a rejected one is named by file and row."""
    raw_cfg = _edited_config(
        workdir, tmp_path / "raw", {"application_train.csv": _set_cell("target", cell)}
    )
    out, cfg = _copied_outputs(workdir, tmp_path / "stage")
    labels = out / "prepared" / "test_labels.csv"
    _set_second_cell(cell)(labels)
    capsys.readouterr()
    for command, p, path in [
        ("prepare", raw_cfg, tmp_path / "raw" / "corpus" / "application_train.csv"),
        ("evaluate", cfg, labels),
    ]:
        code = main([command, "--config", str(p)])
        lines = _assert_clean_exit(code, capsys.readouterr().err)
        assert code == (0 if valid else 2)
        if not valid:
            assert lines[0].startswith(f"error: {path}: row 2: label ")
            assert lines[0].count(str(path)) == 1


class TestCorruptStageFiles:
    """A corrupted model or prepared file: evaluate and assess exit 2 with one
    stderr line that names the file."""

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    @pytest.mark.parametrize(
        "rel, corrupt, needle",
        [
            ("models/forest.json", _edit_json(lambda d: d["trees"][0].pop("cover")),
             "'cover' must be a number"),
            ("models/forest.json", _edit_json(lambda d: d.update(trees=[])),
             "fewer than 1 items"),
            ("models/boosted_leafwise.json",
             _edit_json(lambda d: d["trees"][0].update(feature=999)),
             "feature 999 is outside"),
            ("models/boosted_levelwise.json", _write_text("[1]"), "expected ['object']"),
            ("models/boosted_levelwise.json", _write_text("{bad"), "Expecting property name"),
            ("models/boosted_leafwise.json", _edit_json(lambda d: d.update(learning_rate=0.5)),
             "learning_rate 0.5 differs from its params"),
            ("models/forest.json", _edit_json(lambda d: d["params"].update(depth=3)),
             "unexpected keyword argument 'depth'"),
            ("models/forest.json", _deep_first_tree(2000), "the document is nested too deep"),
            ("models/forest.json", _edit_json(lambda d: d["params"].update(max_depth=513)),
             "max_depth must be <= 512, got 513"),
            ("models/boosted_leafwise.json",
             _edit_json(lambda d: d["params"].update(max_leaves=513)),
             "max_leaves must be <= 512, got 513"),
            ("prepared/pipeline.json", _edit_json(lambda d: d.pop("scaler")),
             "missing required key 'scaler'"),
            ("prepared/pipeline.json", _write_text("{bad"), "Expecting property name"),
            ("prepared/test_features.csv", _set_first_cell("high"),
             "could not convert string to float"),
            ("prepared/test_features.csv", Path.unlink, "No such file"),
            ("prepared/test_features.csv", _move_cell_to_next_row, "row 2 has "),
            ("prepared/test_labels.csv", _write_text("applicant_id,label\r\n7\r\n"),
             "row 2 has 1 fields, expected 2"),
            ("prepared/test_labels.csv", _set_second_cell("3"),
             "row 2: label 'label' must be 0 or 1, got '3'"),
            ("prepared/test_labels.csv",
             _write_text("applicant_id,label\r\n7,0\r\n8,1" + "0" * 23 + "\r\n"),
             "row 3: label 'label' must be 0 or 1, got '1" + "0" * 23 + "'"),
            ("prepared/test_labels.csv",
             _write_text("applicant_id,label\r\n7,0\r\n8,1\r\n9\r\n"),
             "row 4 has 1 fields, expected 2"),
            ("prepared/test_labels.csv", _write_text("id,y\r\n7,0\r\n"),
             "categorical column 'applicant_id' is not in the header"),
            ("prepared/test_labels.csv", _set_first_cell("../../escaped"),
             "row 2: applicant id '../../escaped' cannot name a directory"),
            ("prepared/test_labels.csv", _repeat_first_label_id,
             "row 3: duplicate applicant id '481'"),
            ("prepared/test_loans.csv", Path.unlink, "No such file"),
            ("prepared/test_loans.csv", _rename_last_column,
             "prepared matrices do not match the loan columns"),
            ("prepared/test_loans.csv", _drop_last_line, "expected 120 rows, got 119"),
            ("prepared/test_loans.csv", _set_second_cell("nan"),
             "applicant 481: 'term_months' must be a whole number >= 1, got nan"),
            ("prepared/test_loans.csv", _set_second_cell("inf"),
             "applicant 481: 'term_months' must be a whole number >= 1, got inf"),
            ("models/boosted_leafwise.json", _edit_json(lambda d: d["trees"][0].update(cover=0)),
             "tree node 'cover' must be finite and > 0, got 0"),
            ("models/boosted_leafwise.json", _edit_first_leaf(cover=0),
             "tree node 'cover' must be finite and > 0, got 0"),
            ("models/boosted_leafwise.json", _edit_first_leaf(cover=math.nan),
             "tree node 'cover' must be finite and > 0, got nan"),
            ("models/boosted_leafwise.json", _edit_first_leaf(value=math.nan),
             "tree node 'value' must be finite, got nan"),
            ("models/boosted_leafwise.json",
             _edit_json(lambda d: d["trees"][0].update(threshold=math.nan)),
             "tree node 'threshold' must be finite, got nan"),
            ("models/boosted_leafwise.json", _edit_json(lambda d: d.update(base_score=math.inf)),
             "model 'base_score' must be finite, got inf"),
            ("prepared/test_labels.csv", _set_first_cell("7" * 140_000),
             "line 2: field larger than field limit (131072)"),
            ("prepared/test_features.csv", _set_first_cell("1" * 140_000),
             "line 2: field larger than field limit (131072)"),
            ("prepared/test_features.csv", _set_first_cell("nan"),
             "row 2: 'ext_score_1' must be a finite number, got nan"),
            ("prepared/test_features.csv", _set_first_cell("inf", row=3),
             "row 4: 'ext_score_1' must be a finite number, got inf"),
            ("prepared/test_features.csv", _set_first_cell("-inf"),
             "row 2: 'ext_score_1' must be a finite number, got -inf"),
            ("prepared/test_features.csv", _set_first_cell("1e400"),
             "row 2: 'ext_score_1' must be a finite number, got inf"),
        ],
        ids=[
            "no-cover", "empty-forest", "feature-999", "model-is-list", "model-not-json",
            "learning-rate-differs", "unknown-param", "deep-tree", "depth-over-cap",
            "leaves-over-cap", "no-scaler", "pipeline-not-json",
            "text-in-features", "no-test-features", "ragged-features", "short-label-row",
            "label-3", "huge-label", "short-last-label-row", "label-header", "unsafe-label-id",
            "duplicate-label-id",
            "no-test-loans", "loans-header", "short-loans", "nan-term", "inf-term",
            "split-cover-zero", "leaf-cover-zero", "leaf-cover-nan", "leaf-value-nan",
            "threshold-nan", "base-score-inf",
            "long-label-field", "long-feature-field", "nan-feature", "inf-feature",
            "minus-inf-feature", "1e400-feature",
        ],
    )
    def test_exits_2_naming_file(self, workdir, tmp_path, capsys, command, rel, corrupt, needle):
        out, p = _copied_outputs(workdir, tmp_path)
        corrupt(out / rel)
        capsys.readouterr()
        code = main([command, "--config", str(p)])
        assert code == 2
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line.startswith(f"error: {out / rel}: ") and needle in line
        assert line.count(str(out / rel)) == 1
        assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]

    @pytest.mark.parametrize(
        "command, split, extra_loan",
        [
            ("evaluate", "test", False),
            ("assess", "test", False),
            ("evaluate", "test", True),
            ("assess", "test", True),
            ("train", "train", False),
        ],
    )
    def test_extra_label_row_names_features_file(
        self, workdir, tmp_path, capsys, command, split, extra_loan
    ):
        """A labels file one row longer than its features file (and the loans
        file, when ``extra_loan``): the features file is named, with the row
        count that the labels give."""
        out, p = _copied_outputs(workdir, tmp_path)
        labels = out / "prepared" / f"{split}_labels.csv"
        n = len(labels.read_text().splitlines()) - 1
        with open(labels, "a", newline="") as fh:
            fh.write("extra,0\r\n")
        if extra_loan:
            with open(out / "prepared" / "test_loans.csv", "a", newline="") as fh:
                fh.write("1000.0,12.0\r\n")
        capsys.readouterr()
        code = main([command, "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        features = out / "prepared" / f"{split}_features.csv"
        assert line == f"error: {features}: expected {n + 1} rows, got {n}"

    @pytest.mark.parametrize(
        "corrupt, needle",
        [
            (Path.unlink, "No such file"),
            (_drop_last_line, "expected 2 rows, got 1"),
            (_set_first_cell("nan", row=2), "row 3: 'ext_score_1' must be a finite number"),
        ],
        ids=["missing", "one-row", "nan-sd"],
    )
    def test_assess_feature_stats_exits_2(self, workdir, tmp_path, capsys, corrupt, needle):
        """Only assess reads LIME's feature stats; it needs no train matrix."""
        out, p = _copied_outputs(workdir, tmp_path)
        (out / "prepared" / "train_features.csv").unlink()
        path = out / "prepared" / "feature_stats.csv"
        corrupt(path)
        capsys.readouterr()
        code = main(["assess", "--config", str(p), "--ids", "481"])
        assert code == 2
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line.startswith(f"error: {path}: ") and needle in line

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_stale_models_exit_2(self, workdir, tmp_path, capsys, command):
        """Models trained before the features changed read their columns by
        position; a prepare with the recipes reversed makes them stale."""
        root, config_path = workdir
        shutil.copytree(root / "out" / "models", tmp_path / "out" / "models")
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        cfg["features"].reverse()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(p)]) == 0
        capsys.readouterr()
        code = main([command, "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        model_path = tmp_path / "out" / "models" / "boosted_leafwise.json"
        assert code == 2 and line.startswith(f"error: {model_path}: ")
        assert "run train again" in line

    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_format_1_model_exits_2(self, workdir, tmp_path, capsys, command):
        """Format-1 model files held every feature's bin edges; format 2
        holds trees and params only, so a format-1 file needs a new train."""
        out, p = _copied_outputs(workdir, tmp_path)
        path = out / "models" / "forest.json"
        doc = json.loads(path.read_text())
        doc["format"] = "riskforge.model/1"
        doc["bin_edges"] = [[0.5] for _ in doc["feature_names"]]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main([command, "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        assert line == (
            f"error: {path}: format 'riskforge.model/1' is not "
            "'riskforge.model/2'; run train again"
        )

    def test_empty_features_file_exits_2(self, workdir, tmp_path, capsys):
        root, config_path = workdir
        shutil.copytree(root / "out" / "prepared", tmp_path / "out" / "prepared")
        (tmp_path / "out" / "prepared" / "train_features.csv").write_text("")
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["train", "--config", str(p)])
        assert code == 2
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert "do not match the pipeline feature names" in line


CORPUS_CSVS = ("application_train.csv", "application_test.csv", "bureau.csv", "payments.csv")

#: What a drawn corruption writes into its cell; "ragged" drops the row's last field.
CORRUPTIONS = {"text": "high", "blank": "", "NA": "NA", "inf": "inf", "1e308": "1e308"}


@settings(
    max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    name=st.sampled_from(CORPUS_CSVS),
    corruption=st.sampled_from(sorted(CORRUPTIONS) + ["ragged"]),
    data=st.data(),
)
def test_prepare_survives_any_corrupt_cell(workdir, capsys, name, corruption, data):
    """Any one corrupted cell of any corpus file: exit 0, or 2 with one line."""
    with open(workdir[0] / "corpus" / name, newline="") as fh:
        header = next(csv.reader(fh))
        n_rows = sum(1 for _ in fh)
    row = data.draw(st.integers(1, n_rows), label="row")
    if corruption == "ragged":
        def edit(rows):
            rows[row] = rows[row][:-1]
    else:
        column = data.draw(st.sampled_from(header), label="column")
        edit = _set_cell(column, CORRUPTIONS[corruption], row)
    with tempfile.TemporaryDirectory() as tmp:
        p = _edited_config(workdir, Path(tmp), {name: edit})
        capsys.readouterr()
        code = main(["prepare", "--config", str(p)])
        _assert_clean_exit(code, capsys.readouterr().err)


#: SHA-256 of every corpus CSV and every file under ``out/prepared/`` for the
#: ``workdir`` config (600 rows, seed 7), recorded with numpy 2.4 on x86-64
#: before tables became columnar. "gaps" is a prepare of that corpus after
#: rewriting the cells of ``INGEST_GAPS``. Another numpy build or CPU may change
#: last-bit float results and so the digests; a refactor of ingest must keep
#: them. ``feature_stats.csv`` came later: its digests were recorded when
#: prepare began writing it, after checking that its two rows have the bits of
#: the train matrix's per-feature mean and std that assess used to compute.
#: ``test_loans.csv`` came when evaluate and assess stopped reading the raw test
#: CSV: its digests were recorded after checking that every evaluate and assess
#: output kept its bytes.
INGEST_GOLDEN = {
    "corpus": {
        "application_train.csv": "1a2b0fb27e034a9ad845ecbb9418124ebc8a1388f6a0947460a9d367c88b841d",
        "application_test.csv": "d50f92f299df088943b4098c09254d535d4cec86527bad8f594311f50cf44831",
        "bureau.csv": "0d420840fbfdcf61a03123e53bd839bbb1b66e935a48649ed0563057a42100f4",
        "payments.csv": "76e595defd9612383e3163d85847bb117dc2a414439531be6b3a3b589654cf06",
    },
    "prepared": {
        "feature_stats.csv": "364903080a987c48f0b9d64e7ade124c3e8fb47a78773cf0fff07e1d09b7ebc2",
        "pipeline.json": "73dae6a1b0a06b020d2cb60fb9fabc7a6258132ab169add4fce5d29dfa56b4e4",
        "test_features.csv": "5e038017ac8e110d7a187f632cfc69a3d335f9fe8a155d571253b9f66b136994",
        "test_labels.csv": "47d0835f938163642bc24a3d9b371f5399d0eab48505402840e62e55ad0b4cf1",
        "test_loans.csv": "92ff59b76c9948ce327a88a8472b75fd22cda5aeed3cc293df8512d883c7cab5",
        "train_features.csv": "930f0945d1602fff530e3bbab72c156c8390feed6f00ba4589078823815ffad9",
        "train_labels.csv": "858eaf232f131c6b878ce5437f7f4be48d7e0177b072e2371225564025758bad",
    },
    "gaps": {
        "feature_stats.csv": "38ea778df4fbc80ed2d5af57cb153bc9f786dac4737aa1361e805626e8bd266c",
        "pipeline.json": "d30697b12480e37c2336fa060295081ec15185aca2076116122dfb01874d6169",
        "test_features.csv": "521c0870a78a8d9d82009906b102ee87b8268f1443248a815b647afd32d42352",
        "test_labels.csv": "47d0835f938163642bc24a3d9b371f5399d0eab48505402840e62e55ad0b4cf1",
        "test_loans.csv": "92ff59b76c9948ce327a88a8472b75fd22cda5aeed3cc293df8512d883c7cab5",
        "train_features.csv": "1f74314f6fd339399436c239d7217e090cb19f1490bf85885b1dec0b86900a52",
        "train_labels.csv": "858eaf232f131c6b878ce5437f7f4be48d7e0177b072e2371225564025758bad",
    },
}

#: (file, column, row, text) cells written before the "gaps" prepare: blank and
#: NA numeric cells, blank categorical cells and a missing ratio input.
INGEST_GAPS = (
    ("application_train.csv", "housing_type", 1, ""),
    ("application_train.csv", "housing_type", 2, ""),
    ("application_train.csv", "ext_score_1", 3, "NA"),
    ("application_train.csv", "amt_goods_price", 4, ""),
    ("application_train.csv", "days_employed", 5, ""),
    ("application_test.csv", "housing_type", 1, ""),
    ("application_test.csv", "noise_1", 2, "NA"),
    ("bureau.csv", "amt_credit_sum", 1, ""),
    ("payments.csv", "amt_payment", 1, "NA"),
)


def _digests(directory, names=None):
    names = sorted(os.listdir(directory)) if names is None else names
    return {n: hashlib.sha256((directory / n).read_bytes()).hexdigest() for n in names}


class TestIngestGolden:
    def test_corpus_matches_golden(self, workdir):
        assert _digests(workdir[0] / "corpus", CORPUS_CSVS) == INGEST_GOLDEN["corpus"]

    def test_prepared_matches_golden(self, workdir):
        prepared = workdir[0] / "out" / "prepared"
        assert _digests(prepared) == INGEST_GOLDEN["prepared"]

    def test_prepared_with_gaps_matches_golden(self, workdir, tmp_path):
        def blank(name):
            def edit(rows):
                for file, column, row, text in INGEST_GAPS:
                    if file == name:
                        rows[row][rows[0].index(column)] = text
            return edit

        edits = {name: blank(name) for name, *_ in INGEST_GAPS}
        p = _edited_config(workdir, tmp_path, edits)
        assert main(["prepare", "--config", str(p)]) == 0
        assert _digests(tmp_path / "out" / "prepared") == INGEST_GOLDEN["gaps"]


#: SHA-256 of the corpus CSVs at the shapes of the benchmark corpora, as
#: (seed, rows, train fraction): the "train" and the "score-book" workloads.
#: Recorded with numpy 2.4.6 on x86-64 while the generator still built a
#: ``Table`` to write; writing its arrays straight to CSV kept every byte.
CORPUS_GOLDEN = {
    (1, 4_000, 0.2): {
        "application_train.csv": "bd5f775f964834cdc1d817c40e48e40084ed2e1f3ac8570320a3fb1982160592",
        "application_test.csv": "bdde165d50145f608d9e8b5993511dedb24314f1b6645d7824a20d127dcff8ab",
        "bureau.csv": "c7e7483a06dc5a2c0ef7a8d74f3e91559845b2bf8bf1b0b42018f284d5cfa52e",
        "payments.csv": "e3709a690aab35d4d06a528b6cce5a1e0a0dc4c64383f68123ba3cb7970c7d25",
    },
    (1, 14_000, 0.15): {
        "application_train.csv": "bc76d082d11066a2dd92b5425d4785fc64002b2ad79e91190fcec13200fb32c2",
        "application_test.csv": "96c2505f319f46ec880e80cd4afcd7de88d8ce5e1f3ca5770fb90ab3878700a1",
        "bureau.csv": "07d075b9e86f29414174e5162b80f6dde99fb74a90ceddc565d03b3cb3057d1e",
        "payments.csv": "3d29ac3a857804a9d17f9571601a40a1ccfed76911b48a59fa518ca4909d90c6",
    },
}


@pytest.mark.parametrize("shape", sorted(CORPUS_GOLDEN))
def test_corpus_at_bench_shape_matches_golden(shape, tmp_path):
    seed, n_rows, train_fraction = shape
    cfg = default_config_dict(str(tmp_path / "corpus"), str(tmp_path / "out"), n_rows, seed)
    cfg["corpus"]["train_fraction"] = train_fraction
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["gen-corpus", "--config", str(p)]) == 0
    assert _digests(tmp_path / "corpus", CORPUS_CSVS) == CORPUS_GOLDEN[shape]


def test_corpus_writes_one_chunk_of_rows_at_a_time(tmp_path, monkeypatch):
    """Each CSV of a 20,000-row corpus is written a chunk of rows at a time:
    the traced peak of each write stays under 1.5 MiB. Turning a whole file's
    columns into Python lists at once took 8.4 MiB for application_train.csv."""
    peaks = {}
    write = corpus._write_csv

    def traced_write(path, columns, rows):
        tracemalloc.start()
        try:
            write(path, columns, rows)
            peaks[os.path.basename(path)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(corpus, "_write_csv", traced_write)
    corpus.generate_corpus(str(tmp_path), 42, 20_000)
    assert sorted(peaks) == sorted(CORPUS_CSVS)
    assert max(peaks.values()) < 1.5 * 2**20, peaks


#: SHA-256 of every file that ``evaluate`` and then ``assess`` for the first
#: two test applicants write from the ``workdir`` prepared and model files
#: (600 rows, seed 7), recorded with numpy 2.4.6 on x86-64 while the reports
#: were still built from report records. Another numpy build or CPU may change
#: last-bit float results and so the digests; a refactor of the reports must
#: keep them.
REPORT_GOLDEN = {
    "applicants/481/charts/lime.svg": "14e77464f5608b21b88ae87827ab9ed43f11f92c37336ceab3adff7d84b3be13",
    "applicants/481/charts/shap.svg": "a69bef32e1a03a9b86522630db34cfdddf970dec44bf644c9e9ef0f12a7c4fc9",
    "applicants/481/report.html": "86818f265686d1eaa1c1deb4fa5e0d4108f69de6c0228a15fbd7417830b79295",
    "applicants/481/report.json": "676e932d6163cf9d7a47f14c6e617dfcd3d7cf4dc99d73c6c58ca1ec679d9d32",
    "applicants/482/charts/lime.svg": "b46c15fd5a3170b6e2efdc13d36085afb66e110fa082d589cd8336057a34cff3",
    "applicants/482/charts/shap.svg": "697fb1852e71f566290a873900f251cc62174ada0dd858c069b9700803e24375",
    "applicants/482/report.html": "7726cd28d4fe7fd253e29fa861329f25e66d7dc546a1f4c6bef3748acd9bf63d",
    "applicants/482/report.json": "d97b8826d265d216eaf8317814a5f627328c815a4ba3c44e3c329f421278a972",
    "business_impact.html": "5466c8e1b6dbaa633b42f89ebcb8f3ca4968dce2cdd84784446f9621e77301ee",
    "business_impact.json": "b374525474266c3149eacc9267af8acf8697ab31e9c535735d814f5f55526e60",
    "evaluation.json": "3add93c2a2430e4e1c3e9e59640edfd900cef8996b5d176369e80fd4103828b3",
    "xai_report.html": "c92f49885177998f12b6be5aba42fdcf74b82ac9123fcd9a76b7847243f22d9b",
    "xai_report.json": "00bc7d6a7723c87e776e1b7026a1f343e2ea81efff4a4fe176d4b182a3cda505",
}


class TestReportGolden:
    def test_reports_match_golden(self, workdir, tmp_path):
        root, config_path = workdir
        out = tmp_path / "out"
        for sub in ("prepared", "models"):
            shutil.copytree(root / "out" / sub, out / sub)
        (out / "prepared" / "train_features.csv").unlink()  # neither stage reads it
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(out)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        ids, _ = read_labels_csv(str(out / "prepared" / "test_labels.csv"))
        assert main(["evaluate", "--config", str(p)]) == 0
        assert main(["assess", "--config", str(p), "--ids", ",".join(ids[:2])]) == 0
        written = sorted(
            str(f.relative_to(out)) for f in out.rglob("*")
            if f.is_file() and f.relative_to(out).parts[0] not in ("prepared", "models")
        )
        assert written == sorted(REPORT_GOLDEN)
        assert _digests(out, written) == REPORT_GOLDEN


def _float_key_config():
    """The default config with every float key set: each learner's params hold
    every float field of its params class."""
    cfg = default_config_dict()
    for kind, entry in cfg["models"].items():
        for f in dataclasses.fields(tuning.LEARNERS[kind].params):
            if f.type == "float":
                entry["params"].setdefault(f.name, f.default)
    return cfg


def _float_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if type(node) is float else []
    return [p for k, v in items for p in _float_paths(v, (*path, k))]


_FLOAT_KEYS = _float_paths(_float_key_config())


def _key_name(path):
    """A key path as config errors print it: ``data.aux[0].statistics``."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path).lstrip(".")


def _config_with(tmp_path, path, value):
    """A file holding the default config with the key at the dotted ``path``
    (list indices as digits) set to ``value``, or deleted for DELETE."""
    cfg = default_config_dict()
    *parents, key = [int(k) if k.isdigit() else k for k in path.split(".")]
    node = cfg
    for k in parents:
        node = node[k]
    if value is DELETE:
        del node[key]
    else:
        node[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


class TestConfig:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="mystery"):
            parse_config({"mystery": 1})

    def test_unknown_model_param_rejected(self):
        cfg = default_config_dict()
        cfg["models"]["forest"]["params"]["depth"] = 3
        with pytest.raises(ConfigError, match="depth"):
            parse_config(cfg)

    def test_unknown_learner_rejected(self):
        cfg = default_config_dict()
        cfg["models"]["svm"] = {"params": {}, "grid": {}}
        with pytest.raises(ConfigError, match="svm"):
            parse_config(cfg)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            ("metric", "roc_auc", "config: unknown keys ['metric']"),
            ("report", {"model": "best"}, "config: unknown keys ['report']"),
            ("explain.lime.kernel_width", None, "explain.lime: unknown keys ['kernel_width']"),
            ("explain.lime.kernel_width", 1.0, "explain.lime: unknown keys ['kernel_width']"),
            ("features.1", {"name": "BIG", "kind": "flag", "source": "amt_credit", "op": "gt",
                            "value": 1e6}, "features[1]: unknown recipe kind 'flag'"),
            ("data.aux.0.statistics", ["mean", "min"],
             "data.aux[0]: 'min' is not a valid Statistic"),
            ("data.aux.1.statistics", ["std"], "data.aux[1]: 'std' is not a valid Statistic"),
        ],
        ids=["metric", "report", "kernel-width-null", "kernel-width", "flag-recipe",
             "min-statistic", "std-statistic"],
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, path, value, message):
        """Every model choice is made by ROC AUC, so neither a CV ``metric``
        nor a ``report`` model is a key. LIME's kernel width is always the
        reference LIME's 0.75 * sqrt(d), the recipes are ratios and day counts,
        and the aux statistics are mean, max, sum and count."""
        code = main(["prepare", "--config", str(_config_with(tmp_path, path, value))])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == f"error: {message}"

    @pytest.mark.parametrize(
        "path, value, needle",
        [
            ("seed", "abc", 'seed: expected int, got "abc"'),
            ("threshold", None, "threshold: expected float, got null"),
            ("smote.k", "x", 'smote.k: expected int, got "x"'),
            ("risk.premiums.low", "x", 'risk.premiums.low: expected float, got "x"'),
            ("features.0.numerator", DELETE, "features[0].numerator is required"),
            ("risk.band_rules.low.max_term_months", DELETE,
             "risk.band_rules.low.max_term_months is required"),
            ("data.aux.0.statistics", DELETE, "data.aux[0].statistics is required"),
            ("models.boosted_levelwise.grid.max_depth", 3,
             "models.boosted_levelwise.grid.max_depth: expected list, got 3"),
            ("data.aux.0.statistics", 5, "data.aux[0].statistics: expected list, got 5"),
            ("data.aux.0.value_columns", "amt", "data.aux[0].value_columns: expected list"),
            ("data.aux.0.statistics", ["mean", 1], "data.aux[0].statistics[1]: expected str"),
            ("data.aux.0.value_columns", [None], "data.aux[0].value_columns[0]: expected str"),
            ("threshold", "0.5", 'threshold: expected float, got "0.5"'),
            ("explain.lime.top_k", "3", 'explain.lime.top_k: expected int, got "3"'),
            ("seed", True, "seed: expected int, got true"),
            ("risk.band_rules.high.require_cosigner", 1,
             "risk.band_rules.high.require_cosigner: expected bool, got 1"),
            ("models.forest.params.n_trees", "40", "models.forest.params.n_trees: expected int"),
            ("features.1.kind", "log", "features[1]: unknown recipe kind 'log'"),
            ("features.0.name", DELETE, "features[0].name is required"),
            ("smote.seed", 3, "smote: unknown keys ['seed']"),
            ("explain.lime.seed", 3, "explain.lime: unknown keys ['seed']"),
            ("threshold", 10**400, "threshold: float out of range"),
            ("explain.shap_sample", -1, "explain.shap_sample must be >= 1, got -1"),
            ("explain.shap_sample", 0, "explain.shap_sample must be >= 1, got 0"),
            ("risk.band_rules.low.max_term_months", 0,
             "risk.band_rules.low: max_term_months must be >= 1, got 0"),
            ("risk.band_rules.low.max_term_months", -12,
             "risk.band_rules.low: max_term_months must be >= 1, got -12"),
            ("risk.band_rules.high.collateral_above", -1.0,
             "risk.band_rules.high: collateral_above must be >= 0, got -1.0"),
            ("smote.k", 0, "smote: k must be >= 1, got 0"),
            ("cv.n_folds", 1, "cv: cross-validation needs at least 2 folds"),
            ("explain.lime.top_k", 0, "explain.lime: top_k must be >= 1"),
            ("models.boosted_levelwise.params.n_trees", 0,
             "models.boosted_levelwise.params: n_trees must be >= 1"),
            ("models.forest.grid.n_bins", [1], "models.forest.grid: n_bins must be >= 2"),
            ("explain.lime.n_samples", 10**12,
             "explain.lime: n_samples must be <= 1000000, got 1000000000000"),
            ("models.boosted_leafwise.params.l2_regularization", math.nan,
             "models.boosted_leafwise.params.l2_regularization: expected float, got NaN"),
            ("explain.lime.alpha", math.inf, "explain.lime.alpha: expected float, got Infinity"),
            ("risk.base_rate", math.nan, "risk.base_rate: expected float, got NaN"),
            ("risk.premiums.low", math.inf, "risk.premiums.low: expected float, got Infinity"),
            ("risk.base_rate", -2400, "risk: base_rate must be >= 0, got -2400.0"),
            ("risk", {"base_rate": 1e308, "premiums": {"low": 0.0, "moderate": 1e308,
                                                        "high": 1e308}},
             "risk: base_rate plus the Moderate premium overflows"),
            ("corpus.n_rows", 10**12, "corpus.n_rows must be <= 1000000, got 1000000000000"),
            ("corpus.n_rows", 199, "corpus.n_rows must be >= 200, got 199"),
            ("corpus.train_fraction", 1, "corpus.train_fraction must be in (0, 1), got 1.0"),
            ("corpus.train_fraction", 0.0, "corpus.train_fraction must be in (0, 1), got 0.0"),
            ("data.aux.0.statistics", [],
             "data.aux[0]: aggregation requires at least one statistic"),
            ("data.aux.1.statistics", ["mean", "sum", "mean"],
             "data.aux[1]: duplicate statistics in aggregation spec"),
            ("models.forest.params.max_depth", 513,
             "models.forest.params: max_depth must be <= 512, got 513"),
            ("models.boosted_levelwise.grid.max_depth", [4, 513],
             "models.boosted_levelwise.grid: max_depth must be <= 512, got 513"),
            ("models.boosted_leafwise.params.max_leaves", 513,
             "models.boosted_leafwise.params: max_leaves must be <= 512, got 513"),
        ],
        ids=[
            "seed-text", "threshold-null", "smote-k-text", "premium-text", "ratio-no-numerator",
            "band-rule-no-term", "aux-no-statistics", "grid-not-list", "statistics-not-list",
            "value-columns-not-list", "statistic-not-text", "value-column-not-text",
            "threshold-text", "top-k-text", "seed-bool", "cosigner-int", "model-param-text", "unknown-recipe-kind", "recipe-no-name",
            "smote-seed-is-fixed", "lime-seed-is-no-key", "integer-beyond-float-range",
            "shap-sample-negative", "shap-sample-zero", "band-rule-zero-term",
            "band-rule-negative-term", "band-rule-negative-collateral", "smote-k-zero",
            "cv-one-fold", "lime-top-k-zero", "model-param-zero-trees", "grid-one-bin",
            "lime-samples-too-many",
            "l2-nan", "lime-alpha-inf", "base-rate-nan", "premium-inf", "base-rate-negative",
            "rate-overflows", "corpus-rows-too-many", "corpus-rows-too-few",
            "train-fraction-one", "train-fraction-zero", "aux-statistics-empty",
            "aux-statistic-repeated", "forest-depth-over-cap",
            "grid-depth-over-cap", "leaves-over-cap",
        ],
    )
    def test_bad_config_exits_2_naming_key(self, tmp_path, capsys, path, value, needle):
        code = main(["prepare", "--config", str(_config_with(tmp_path, path, value))])
        assert code == 2
        assert needle in _assert_clean_exit(code, capsys.readouterr().err)[0]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("path", _FLOAT_KEYS, ids=_key_name)
    def test_non_finite_float_exits_2_naming_key(self, tmp_path, capsys, path, token):
        """``json`` reads the NaN and Infinity tokens; no config float may hold one."""
        cfg = _float_key_config()
        *parents, key = path
        node = cfg
        for k in parents:
            node = node[k]
        node[key] = float(token)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = main(["prepare", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert code == 2
        assert line.startswith(f"error: {_key_name(path)}: expected float")  # or float | None
        assert line.endswith(f", got {token}")

    def test_float_beyond_range_exits_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(default_config_dict()).replace('"alpha": 1.0', '"alpha": 1e400'))
        code = main(["prepare", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == "error: explain.lime.alpha: expected float, got Infinity"

    def test_default_config_parses_to_golden_repr(self):
        parsed = repr(parse_config(default_config_dict()))
        assert hashlib.sha256(parsed.encode()).hexdigest() == DEFAULT_CONFIG_REPR_SHA256

    def test_minimal_config_takes_dataclass_defaults(self):
        cfg = parse_config(
            {"data": {"application_train": "a.csv", "application_test": "b.csv"},
             "models": {"forest": {}}}
        )
        assert repr(dataclasses.replace(cfg.smote, seed=0)) == repr(SmoteParams())
        assert repr(dataclasses.replace(cfg.cv, seed=0)) == repr(CvPlan())
        assert repr(cfg.lime) == repr(LimeParams())
        assert repr(cfg.risk) == repr(RiskConfig())

    def test_integer_for_float_is_stored_as_float(self):
        cfg = default_config_dict()
        cfg["threshold"] = 1
        cfg["risk"]["premiums"]["high"] = 9
        parsed = parse_config(cfg)
        assert repr(parsed.threshold) == "1.0"
        assert repr(parsed.risk.premiums[Band.HIGH]) == "9.0"

    def test_bad_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["prepare", "--config", str(p)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_names_path_once(self, tmp_path, capsys):
        p = tmp_path / "nowhere.json"
        code = main(["evaluate", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == f"error: cannot read config {p}: No such file or directory"

    def test_deep_config_exits_2(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"seed": ' + "[" * 3000 + "]" * 3000 + "}")
        code = main(["evaluate", "--config", str(p)])
        line = _assert_clean_exit(code, capsys.readouterr().err)[0]
        assert line == f"error: config {p} is nested too deep"

    def test_threads_flag_only_accepts_one(self, workdir, tmp_path, capsys):
        _, config_path = workdir
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out_threads")
        p = tmp_path / "cfg_threads.json"
        p.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(p), "--threads", "1"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["prepare", "--config", str(p), "--threads", "2"])
        assert exc.value.code == 2
        p.write_text(json.dumps({**cfg, "threads": 1}))
        capsys.readouterr()
        assert main(["prepare", "--config", str(p)]) == 2
        assert "threads" in capsys.readouterr().err


def _child_env():
    """The environment of a child that imports the same riskforge as this
    process, installed or not."""
    package_root = os.path.dirname(os.path.dirname(riskforge.__file__))
    path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}


class TestConsoleEntryPoint:
    def test_installed_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "riskforge.cli", "--help"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 0
        assert "gen-corpus" in proc.stdout


def test_scoring_the_book_loads_no_openssl(tmp_path):
    """``prepare`` then ``evaluate`` draw no random numbers, and seeds are
    hashed without ``hashlib``, so neither loads OpenSSL's libcrypto."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(small_config(tmp_path / "corpus", tmp_path / "out", n_rows=400)))
    for command in ("gen-corpus", "prepare", "train"):
        assert main([command, "--config", str(p)]) == 0
    script = (
        "import sys\n"
        "from riskforge.cli import main\n"
        "for command in ('prepare', 'evaluate'):\n"
        f"    assert main([command, '--config', {str(p)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m in ('_hashlib', 'hashlib', '_ssl')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
