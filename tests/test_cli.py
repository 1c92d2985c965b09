import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import riskforge
from riskforge.cli import main
from riskforge.config import default_config_dict, load_config, parse_config
from riskforge.errors import ConfigError
from riskforge.validation import validate


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

    def test_test_matrix_uses_train_schema(self, workdir):
        root, _ = workdir
        with open(root / "out" / "prepared" / "train_features.csv") as fh:
            train_header = fh.readline()
        with open(root / "out" / "prepared" / "test_features.csv") as fh:
            test_header = fh.readline()
        assert train_header == test_header


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

    def test_unknown_id_exits_2(self, workdir, capsys):
        _, config_path = workdir
        assert main(["assess", "--config", str(config_path), "--ids", "zzz"]) == 2
        assert "zzz" in capsys.readouterr().err

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


class TestRawLoanInputs:
    @pytest.mark.parametrize("command", ["evaluate", "assess"])
    def test_blank_amount_exits_2_naming_applicant(self, workdir, tmp_path, capsys, command):
        root, config_path = workdir
        with open(root / "corpus" / "application_test.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        applicant_id = rows[1]["applicant_id"]
        rows[1]["amt_credit"] = ""
        test_csv = tmp_path / "application_test.csv"
        with open(test_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        shutil.copytree(root / "out" / "prepared", tmp_path / "out" / "prepared")
        shutil.copytree(root / "out" / "models", tmp_path / "out" / "models")
        cfg = json.loads(config_path.read_text())
        cfg["data"]["application_test"] = str(test_csv)
        cfg["output_dir"] = str(tmp_path / "out")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        args = [command, "--config", str(p)]
        if command == "assess":
            args += ["--ids", rows[0]["applicant_id"]]
        assert main(args) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert applicant_id in lines[0] and "amt_credit" in lines[0]


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

    def test_report_model_must_be_known(self):
        cfg = default_config_dict()
        cfg["report"]["model"] = "xgboost"
        with pytest.raises(ConfigError, match="report.model"):
            parse_config(cfg)
        cfg["report"]["model"] = "forest"
        assert parse_config(cfg).report_model == "forest"

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(default_config_dict(output_dir="out")))
        monkeypatch.setenv("RISKFORGE_OUT", str(tmp_path / "elsewhere"))
        cfg = load_config(cfg_path)
        assert cfg.output_dir == str(tmp_path / "elsewhere")

    def test_bad_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["prepare", "--config", str(p)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_threads_flag_accepted(self, workdir, tmp_path):
        _, config_path = workdir
        cfg = json.loads(config_path.read_text())
        cfg["output_dir"] = str(tmp_path / "out_threads")
        p = tmp_path / "cfg_threads.json"
        p.write_text(json.dumps(cfg))
        assert main(["prepare", "--config", str(p), "--threads", "2"]) == 0


class TestConsoleEntryPoint:
    def test_installed_script_help(self):
        # The child imports the same riskforge as this process, installed or not.
        package_root = os.path.dirname(os.path.dirname(riskforge.__file__))
        path = os.pathsep.join(p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "riskforge.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert "gen-corpus" in proc.stdout
