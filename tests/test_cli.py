import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def _set_cell(column, value, row=1):
    def edit(rows):
        rows[row][rows[0].index(column)] = value
    return edit


def _drop_last_field(rows):
    rows[2] = rows[2][:-1]


def _repeat_first_id(rows):
    rows[2][0] = rows[1][0]


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
            ("application_train.csv", _set_cell("target", ""), 2, "'target'"),
            ("application_train.csv", _set_cell("target", "2"), 2, "'target'"),
            ("application_test.csv", _repeat_first_id, 2, "duplicate applicant id"),
            ("bureau.csv", _set_cell("amt_credit_sum", "lots"), 2, "'amt_credit_sum'"),
            ("application_train.csv", _set_cell("amt_income_total", "1e308"), 2,
             "'amt_income_total'"),
        ],
        ids=[
            "text-in-numeric-test", "text-in-numeric-train", "blank-numeric",
            "na-numeric", "ragged-row", "blank-target", "target-2", "duplicate-id",
            "text-in-bureau-value", "huge-numeric-train",
        ],
    )
    def test_prepare_exit_code(self, workdir, tmp_path, capsys, name, edit, code, needle):
        p = _edited_config(workdir, tmp_path, {name: edit})
        capsys.readouterr()
        assert main(["prepare", "--config", str(p)]) == code
        lines = _assert_clean_exit(code, capsys.readouterr().err)
        if code == 2:
            assert needle in lines[0]


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
#: them.
INGEST_GOLDEN = {
    "corpus": {
        "application_train.csv": "1a2b0fb27e034a9ad845ecbb9418124ebc8a1388f6a0947460a9d367c88b841d",
        "application_test.csv": "d50f92f299df088943b4098c09254d535d4cec86527bad8f594311f50cf44831",
        "bureau.csv": "0d420840fbfdcf61a03123e53bd839bbb1b66e935a48649ed0563057a42100f4",
        "payments.csv": "76e595defd9612383e3163d85847bb117dc2a414439531be6b3a3b589654cf06",
    },
    "prepared": {
        "pipeline.json": "73dae6a1b0a06b020d2cb60fb9fabc7a6258132ab169add4fce5d29dfa56b4e4",
        "test_features.csv": "5e038017ac8e110d7a187f632cfc69a3d335f9fe8a155d571253b9f66b136994",
        "test_labels.csv": "47d0835f938163642bc24a3d9b371f5399d0eab48505402840e62e55ad0b4cf1",
        "train_features.csv": "930f0945d1602fff530e3bbab72c156c8390feed6f00ba4589078823815ffad9",
        "train_labels.csv": "858eaf232f131c6b878ce5437f7f4be48d7e0177b072e2371225564025758bad",
    },
    "gaps": {
        "pipeline.json": "d30697b12480e37c2336fa060295081ec15185aca2076116122dfb01874d6169",
        "test_features.csv": "521c0870a78a8d9d82009906b102ee87b8268f1443248a815b647afd32d42352",
        "test_labels.csv": "47d0835f938163642bc24a3d9b371f5399d0eab48505402840e62e55ad0b4cf1",
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
