"""riskforge benchmark: set up a seeded workload, time the real CLI, check
the outputs, and print the metrics as one JSON line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. Each run is a closed loop with one client: set-up runs first
(several times, for ``setup_s``), then whole rounds of the workload's CLI
commands run one after another, each in a fresh process, until
``--seconds`` have passed. With ``--trace 1`` one set-up and every round run
under ``traced.py`` and the run prints per-layer metrics instead of the
end-to-end ones. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# One thread per BLAS/OpenMP pool in this process and every child: the
# program is single-threaded, and idle-spinning pool threads would add CPU
# time that varies with what else runs on the machine.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import checks  # noqa: E402  (numpy reads the thread settings when it loads)

SETUP_REPEATS = 3
STEP_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    corpus_rows: int
    train_fraction: float
    setup: tuple[str, ...]  # "gen-corpus", "prepare" or "fit"
    timed: tuple[str, ...]  # riskforge commands, one process each
    rewrites: tuple[str, ...]  # outputs of the timed phase, removed before each round
    n_trees: dict | None = None  # per-learner override of the shipped n_trees
    corpus_seed: int | None = None  # fixed corpus draw; None derives it from --seed


#: A tenth of the shipped tree counts, so that one grid search fits in a round.
TRAIN_TREES = {"boosted_leafwise": 6, "boosted_levelwise": 6, "forest": 4}

WORKLOADS = {
    "train": Workload(
        corpus_rows=4000,
        train_fraction=0.2,
        setup=("gen-corpus", "prepare"),
        timed=("train",),
        rewrites=("models",),
        n_trees=TRAIN_TREES,
    ),
    "assess": Workload(
        corpus_rows=400,
        train_fraction=0.8,
        setup=("gen-corpus", "prepare", "fit"),
        timed=("assess",),
        rewrites=("applicants", "business_impact.json", "business_impact.html",
                  "xai_report.json", "xai_report.html"),
        corpus_seed=7,
    ),
    "score-book": Workload(
        corpus_rows=14000,
        train_fraction=0.15,
        setup=("gen-corpus", "prepare", "fit"),
        timed=("prepare", "evaluate"),
        rewrites=("prepared", "evaluation.json"),
        n_trees=TRAIN_TREES,
    ),
}


@dataclass
class Measure:
    wall: float
    cpu: float
    rss_mb: float
    ok: bool


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        tag = f"{workload}-{seed}"
        self.work = ROOT / ".perfbench" / "work" / tag
        self.trace_dir = ROOT / ".perfbench" / "trace" / tag
        self.env = {k: v for k, v in os.environ.items() if k != "RISKFORGE_OUT"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    # -- inputs -----------------------------------------------------------

    def write_configs(self) -> None:
        """The run config (seeded by --seed) and the corpus config."""
        from riskforge.config import default_config_dict

        spec = self.spec
        cfg = default_config_dict("corpus", "out", spec.corpus_rows, self.seed)
        cfg["corpus"]["train_fraction"] = spec.train_fraction
        for kind, n in (spec.n_trees or {}).items():
            cfg["models"][kind]["params"]["n_trees"] = n
        corpus_cfg = dict(cfg, seed=self.seed if spec.corpus_seed is None else spec.corpus_seed)
        self.work.mkdir(parents=True)
        for name, doc in (("run.json", cfg), ("corpus.json", corpus_cfg)):
            (self.work / name).write_text(json.dumps(doc, indent=2), encoding="utf-8")
        self.cfg = cfg

    # -- processes --------------------------------------------------------

    def step(self, step: str, spans: str | None) -> Measure:
        """Run one step in a fresh process; wall, CPU and peak RSS are its own."""
        config = "corpus.json" if step == "gen-corpus" else "run.json"
        if step == "fit":
            kind, args = "fit", [config]
        else:
            kind, args = "cli", [step, "--config", config, "--threads", "1"]
        if spans:
            argv = [sys.executable, str(BENCH / "traced.py"), spans, kind, *args]
        elif kind == "fit":
            argv = [sys.executable, str(BENCH / "fit_models.py"), *args]
        else:
            argv = [sys.executable, "-m", "riskforge.cli", *args]
        with open(self.work / "stderr.txt", "w", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=err
            )
            killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            message = (self.work / "stderr.txt").read_text(encoding="utf-8").strip()
            print(f"{step} exited {proc.returncode}: {message[-2000:]}", file=sys.stderr)
        return Measure(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            ok=proc.returncode == 0,
        )

    def set_up(self, spans_prefix: str | None) -> float:
        if self.work.exists():
            shutil.rmtree(self.work)
        self.write_configs()
        start = time.perf_counter()
        for step in self.spec.setup:
            spans = f"{spans_prefix}-{step}.jsonl" if spans_prefix else None
            if not self.step(step, spans).ok:
                raise SystemExit(f"set-up step {step} failed")
        return time.perf_counter() - start

    def clear_outputs(self) -> None:
        for rel in self.spec.rewrites:
            path = self.work / "out" / rel
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Layers whose metric is their summed self time in seconds.
SELF_TIME_LAYERS = (
    "corpus.generate_corpus", "tabular.read_csv", "tabular.aggregate_merge",
    "features.apply_recipes", "preprocess.fit_pipeline", "preprocess.transform",
    "cli.write_matrix_csv", "cli.read_matrix_csv", "sampling.smote",
    "sampling.minority_neighbor_index", "trees.fit_bins", "trees.bin_matrix",
    "trees.fit_boosted.leaf_wise", "trees.fit_boosted.level_wise", "trees.fit_forest",
    "tuning.grid_search", "explain.shap_summary", "metrics.roc_auc", "risk.assess",
    "risk.portfolio_impact", "report.render_business", "report.render_xai",
    "validation.validate", "utils.dump_json",
)
FITS = ("trees.fit_boosted.leaf_wise", "trees.fit_boosted.level_wise", "trees.fit_forest")


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics of one set-up plus one timed round."""
    by = defaultdict(list)
    for name, wall, cpu, counts in spans:
        by[name].append((wall, cpu, counts))

    def total(name: str, field: int = 0) -> float:
        return sum(s[field] for s in by[name])

    def counted(names, key: str) -> int:
        return sum(s[2].get(key, 0) for n in names for s in by[n])

    def ms(name: str, q: float) -> float:
        return 1e3 * _percentile([s[0] for s in by[name]], q)

    def per_row(name: str, scale: float) -> float:
        rows = counted([name], "rows")
        return scale * total(name) / rows if rows else 0.0

    m = {f"{name}.s": total(name) for name in SELF_TIME_LAYERS}
    m["cli.self.s"] = total("cli")
    m["tabular.read_csv.cells"] = counted(["tabular.read_csv"], "cells")
    m["sampling.smote.rows_added"] = counted(["sampling.smote"], "rows")
    m["trees.trees_grown"] = counted(FITS, "trees")
    m["trees.nodes_grown"] = counted(FITS, "nodes")
    m["tuning.fit_fold_model.calls"] = len(by["tuning.fit_fold_model"])
    m["trees.predict_margin.batch.us_per_row"] = per_row("trees.predict_margin.batch", 1e6)
    m["trees.predict_margin.single.ms_p50"] = ms("trees.predict_margin.single", 50)
    m["explain.shap_summary.ms_per_row"] = per_row("explain.shap_summary", 1e3)
    m["explain.TreeShapExplainer.explain.ms_p50"] = ms("explain.TreeShapExplainer.explain", 50)
    m["explain.TreeShapExplainer.explain.ms_p90"] = ms("explain.TreeShapExplainer.explain", 90)
    m["explain.lime_explain.ms_p50"] = ms("explain.lime_explain", 50)
    m["explain.lime_explain.cpu_s"] = total("explain.lime_explain", 1)
    m["risk.assess.calls"] = len(by["risk.assess"])
    m["report.render_applicant.ms_p50"] = ms("report.render_applicant", 50)
    return m


def read_spans(paths) -> list:
    spans = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "riskforge" / "cli.py").is_file():
        print(f"error: no riskforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    bench = Bench(args.workload, args.seed, bool(args.trace))
    if bench.trace:
        shutil.rmtree(bench.trace_dir, ignore_errors=True)
        bench.trace_dir.mkdir(parents=True)
        setup_times = [bench.set_up(str(bench.trace_dir / "setup"))]
    else:
        setup_times = [bench.set_up(None) for _ in range(SETUP_REPEATS)]

    rounds: list[list[Measure]] = []
    digests: list[str] = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < args.seconds:
        bench.clear_outputs()
        r = len(rounds)
        rounds.append([
            bench.step(cmd, str(bench.trace_dir / f"round{r}-{cmd}.jsonl") if bench.trace else None)
            for cmd in bench.spec.timed
        ])
        digests.append(checks.tree_digest(str(bench.work / "out")))
    attempted = sum(len(r) for r in rounds)
    failed = sum(not m.ok for r in rounds for m in r)

    if bench.name == "train":  # held-out AUC of the trained models, untimed
        bench.step("evaluate", None)
    failures, auc_best = checks.check_run(
        bench.name, str(bench.work), bench.cfg, str(SRC / "riskforge" / "schemas")
    )
    if len(set(digests)) != 1:
        failures.append(f"rounds wrote {len(set(digests))} different output trees")
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    walls = [sum(m.wall for m in r) for r in rounds]
    print(f"{bench.name} seed {bench.seed}: {len(rounds)} rounds, wall s "
          + " ".join(f"{w:.3f}" for w in walls) + f"; output digest {digests[0]}")
    if bench.trace:
        setup_spans = read_spans(sorted(bench.trace_dir.glob("setup-*.jsonl")))
        per_round = [
            layer_metrics(setup_spans + read_spans(sorted(bench.trace_dir.glob(f"round{r}-*.jsonl"))))
            for r in range(len(rounds))
        ]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(m.cpu for m in r) for r in rounds),
            "peak_rss_mb": statistics.median(max(m.rss_mb for m in r) for r in rounds),
            "auc_best": auc_best,
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if not failures:
        shutil.rmtree(bench.work)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
