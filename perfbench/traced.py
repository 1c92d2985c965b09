"""Run one riskforge step with its layers traced from outside.

    python3 perfbench/traced.py SPANS cli <riskforge arguments...>
    python3 perfbench/traced.py SPANS fit CONFIG

Each layer's public functions are wrapped in every riskforge module that
binds them, so callers that look a function up by name get the wrapper.
Nothing inside the program changes. Spans stay in memory and are written to
SPANS (one JSON list per line: name, self wall s, self CPU s, counts) when
the step ends. Self time is a span's time minus that of the wrapped calls
inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import fit_models
import riskforge.cli


def _rows(matrix) -> int:
    shape = getattr(matrix, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _node_count(node) -> int:
    count, stack = 0, [node]
    while stack:
        n = stack.pop()
        count += 1
        if n.left is not None:
            stack.extend((n.left, n.right))
    return count


def _grown(model) -> dict:
    return {"trees": len(model.trees), "nodes": sum(_node_count(t) for t in model.trees)}


def _growth(args, kwargs) -> str:
    params = kwargs.get("params", args[1] if len(args) > 1 else None)
    return f"trees.fit_boosted.{params.growth}"


def _predict_kind(args, kwargs) -> str:
    single = _rows(args[1] if len(args) > 1 else kwargs["matrix"]) == 1
    return "trees.predict_margin." + ("single" if single else "batch")


#: (module, attribute, span name or namer(args, kwargs), counter(args, kwargs, result))
LAYERS = (
    ("riskforge.cli", "main", "cli", None),
    ("riskforge.corpus", "generate_corpus", "corpus.generate_corpus", None),
    (
        "riskforge.tabular", "read_csv", "tabular.read_csv",
        lambda a, k, t: {"cells": t.row_count * len(t.column_names)},
    ),
    ("riskforge.tabular", "aggregate_merge", "tabular.aggregate_merge", None),
    ("riskforge.features", "apply_recipes", "features.apply_recipes", None),
    ("riskforge.preprocess", "fit_pipeline", "preprocess.fit_pipeline", None),
    ("riskforge.preprocess", "transform", "preprocess.transform", None),
    ("riskforge.cli", "write_matrix_csv", "cli.write_matrix_csv", None),
    ("riskforge.cli", "read_matrix_csv", "cli.read_matrix_csv", None),
    (
        "riskforge.sampling", "smote", "sampling.smote",
        lambda a, k, out: {"rows": _rows(out.features) - _rows(a[0].features)},
    ),
    ("riskforge.sampling", "minority_neighbor_index", "sampling.minority_neighbor_index", None),
    ("riskforge.trees", "fit_bins", "trees.fit_bins", None),
    ("riskforge.trees", "bin_matrix", "trees.bin_matrix", None),
    ("riskforge.trees", "fit_boosted", _growth, lambda a, k, m: _grown(m)),
    ("riskforge.trees", "fit_forest", "trees.fit_forest", lambda a, k, m: _grown(m)),
    ("riskforge.tuning", "grid_search", "tuning.grid_search", None),
    ("riskforge.tuning", "fit_fold_model", "tuning.fit_fold_model", None),
    (
        "riskforge.trees", "predict_margin", _predict_kind,
        lambda a, k, out: {"rows": int(out.shape[0])},
    ),
    (
        "riskforge.explain", "shap_summary", "explain.shap_summary",
        lambda a, k, s: {"rows": int(s.shap_values.shape[0])},
    ),
    ("riskforge.explain", "TreeShapExplainer.explain", "explain.TreeShapExplainer.explain", None),
    ("riskforge.explain", "lime_explain", "explain.lime_explain", None),
    ("riskforge.metrics", "roc_auc", "metrics.roc_auc", None),
    ("riskforge.risk", "assess", "risk.assess", None),
    ("riskforge.risk", "portfolio_impact", "risk.portfolio_impact", None),
    ("riskforge.report", "render_applicant", "report.render_applicant", None),
    ("riskforge.report", "render_business", "report.render_business", None),
    ("riskforge.report", "render_xai", "report.render_xai", None),
    ("riskforge.validation", "validate", "validation.validate", None),
    ("riskforge.utils", "dump_json", "utils.dump_json", None),
)

#: Per-row explanations inside a SHAP summary stay in the summary's self
#: time; only per-applicant calls get spans of their own.
_SUMMARY_ROW = ("explain.TreeShapExplainer.explain", "explain.shap_summary")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []  # [name, child wall, child cpu] per open span

    def wrap(self, fn, name, counter):
        namer = name if callable(name) else (lambda a, k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs)
            if self._stack and (span, self._stack[-1][0]) == _SUMMARY_ROW:
                return fn(*args, **kwargs)
            frame = [span, 0.0, 0.0]
            self._stack.append(frame)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                self._stack.pop()
            counts = counter(args, kwargs, out) if counter else {}
            if self._stack:  # the parent's self time excludes this span and its counting
                parent = self._stack[-1]
                parent[1] += time.perf_counter() - t0
                parent[2] += time.process_time() - c0
            self.spans.append((span, t1 - t0 - frame[1], c1 - c0 - frame[2], counts))
            return out

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function; returns the ones the program lacks."""
        missing = []
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("riskforge")]
        for module_name, attr, name, counter in LAYERS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(original, name, counter)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        return missing

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def main(argv: list[str]) -> int:
    spans_path, step, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    for name in tracer.install():
        print(f"traced: {name} not found; its metrics read 0", file=sys.stderr)
    # Looked up after install, so the CLI entry point is itself a span.
    entry = fit_models.main if step == "fit" else riskforge.cli.main
    try:
        return entry(rest)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
