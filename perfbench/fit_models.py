"""Set-up step: fit every configured learner once with its configured
parameters, without a grid search, and write the model files that
``riskforge evaluate`` and ``riskforge assess`` read.

Mirrors the final fit of ``riskforge train``: SMOTE over the prepared
training split, then one fit per learner.

    python3 perfbench/fit_models.py CONFIG
"""

from __future__ import annotations

import os
import sys

from riskforge import cli, sampling, trees, tuning, utils
from riskforge.config import load_config

_GROWTH = {
    tuning.LEARNER_LEAFWISE: trees.GROWTH_LEAF,
    tuning.LEARNER_LEVELWISE: trees.GROWTH_LEVEL,
}


def main(argv: list[str]) -> int:
    cfg = load_config(argv[0])
    prepared = os.path.join(cfg.output_dir, "prepared")
    names, features = cli.read_matrix_csv(os.path.join(prepared, "train_features.csv"))
    _, labels = cli.read_labels_csv(os.path.join(prepared, "train_labels.csv"))
    data = sampling.LabeledMatrix(features, labels)
    if cfg.smote_enabled:
        data = sampling.smote(data, cfg.smote)
    for spec in cfg.models:
        if spec.kind == tuning.LEARNER_FOREST:
            params = trees.ForestParams(**spec.params)
        else:
            params = trees.BoostingParams(**spec.params, growth=_GROWTH[spec.kind])
        model = tuning.fit_learner(spec.kind, data, params, feature_names=names)
        path = os.path.join(cfg.output_dir, "models", f"{spec.kind}.json")
        utils.dump_json(trees.model_to_doc(model), path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
