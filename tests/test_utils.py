import hashlib
import importlib.util
import sys

import pytest

import riskforge.utils

SEEDS = (0, 1, 7, 42, -3, 2**63, 10**30)
STAGES = ("corpus", "smote", "cv", "model-forest", "boost-tree-59", "lime-8001", "", "é")


def _hashlib_seed(seed, stage):
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _utils_without(monkeypatch, modules):
    """A fresh copy of ``riskforge.utils`` loaded while ``modules`` cannot be
    imported."""
    for name in modules:
        monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
    spec = importlib.util.spec_from_file_location("utils_copy", riskforge.utils.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "blocked, sources",
    [
        ((), {"_sha2", "_sha256"}),
        (("_sha2",), {"_sha256"} if sys.version_info < (3, 12) else {"_hashlib"}),
        (("_sha2", "_sha256"), {"_hashlib"}),
    ],
    ids=["first-found", "no-sha2", "hashlib-fallback"],
)
def test_stage_seed_equals_hashlib_derivation(monkeypatch, blocked, sources):
    utils = _utils_without(monkeypatch, blocked)
    assert utils.sha256.__module__ in sources
    for seed in SEEDS:
        for stage in STAGES:
            assert utils.stage_seed(seed, stage) == _hashlib_seed(seed, stage)


@pytest.mark.parametrize(
    "values, total",
    [([1e16, 1.0, 1.0], 1e16), ([], 0.0), ([-0.0], 0.0), ([0.1] * 10, 0.9999999999999999)],
    ids=["absorbed", "empty", "negative-zero", "tenths"],
)
def test_left_sum_adds_left_to_right_from_zero(values, total):
    """Python 3.11's ``sum()``: a compensated sum gives 1e16 + 2 and 1.0, and
    ``np.cumsum(values)[-1]`` keeps the sign of ``[-0.0]``."""
    assert repr(riskforge.utils.left_sum(values)) == repr(total)
