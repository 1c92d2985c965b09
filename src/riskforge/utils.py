"""Small shared helpers: seed derivation, deterministic JSON IO."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any


def stage_seed(seed: int, stage: str) -> int:
    """Derive an independent 63-bit seed for a named stage.

    The derivation is a SHA-256 hash of ``"<seed>:<stage>"`` so the same
    (seed, stage) pair always yields the same stream, independent of
    platform hash randomization.
    """
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def dump_json(doc: Any, path: str | os.PathLike) -> None:
    """Write a JSON document with stable, diff-friendly formatting."""
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def load_json(path: str | os.PathLike) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def round6(x: float) -> float:
    """Round to 6 decimals for presentation documents.

    Reports store and display the same rounded value so the HTML text and
    the JSON field are comparable byte-for-byte.
    """
    r = round(float(x), 6)
    return 0.0 if r == 0 else r  # avoid "-0.0" in rendered output


def write_text(path: str | os.PathLike, text: str) -> None:
    os.makedirs(os.path.dirname(os.fspath(path)) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def sigmoid(z):
    """Numerically stable logistic function for scalars or numpy arrays."""
    import numpy as np

    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    if out.ndim == 0:
        return float(out)
    return out
