"""Instance verification engine for the defining-characteristic counting
identities of the Ree groups of type 2F4: parameter-set cardinalities,
automorphism fixed points, defect bookkeeping, root-datum and class data.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from .tabledsl import Model, TableSyntaxError, parse_model_files

__version__ = "1.0.0"

DATA_FILES = (
    "paramsets.def",
    "fixrows.def",
    "defects.def",
    "weyl.def",
    "classes.def",
    "relations.def",
)

# the six table texts -> their model: the texts are all a model depends on
_MODEL_CACHE: Dict[Tuple[str, ...], Model] = {}


def data_dir() -> Optional[str]:
    return os.environ.get("DADE_DATA_DIR")


def load_model(directory: Optional[str] = None) -> Model:
    """Parse the shipped (or overridden) data files into one Model."""
    directory = directory or data_dir() or os.path.join(os.path.dirname(__file__), "data")
    texts = {}
    for fname in DATA_FILES:
        path = os.path.join(directory, fname)
        try:
            with open(path, encoding="utf-8") as fh:
                texts[fname] = fh.read()
        except UnicodeDecodeError as e:  # e.object: the file's bytes, read in one piece
            line = e.object.count(b"\n", 0, e.start) + 1
            raise TableSyntaxError(f"{path}: line {line}: byte {e.object[e.start]:#04x} "
                                   f"is not UTF-8 ({e.reason})") from None
    key = tuple(texts.values())
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = parse_model_files(texts)
    return _MODEL_CACHE[key]
