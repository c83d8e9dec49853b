"""Instance verification engine for the defining-characteristic counting
identities of the Ree groups of type 2F4: parameter-set cardinalities,
automorphism fixed points, defect bookkeeping, root-datum and class data.
"""

from __future__ import annotations

import os
from importlib import resources
from typing import Dict, Optional, Tuple

from .tabledsl import Model, parse_model_files

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
    directory = directory or data_dir()
    texts = {}
    if directory:
        for fname in DATA_FILES:
            with open(os.path.join(directory, fname), encoding="utf-8") as fh:
                texts[fname] = fh.read()
    else:
        pkg = resources.files(__name__) / "data"
        for fname in DATA_FILES:
            texts[fname] = (pkg / fname).read_text(encoding="utf-8")
    key = tuple(texts.values())
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = parse_model_files(texts)
    return _MODEL_CACHE[key]
