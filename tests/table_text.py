"""Models parsed from table text given inline, for tests that need a small table."""

from dadecheck.tabledsl import parse_model_files


def parse_model(text):
    """Parse one source string into a cross-checked Model."""
    return parse_model_files({"<text>": text})
