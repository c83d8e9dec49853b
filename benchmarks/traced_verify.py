"""Run one ``dadecheck`` command with every public function traced.

    PYTHONPATH=src python3 benchmarks/traced_verify.py SPANS_DIR verify weyl --n 1

Each process of the run (the main one and any pool worker) leaves its spans
in ``SPANS_DIR/<pid>.json``; see ``tracing.py``.  The exit status is the
command's own.
"""

import sys

import tracing


def main(argv):
    spans_dir, args = argv[0], argv[1:]
    rec = tracing.install(spans_dir)
    from dadecheck import cli

    try:
        return cli.main(args)
    finally:
        tracing.write(rec, spans_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
