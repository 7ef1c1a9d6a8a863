#!/usr/bin/env python3
"""Validate observability exports with the ``repro.obs`` validators.

    python scripts/check_trace_schema.py FILE [FILE ...]

Each file (plain or ``.gz``) goes to one validator, chosen by content:
a JSON array to the Chrome-trace validator, a schema-stamped object to
the ``repro.*/v1`` registry, anything else to the JSONL validator.
Prints ``OK: <path>: <kind>`` per valid file; on the first violation
prints ``FAIL: <path>: <message>`` to stderr and exits 1.
"""

import json
import os
import sys

# Run from a checkout without installing: import the program from src/.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.errors import ReproError  # noqa: E402
from repro.obs import (  # noqa: E402
    SCHEMA_TABLE,
    open_text,
    validate_doc,
    validate_jsonl,
    validate_timeline,
)


def check_file(path: str) -> str:
    """Validate one file; returns what it held."""
    with open_text(path) as f:
        text = f.read()
    if text.lstrip().startswith("["):
        validate_timeline(json.loads(text))
        return "Chrome trace"
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and "schema" in doc:
        schema = validate_doc(doc)
        return f"{schema} ({SCHEMA_TABLE[schema]})"
    validate_jsonl(text.splitlines())
    return "JSONL event log"


def main(argv) -> int:
    if not argv:
        print(__doc__)
        return 2
    for path in argv:
        try:
            kind = check_file(path)
        except (ReproError, OSError, ValueError) as exc:
            print(f"FAIL: {path}: {exc}", file=sys.stderr)
            return 1
        print(f"OK: {path}: {kind}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
