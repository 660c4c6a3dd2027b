"""Golden CLI transcript: every command's output on a fixed set of specs.

The transcript in ``golden_cli.txt`` is compared byte for byte, so a
refactor that changes any output on these inputs fails here. Every spec
is within the default enumeration bound, so both routes appear in it.
After an intended output change, regenerate the file with::

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.txt
"""

import contextlib
import io
import sys
from pathlib import Path

from odgraph.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.txt")

SPECS = ["Z1", "Z12", "Z30", "D3", "D8", "U24", "U35", "Z2xZ3", "Z4xD3", "Z2xU8xZ3"]

COMMANDS = [
    *(
        [command, spec, *extra]
        for spec in SPECS
        for command, extra in [
            ("degrees", []),
            ("degrees", ["--format", "csv"]),
            ("degrees", ["--format", "json"]),
            ("size", []),
            ("girth", []),
            ("classify", []),
            ("classify", ["--format", "json"]),
            ("export", ["--format", "dot"]),
            ("export", ["--format", "csv"]),
            ("export", ["--format", "json"]),
        ]
    ),
    *(
        ["verify", family, span, *extra]
        for family, span in [("cyclic", "1..12"), ("units", "2..30"), ("product", "1..4")]
        for extra in ([], ["--format", "json"])
    ),
]


def transcript() -> str:
    """Each command as a ``$`` line with its exit code, then its stdout."""
    parts = []
    for argv in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        parts.append(f"$ odgraph {' '.join(argv)} [exit {code}]\n{out.getvalue()}")
    return "".join(parts)


def test_cli_output_matches_golden_transcript():
    # bytes, not text mode: csv output ends its lines with \r\n
    expected = GOLDEN.read_bytes().decode("utf-8")
    assert transcript() == expected


if __name__ == "__main__":
    sys.stdout.write(transcript())
