"""Digest the CLI's output on a fixed command set, for diffing two checkouts.

Each command runs in-process through `finring.cli.main`.  A JSON document
loses its `timings` and `elapsed_seconds` keys (at any depth) and is
re-serialized with sorted keys; other output is hashed as printed.  One
line per command: the exit code, the sha256 of stdout and stderr, and the
command.  Run it once per checkout and diff the two outputs:

    PYTHONPATH=src python tools/cli_digest.py > digest.txt

`tools/cli_digest.txt` pins the output, and a test recomputes it, so a
change to the CLI's output is a change to that file.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
from unittest import mock

from finring.cli import main

COMMANDS = [
    # the benchmark's report and unit-sum ops
    *(["report", "--ring", ring, "--json"]
      for ring in ("M(3,GF(2))", "M(2,GF(4))", "M(2,Z(4))", "UT(4,Z(2))", "GF(256)", "B(8)",
                   "GF(16) x GF(16)")),
    *(["unit-sum", "--ring", ring, "--json"]
      for ring in ("M(2,GF(16))", "M(3,GF(3))", "UT(4,GF(4))")),
    ["report", "--ring", "B(16)", "--json"],
    ["report", "--ring", "B(20)", "--json"],
    ["report", "--ring", "UT(3,GF(16))", "--skip-radical", "--json"],
    ["unit-sum", "--ring", "M(2,GF(8192))", "--json"],
    # radicals at the table cap: the most members (Z(4096)), a radical of 1
    # (M(2,GF(8)), B(12)) and a strictly upper one (UT(3,GF(4)))
    *(["report", "--ring", ring, "--json"]
      for ring in ("Z(4096)", "M(2,GF(8))", "UT(3,GF(4))", "B(12)")),
    # constructed rings within the table cap, whose units the census reads
    # off the construction: the zero ring, a composite base, a mixed product
    *(["report", "--ring", ring, "--json"] for ring in ("Z(1)", "M(2,Z(1))", "UT(2,Z(6))")),
    ["report", "--ring", "M(2,Z(6))", "--skip-radical", "--json"],
    *(["unit-sum", "--ring", ring, "--json"] for ring in ("Z(2) x UT(2,Z(4))", "GF(4096)")),
    # the radical's recursion through composite bases: a product base under
    # UT and M, a local base under UT, and a modulus with three primes
    *(["report", "--ring", ring, "--json"]
      for ring in ("UT(2,Z(8) x Z(2))", "M(2,Z(4) x Z(2))", "UT(3,Z(4))", "Z(360)")),
    ["enumerate", "8"],
    ["enumerate", "8", "--up-to-iso"],
    ["verify", "--all", "--max-order", "8", "--json"],
    # usage errors, the first one twice: main parses every command with one parser
    ["report"],
    ["report"],
    ["verify"],
]


def _stable(doc):
    """`doc` without its volatile keys, at every depth."""
    if isinstance(doc, dict):
        return {k: _stable(v) for k, v in doc.items() if k not in ("timings", "elapsed_seconds")}
    if isinstance(doc, list):
        return [_stable(v) for v in doc]
    return doc


def digest(argv) -> tuple[int, str]:
    """(exit code, sha256 of the stable stdout followed by stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps usage text to the terminal's width: fix it at the
    # width of a run with no terminal
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          mock.patch.dict(os.environ, {"COLUMNS": "80"})):
        code = main(list(argv))
    text = out.getvalue()
    try:
        text = json.dumps(_stable(json.loads(text)), sort_keys=True)
    except json.JSONDecodeError:
        pass
    return code, hashlib.sha256((text + "\0" + err.getvalue()).encode()).hexdigest()


def lines():
    """The digest's output: one line per command."""
    for argv in COMMANDS:
        code, sha = digest(argv)
        yield f"{code} {sha} {shlex.join(argv)}"


if __name__ == "__main__":
    for line in lines():
        print(line, flush=True)
