"""Print the exit code and the SHA-256 of the output of fixed CLI commands.

Each command runs in this process through `qonsager.cli.main`, once with
`--format json` and once with `--format text`, each from empty caches
(`rewrite.clear_caches()`), and prints one line per command and format:

    <exit code> <sha256 of stdout>  <format> <command>

The commands are the seven steps of the `central` benchmark workload,
`check ambiguities` at bounds 3 and 4, `check relations --bound 4`,
`series Z --order 6` and the cold normal form of `Gt[3]*W[3]*W[-3]*G[3]`
(6,531 cached words); the run takes a few seconds.  The script takes no
options and imports whichever `qonsager` is on the path, so two
checkouts compare with

    PYTHONPATH=<checkout>/src python3 tools/digests.py > <checkout>.txt

run for each checkout, then a `diff` of the two files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from qonsager import cli, rewrite

COMMANDS = [
    ["zn", "--n", "6"],
    ["check", "gf", "--order", "7"],
    ["check", "prop41", "--order", "5"],
    ["check", "matrix", "--order", "5"],
    ["check", "central", "--n", "6", "--bound", "6"],
    ["recover", "--n", "5"],
    ["dims", "--max-degree", "16"],
    ["check", "ambiguities", "--bound", "3"],
    ["check", "ambiguities", "--bound", "4"],
    ["check", "relations", "--bound", "4"],
    ["series", "Z", "--order", "6"],
    ["normalize", "Gt[3]*W[3]*W[-3]*G[3]"],
]


def digest(fmt: str, argv) -> tuple:
    """(exit code, SHA-256 hex digest of stdout) of one cold CLI call."""
    rewrite.clear_caches()
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["--format", fmt, *argv])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    for argv in COMMANDS:
        for fmt in ("json", "text"):
            code, sha = digest(fmt, argv)
            print(f"{code} {sha}  {fmt} {' '.join(argv)}", flush=True)


if __name__ == "__main__":
    main()
