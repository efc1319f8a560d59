"""Byte-for-byte snapshot of the command line.

``data/cli_stdout.json`` holds a corpus of argvs with the exit code and
standard output each gave when the snapshot was written: the argvs of
``test_cli.py`` that name no temporary file, the commands of the
benchmark's ``cli_cold`` workload for seeds 1 to 3, and ``verify-all``,
``invariants``, ``coframe``, ``check-symmetry all``, ``verify-invariance``
and ``check-solution`` of every catalog id, and ``reduce`` and
``invariants --eval`` texts that the jet field's core hands to sympy or
refuses (a fractional power, a multi-term cancel, a zero divisor, a jet
past the order asked for, a formal function at a point).  The test replays the corpus in
one process, in order, in a directory that holds the corpus's ``files``,
and compares every output byte for byte.

A change that alters output on purpose rewrites the snapshot with

    PYTHONPATH=src python tests/test_cli_snapshot.py --write

and says why in its description.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

from jetweyl.cli import main

SNAPSHOT = pathlib.Path(__file__).resolve().parent / "data" / "cli_stdout.json"


def replay(argvs, files, directory) -> list:
    """[exit code, stdout] of each argv, run in order in ``directory``
    after the corpus's ``files`` are written there."""
    for name, text in files.items():
        (pathlib.Path(directory) / name).write_text(text)
    here = os.getcwd()
    os.chdir(directory)
    out = []
    try:
        for argv in argvs:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code
            out.append([code, stdout.getvalue()])
    finally:
        os.chdir(here)
    return out


def test_every_output_matches_the_snapshot(tmp_path):
    corpus = json.loads(SNAPSHOT.read_text())
    got = replay(corpus["argvs"], corpus["files"], tmp_path)
    differ = [
        (argv, want, have)
        for argv, want, have in zip(corpus["argvs"], corpus["outputs"], got)
        if want != have
    ]
    assert not differ, differ[:3]
    assert len(got) == len(corpus["outputs"])


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_cli_snapshot.py --write")
    corpus = json.loads(SNAPSHOT.read_text())
    with tempfile.TemporaryDirectory() as directory:
        corpus["outputs"] = replay(corpus["argvs"], corpus["files"], directory)
    SNAPSHOT.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n")
