"""Golden report bytes: a fixed CLI sweep through `cli.main` must write the
same stdout and the same `--out`, graph and trace files as the data in
tests/golden/, byte for byte.

The data is the output of `sweep` itself. A change that alters the bytes on
purpose empties tests/golden/ and reruns the sweep into it:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.sweep('tests/golden')"
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

from hlcut.cli import main

GOLDEN = Path(__file__).parent / "golden"

MEMBERS = {
    "q3": ["--kind", "hypercube", "--n", "3"],
    "q4": ["--kind", "hypercube", "--n", "4"],
    "fig1": ["--kind", "fig1"],
    "hl4s1": ["--kind", "random", "--n", "4", "--seed", "1"],
    "q5": ["--kind", "hypercube", "--n", "5"],
}


def _runs():
    """(run name, argv) pairs; every run but `generate` writes `<name>.out`."""
    for name, kind in MEMBERS.items():
        yield f"generate-{name}", ["generate", *kind, "--out", f"{name}.graph",
                                   "--trace", f"{name}.trace"]
    # the solve files carry the name of the search that wrote them
    for name in MEMBERS:
        yield f"solve-{name}-branch-and-bound", [
            "solve", "--graph", f"{name}.graph", "--h", "all"]
    for name in ("q3", "fig1"):
        for lemma in ("3.2", "3.5", "3.7", "thm"):
            yield f"verify-{name}-{lemma}", [
                "verify", "--lemma", lemma, "--trace", f"{name}.trace",
                "--h", "all"]
    for h in range(5):
        yield f"kappa-fig1-h{h}", ["kappa", "--graph", "fig1.graph",
                                   "--h", str(h)]


def sweep(directory) -> None:
    """Run the sweep with `directory` as the working directory, leaving each
    run's stdout in `<name>.stdout` next to the files it writes. Paths stay
    relative, so no byte depends on where the directory is."""
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for name, argv in _runs():
            if not name.startswith("generate"):
                argv = [*argv, "--out", f"{name}.out"]
            with open(f"{name}.stdout", "w", newline="\n") as fh, \
                    contextlib.redirect_stdout(fh):
                code = main(argv)
            if code != 0:
                raise AssertionError(f"{name} exited {code}")
    finally:
        os.chdir(previous)


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_sweep_reproduces_the_golden_bytes(tmp_path):
    sweep(tmp_path)
    got, want = _contents(tmp_path), _contents(GOLDEN)
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name
