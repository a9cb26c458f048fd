"""Golden report corpus: ``arsusim run --trace`` reproduces stored bytes.

Each directory under ``tests/golden/`` holds a ``scenario.yaml`` and the
four files that ``arsusim run --trace`` wrote for it: ``report.json``,
``trace.csv``, ``table4.csv`` and ``matrix.csv``. A refactor must
reproduce every file byte for byte; a deliberate behaviour change
recreates them and explains each diff in CHANGES.md. To recreate one
directory::

    PYTHONPATH=src python -m arsusim.cli run tests/golden/NAME/scenario.yaml \\
        --out tests/golden/NAME --trace
"""

from pathlib import Path

import pytest

from arsusim.cli import main

GOLDEN = Path(__file__).parent / "golden"
OUTPUTS = ("report.json", "trace.csv", "table4.csv", "matrix.csv")
SCENARIOS = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())


def test_corpus_present():
    assert len(SCENARIOS) == 6
    for name in SCENARIOS:
        for output in ("scenario.yaml",) + OUTPUTS:
            assert (GOLDEN / name / output).is_file(), (name, output)


@pytest.mark.parametrize("name", SCENARIOS)
def test_run_reproduces_golden_bytes(name, tmp_path, capsys):
    code = main([
        "run", str(GOLDEN / name / "scenario.yaml"),
        "--out", str(tmp_path), "--trace",
    ])
    assert code == 0, capsys.readouterr().err
    for output in OUTPUTS:
        expected = (GOLDEN / name / output).read_bytes()
        actual = (tmp_path / output).read_bytes()
        assert actual == expected, f"{name}/{output} differs from golden"
