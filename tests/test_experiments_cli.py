"""Tests for the ``python -m repro.experiments`` command line."""

import pytest

from repro.experiments.__main__ import main


def test_out_directory_written(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["--quick", "--only", "table1", "--out", str(out)]) == 0
    assert (out / "table1.txt").read_text().strip()


def test_rejects_unknown_artefact(capsys):
    with pytest.raises(SystemExit):
        main(["--only", "nope"])
