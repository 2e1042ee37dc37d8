"""Tests for figure results and the experiments command line."""

import pytest

from repro.experiments.common import ExperimentResult


class TestExperimentCsv:
    def test_series_length_validation(self):
        res = ExperimentResult(title="t", xlabel="x", x=[1, 2, 3])
        with pytest.raises(ValueError):
            res.add("bad", [1.0])

    def test_get_unknown_series(self):
        res = ExperimentResult(title="t", xlabel="x", x=[1])
        with pytest.raises(KeyError):
            res.get("nope")


class TestExperimentsCli:
    def test_cli_writes_output_files(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        rc = main(["--quick", "--only", "table1", "--out", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "table1.txt").read_text()
        assert "EPOL(dp)" in text
        out = capsys.readouterr().out
        assert "table1" in out

    def test_cli_rejects_unknown_artefact(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["--only", "fig99"])
