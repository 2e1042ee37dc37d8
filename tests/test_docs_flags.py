"""Anti-drift checks: every CLI flag the documentation mentions must be
accepted by the real parsers, and the shared fault-tolerance/recovery
flag set must exist identically on the five ``repro.obs`` run commands
(the README table and the ``--help`` epilogs promise exactly that);
``repro.experiments`` keeps ``--faults`` / ``--speculate`` as sweeps and
refuses the rest."""

import re
from pathlib import Path

import pytest

from repro.experiments.__main__ import build_parser as experiments_parser
from repro.experiments.__main__ import main as experiments_main
from repro.obs.cli import _DIFF_EPILOG, _RUN_EPILOG, build_parser

ROOT = Path(__file__).resolve().parent.parent

#: the shared flag set the README's table documents
SHARED_FLAGS = ["--faults", "--speculate", "--checkpoint-dir", "--resume",
                "--backend", "--registry-dir"]

RUN_COMMANDS = ["export", "report", "gantt", "calib", "prom"]


def _option_strings(parser):
    return {s for a in parser._actions for s in a.option_strings}


def _subparser(parser, name):
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            if name in action.choices:
                return action.choices[name]
    raise AssertionError(f"no subcommand {name!r}")


class TestObsEpilogs:
    @pytest.mark.parametrize("cmd", RUN_COMMANDS)
    def test_epilog_flags_parse(self, cmd):
        sub = _subparser(build_parser(), cmd)
        options = _option_strings(sub)
        for flag in re.findall(r"^\s+(--[a-z-]+)", _RUN_EPILOG, re.M):
            assert flag in options, f"{cmd}: epilog documents unknown {flag}"

    @pytest.mark.parametrize("cmd", RUN_COMMANDS)
    def test_epilog_attached(self, cmd):
        sub = _subparser(build_parser(), cmd)
        assert sub.epilog == _RUN_EPILOG

    def test_diff_epilog_attached_and_valid(self):
        sub = _subparser(build_parser(), "diff")
        assert sub.epilog == _DIFF_EPILOG
        options = _option_strings(sub)
        for flag in re.findall(r"(--[a-z-]+)", _DIFF_EPILOG):
            assert flag in options, f"diff epilog documents unknown {flag}"

    @pytest.mark.parametrize("cmd", RUN_COMMANDS)
    def test_epilog_example_lines_parse(self, cmd):
        """Every epilog example for this command must actually parse."""
        parser = build_parser()
        for line in _RUN_EPILOG.splitlines():
            line = line.strip()
            if not line.startswith("python -m repro.obs " + cmd):
                continue
            argv = line.split()[3:]
            args = parser.parse_args(argv)
            assert args.command == cmd


class TestSharedFlagSet:
    @pytest.mark.parametrize("cmd", RUN_COMMANDS)
    def test_obs_run_commands_share_the_flags(self, cmd):
        options = _option_strings(_subparser(build_parser(), cmd))
        for flag in SHARED_FLAGS:
            assert flag in options, f"{cmd} lost documented flag {flag}"

    def test_experiments_shares_the_flags(self):
        """``repro.experiments`` shares exactly the sweep flags of the set."""
        options = _option_strings(experiments_parser())
        shared = [flag for flag in SHARED_FLAGS if flag in options]
        assert shared == ["--faults", "--speculate"]

    def test_experiments_rejects_the_run_flags(self, tmp_path, capsys):
        """One run is traced, recorded and journaled by ``repro.obs``;
        ``repro.experiments`` refuses those flags with a usage error
        (exit 2) before anything runs or is written."""
        for argv in (
            ["--trace-out", str(tmp_path / "trace.json")],
            ["--registry-dir", str(tmp_path / "runs")],
            ["--checkpoint-dir", str(tmp_path / "ckpt")],
            ["--resume"],
            ["--backend", "pool:2"],
        ):
            with pytest.raises(SystemExit) as exc:
                experiments_main(["--quick", "--only", "table1", *argv])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: " + argv[0] in err
        assert list(tmp_path.iterdir()) == []

    def test_chaos_script_accepts_backend(self):
        text = (ROOT / "scripts" / "chaos_kill_resume.py").read_text()
        assert '"--backend"' in text

    @pytest.mark.parametrize("spec", ["serial", "pool", "pool:4",
                                      "cluster", "cluster:4"])
    def test_documented_backend_specs_parse(self, spec):
        """Every backend spec the docs advertise must really parse."""
        from repro.runtime.backends import parse_backend_spec

        backend = parse_backend_spec(spec)
        assert backend is not None

    def test_backend_spec_error_names_every_accepted_backend(self):
        """The ValueError for a bad spec must name all accepted backends.

        ``parse_backend_spec`` builds its message from
        ``ACCEPTED_BACKENDS``; this drift test fails if a backend is
        added to the parser without appearing in the message (or the
        message is rewritten by hand and loses one).
        """
        from repro.runtime.backends import ACCEPTED_BACKENDS, parse_backend_spec

        with pytest.raises(ValueError) as excinfo:
            parse_backend_spec("definitely-not-a-backend")
        message = str(excinfo.value)
        for name in ACCEPTED_BACKENDS:
            assert f"'{name}" in message, (
                f"backend-spec error message does not name {name!r}: "
                f"{message}"
            )

    def test_accepted_backends_all_construct(self):
        """Every name in ``ACCEPTED_BACKENDS`` must actually parse."""
        from repro.runtime.backends import ACCEPTED_BACKENDS, parse_backend_spec

        for name in ACCEPTED_BACKENDS:
            assert parse_backend_spec(name) is not None

    @pytest.mark.parametrize("cmd", RUN_COMMANDS)
    def test_backend_help_documents_cluster(self, cmd):
        """The --backend metavar/help must advertise all three backends."""
        sub = _subparser(build_parser(), cmd)
        action = next(a for a in sub._actions
                      if "--backend" in a.option_strings)
        for name in ("serial", "pool", "cluster"):
            assert name in (action.metavar or ""), (
                f"{cmd}: --backend metavar does not mention {name!r}"
            )

    def test_cluster_chaos_script_flags_parse(self):
        """The cluster chaos script's documented flags must exist."""
        text = (ROOT / "scripts" / "chaos_kill_worker.py").read_text()
        for flag in ('"--workdir"', '"--kill-worker"', '"--kill-after"',
                     '"--crash-after"', '"--straggler"', '"--trace-out"'):
            assert flag in text, f"chaos_kill_worker.py lost {flag}"


class TestReadmeFlagTable:
    def table_flags(self):
        readme = (ROOT / "README.md").read_text()
        return re.findall(r"^\s*\|\s*`(--[a-z-]+)`", readme, re.M)

    def test_readme_table_matches_parsers(self):
        flags = self.table_flags()
        assert sorted(flags) == sorted(SHARED_FLAGS), (
            "README flag table drifted from the shared flag set"
        )
        # test_obs_run_commands_share_the_flags checks the set on the parsers
