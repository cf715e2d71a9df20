"""CLI tests: every subcommand runs end to end."""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestList:
    def test_lists_all_workloads(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("PR", "KM", "LR", "TC", "CC", "SSSP", "BC"):
            assert name in out


class TestAnalyze:
    def test_pagerank_tags(self, capsys):
        code, out = run_cli(capsys, "analyze", "PR", "--iterations", "3")
        assert code == 0
        assert "links" in out and "DRAM" in out
        assert "contribs" in out and "NVM" in out

    def test_flip_note_for_graphx(self, capsys):
        code, out = run_cli(capsys, "analyze", "CC", "--scale", "0.02")
        assert code == 0
        assert "flipped to DRAM" in out

    def test_placements_and_ser_candidates(self, capsys):
        code, out = run_cli(capsys, "analyze", "PR", "--iterations", "3")
        assert code == 0
        assert "[object-heap-dram]" in out
        assert "serialization candidates" in out and "contribs" in out

    def test_persist_override_routes_to_tier(self, capsys):
        code, out = run_cli(
            capsys,
            "analyze",
            "KM",
            "--iterations",
            "3",
            "--persist",
            "MEMORY_ONLY_SER",
        )
        assert code == 0
        assert "[serialized-nvm]" in out


class TestRunPersistOverride:
    def test_run_with_serialized_persist(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "KM",
            "--scale",
            "0.02",
            "--iterations",
            "3",
            "--persist",
            "MEMORY_ONLY_SER",
        )
        assert code == 0
        assert "KM [panthera]" in out


class TestRun:
    ARGS = ("--scale", "0.02", "--iterations", "3")

    def test_basic_run(self, capsys):
        code, out = run_cli(capsys, "run", "PR", *self.ARGS)
        assert code == 0
        assert "PR [panthera]" in out
        assert "GC" in out

    def test_policy_selection(self, capsys):
        code, out = run_cli(capsys, "run", "KM", "--policy", "unmanaged", *self.ARGS)
        assert code == 0
        assert "unmanaged" in out

    def test_gclog_output(self, capsys):
        code, out = run_cli(capsys, "run", "PR", "--gclog", "3", *self.ARGS)
        assert code == 0
        assert "GC summary:" in out

    def test_verify_flag(self, capsys):
        code, out = run_cli(capsys, "run", "PR", "--verify", *self.ARGS)
        assert code == 0
        assert "heap verification: consistent" in out

    def test_export_json(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out = run_cli(capsys, "run", "PR", "--export-json", str(path), *self.ARGS)
        assert code == 0
        data = json.loads(path.read_text())
        assert data["PR"]["workload"] == "PR"

    def test_export_bandwidth(self, capsys, tmp_path):
        path = tmp_path / "bw.csv"
        code, out = run_cli(
            capsys, "run", "PR", "--export-bandwidth", str(path), *self.ARGS
        )
        assert code == 0
        assert path.read_text().startswith("time_s,device,direction,gbps")


class TestCompare:
    def test_three_policies(self, capsys, tmp_path):
        """One workload under the three default policies side by side:
        ``matrix --workloads KM --iterations 3`` runs each cell exactly
        as ``run_experiment`` with ``iterations=3`` does."""
        from repro.config import PolicyName
        from repro.harness.configs import paper_config
        from repro.harness.experiment import run_experiment

        path = tmp_path / "matrix.json"
        code, out = run_cli(
            capsys,
            "matrix",
            "--workloads",
            "KM",
            "--scale",
            "0.02",
            "--iterations",
            "3",
            "--export-json",
            str(path),
        )
        assert code == 0
        assert "| KM |" in out and "panthera time" in out
        cells = json.loads(path.read_text())["KM"]
        assert set(cells) == {"dram-only", "unmanaged", "panthera"}
        config = paper_config(64, 1 / 3, PolicyName.PANTHERA, 0.02)
        direct = run_experiment(
            "KM", config, scale=0.02, workload_kwargs={"iterations": 3}
        )
        assert cells["panthera"]["elapsed_s"] == direct.elapsed_s


class TestWorkloadOptionErrors:
    """A misused workload override fails with a typed error: argparse's
    exit 2 for a count below one, ``ReproError`` for a keyword the
    workload's builder does not take."""

    @pytest.mark.parametrize("command", [["run", "PR"], ["matrix"], ["cluster"]])
    def test_zero_iterations_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--iterations", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_negative_iterations_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--workloads", "PR", "--iterations", "-2"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_iterations_on_bc_names_the_takers(self):
        with pytest.raises(ReproError, match="BC takes no 'iterations'") as exc:
            main(["run", "BC", "--iterations", "3"])
        assert "CC, KM, LR, PR, SSSP, TC" in str(exc.value)

    def test_persist_on_tc_names_the_takers(self):
        with pytest.raises(ReproError, match="TC takes no 'persist_level'") as exc:
            main(["run", "TC", "--persist", "MEMORY_ONLY_SER"])
        assert "KM, LR, PR" in str(exc.value)

    def test_persist_help_names_every_taker(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "persist level (PR, KM and LR;" in help_text


class TestSubcommands:
    def test_seven_subcommands(self):
        import argparse

        from repro.cli import build_parser

        sub = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(sub.choices) == [
            "analyze", "bench", "cluster", "faults", "list", "matrix", "run",
        ]
