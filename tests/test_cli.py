"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import run
from repro.constraints import parse_fd
from repro.measures import make_measure
from repro.relational import load_csv


@pytest.fixture
def csv_file(tmp_path):
    path = tmp_path / "cities.csv"
    path.write_text(
        "Name,Country\nParis,FR\nParis,DE\nLyon,FR\nBerlin,DE\n",
        encoding="utf-8",
    )
    return path


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


class TestCli:
    def test_fd_flag(self, csv_file):
        code, text = invoke(
            [str(csv_file), "--relation", "R", "--fd", "R: Name -> Country"]
        )
        assert code == 0
        assert "facts: 4" in text
        assert "minimal inconsistent subsets: 1" in text
        assert "I_MI = 1.0" in text

    def test_dc_flag(self, tmp_path):
        path = tmp_path / "stock.csv"
        path.write_text("High,Low\n5,10\n10,5\n", encoding="utf-8")
        code, text = invoke(
            [str(path), "--dc", "not(t.High < t.Low)", "--measures", "I_d", "I_R"]
        )
        assert code == 0
        assert "I_d = 1.0" in text
        assert "I_R = 1.0" in text

    def test_constraints_file(self, csv_file, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text(
            "# geography rules\nfd: R: Name -> Country\n\n", encoding="utf-8"
        )
        code, text = invoke(
            [str(csv_file), "--relation", "R", "--constraints", str(rules)]
        )
        assert code == 0
        assert "constraints: 1" in text

    def test_bad_rule_kind_rejected(self, csv_file, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("xx: nonsense\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="fd:"):
            invoke([str(csv_file), "--constraints", str(rules)])

    def test_no_constraints_rejected(self, csv_file):
        with pytest.raises(SystemExit, match="no constraints"):
            invoke([str(csv_file)])

    def test_top_violations(self, csv_file):
        code, text = invoke(
            [
                str(csv_file),
                "--relation",
                "R",
                "--fd",
                "R: Name -> Country",
                "--top-violations",
                "2",
            ]
        )
        assert code == 0
        assert "Shapley blame" in text
        assert "blame=0.500" in text

    def test_warm_start_round_trip(self, csv_file, tmp_path):
        snap = tmp_path / "state.snap"
        argv = [
            str(csv_file),
            "--relation",
            "R",
            "--fd",
            "R: Name -> Country",
            "--warm-start",
            str(snap),
        ]
        code, cold_text = invoke(argv)
        assert code == 0
        assert "warm start: cold build" in cold_text
        assert snap.exists()
        code, warm_text = invoke(argv)
        assert code == 0
        assert "warm start: restored" in warm_text
        # Identical measurements either way (modulo the warm-start line).
        strip = lambda text: [
            line
            for line in text.splitlines()
            if not line.startswith("warm start:")
        ]
        assert strip(warm_text) == strip(cold_text)

    def test_warm_start_stale_data_rebuilds_cold(self, csv_file, tmp_path):
        snap = tmp_path / "state.snap"
        argv = [
            str(csv_file),
            "--relation",
            "R",
            "--fd",
            "R: Name -> Country",
            "--warm-start",
            str(snap),
        ]
        invoke(argv)
        csv_file.write_text(
            "Name,Country\nParis,FR\nParis,DE\nLyon,FR\nLyon,DE\n",
            encoding="utf-8",
        )
        code, text = invoke(argv)
        assert code == 0
        assert "warm start: cold build" in text
        assert "minimal inconsistent subsets: 2" in text

    def test_warm_start_corrupt_file_rebuilds_cold(self, csv_file, tmp_path):
        snap = tmp_path / "state.snap"
        snap.write_bytes(b"junk that is not a snapshot")
        code, text = invoke(
            [
                str(csv_file),
                "--relation",
                "R",
                "--fd",
                "R: Name -> Country",
                "--warm-start",
                str(snap),
            ]
        )
        assert code == 0
        assert "warm start: cold build" in text
        assert "I_MI = 1.0" in text

    def test_warm_start_unreadable_path_rebuilds_cold(
        self, csv_file, tmp_path
    ):
        snap_dir = tmp_path / "a-directory"
        snap_dir.mkdir()
        code, text = invoke(
            [
                str(csv_file),
                "--relation",
                "R",
                "--fd",
                "R: Name -> Country",
                "--warm-start",
                str(snap_dir),
            ]
        )
        assert code == 0
        assert "warm start: cold build" in text
        assert "warm start: could not save state" in text
        assert "I_MI = 1.0" in text


class TestStatsFlag:
    def test_stats_prints_session_counters(self, csv_file):
        code, text = invoke(
            [
                str(csv_file),
                "--relation",
                "R",
                "--fd",
                "R: Name -> Country",
                "--measures",
                "I_MI",
                "--stats",
            ]
        )
        assert code == 0
        assert "I_MI = 1.0" in text
        assert '"backend"' in text
        assert '"vector_backend"' in text
        # Without a warm-start path the session is stats-only: no
        # snapshot chatter, no state file expected.
        assert "warm start:" not in text

    def test_stats_composes_with_warm_start(self, csv_file, tmp_path):
        snap = tmp_path / "state.snap"
        code, text = invoke(
            [
                str(csv_file),
                "--relation",
                "R",
                "--fd",
                "R: Name -> Country",
                "--warm-start",
                str(snap),
                "--stats",
            ]
        )
        assert code == 0
        assert "warm start: cold build" in text
        assert '"backend"' in text
        assert snap.exists()


@pytest.fixture
def path_csv(tmp_path):
    """A path-shaped conflict graph over 16 facts: one hub component
    whose maximal consistent subsets no zero budget can enumerate."""
    path = tmp_path / "path.csv"
    rows = [f"{i // 2},{i},{(i + 1) // 2}" for i in range(16)]
    path.write_text("A,B,C\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


PATH_FDS = ["--fd", "R: A -> B", "--fd", "R: C -> B"]


class TestTimeBudget:
    @pytest.mark.parametrize("extra", [[], ["--stats"]], ids=["oneshot", "session"])
    def test_zero_budget_prints_timeout_bounds(self, path_csv, extra):
        code, text = invoke(
            [str(path_csv), *PATH_FDS, "--measures", "I_MC", "I_MI"]
            + ["--time-budget", "0", *extra]
        )
        assert code == 0
        (line,) = [line for line in text.splitlines() if "I_MC" in line]
        assert line.startswith("I_MC ∈ [")
        assert "TIMEOUT after 0s" in line
        # Polynomial measures ignore the budget and stay exact.
        assert "I_MI = 15.0" in text

    def test_without_budget_prints_exact_values(self, path_csv):
        code, text = invoke([str(path_csv), *PATH_FDS, "--measures", "I_MC"])
        constraints = [parse_fd("R: A -> B"), parse_fd("R: C -> B")]
        exact = make_measure("I_MC").value(constraints, load_csv(path_csv, "R"))
        assert code == 0
        assert f"I_MC = {exact}" in text.splitlines()
        assert "∈" not in text

    @pytest.mark.parametrize(
        "flag",
        [["--time-budget=-1"], ["--time-budget", "-1"], ["--time-budget=nan"],
         ["--time-budget=soon"]],
        ids=["negative", "negative-split", "nan", "word"],
    )
    def test_bad_budget_is_a_usage_error_before_loading(
        self, tmp_path, flag, capsys
    ):
        missing = tmp_path / "missing.csv"  # loading it would raise
        with pytest.raises(SystemExit) as exit_info:
            invoke([str(missing), *PATH_FDS, *flag])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "usage:" in error and "--time-budget" in error
