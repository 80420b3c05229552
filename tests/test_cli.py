"""End-to-end checks of the command line front end.

Every test drives ``cli.main`` with an argument list, the way the
installed script would, and inspects exit codes, stdout, and the machine
report written by --out.
"""

import json

import pytest

from tidyscale import cli


DIAG_CFG = """\
backend: padic
prime: 3
generators:
  - name: alpha
    matrix:
      - ["1/3", 0, 0]
      - [0, 1, 0]
      - [0, 0, 3]
"""


@pytest.fixture
def diag_config(tmp_path):
    path = tmp_path / "diag.cfg"
    path.write_text(DIAG_CFG, encoding="utf-8")
    return str(path)


class TestScaleCommand:
    def test_prints_scale_line(self, diag_config, capsys):
        assert cli.main(["scale", "--config", diag_config]) == 0
        out = capsys.readouterr().out
        assert "s = 3" in out
        assert "alpha: s(inverse) = 3" in out
        assert "alpha: module = 1" in out

    def test_machine_report_is_byte_deterministic(self, diag_config, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli.main(
            ["scale", "--config", diag_config, "--out", str(first)]
        ) == 0
        assert cli.main(
            ["scale", "--config", diag_config, "--out", str(second)]
        ) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_machine_report_round_trips(self, diag_config, tmp_path):
        out = tmp_path / "report.json"
        cli.main(["scale", "--config", diag_config, "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["command"] == "scale"
        assert report["ok"] is True
        assert report["results"]["scales"]["alpha"]["s"] == 3
        assert report["results"]["scales"]["alpha"]["module"] == "1"
        # the echoed config parses back to the same structure
        assert report["config"]["backend"] == "padic"
        assert "elapsed" not in json.dumps(report)

    def test_prime_flag_overrides_config(self, diag_config, capsys):
        assert cli.main(
            ["scale", "--config", diag_config, "--prime", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "alpha: s = 1" in out


class TestScaleValidation:
    """scale builds no tidy lattice, yet rejects every family that the
    lattice-building commands reject, with the same message."""

    def _run(self, tmp_path, capsys, text):
        path = tmp_path / "family.cfg"
        path.write_text(text, encoding="utf-8")
        code = cli.main(["scale", "--config", str(path)])
        return code, capsys.readouterr()

    def test_noncommuting_pair(self, tmp_path, capsys):
        code, captured = self._run(
            tmp_path, capsys,
            "backend: padic\nprime: 3\ngenerators:\n"
            "  - name: a\n    matrix:\n      - [1, 1]\n      - [0, 1]\n"
            "  - name: b\n    matrix:\n      - [1, 0]\n      - [1, 1]\n",
        )
        assert code == 2
        assert captured.err == "error: only commuting families are supported here\n"
        assert captured.out == ""

    def test_generator_not_slope_separable(self, tmp_path, capsys):
        # x^2 + x + 3 is irreducible with root valuations 0 and 1 at p = 3
        code, captured = self._run(
            tmp_path, capsys,
            "backend: padic\nprime: 3\ngenerators:\n"
            "  - name: a\n    matrix:\n      - [0, -3]\n      - [1, -1]\n",
        )
        assert code == 2
        assert captured.err == (
            "error: irreducible factor carries more than one root valuation:"
            " x^2 + x + 3\n"
        )
        assert captured.out == ""


class TestConfigValidation:
    def test_float_rejected_with_path(self, tmp_path, capsys):
        path = tmp_path / "f.cfg"
        path.write_text(
            "backend: padic\nprime: 3\ngenerators:\n"
            "  - name: a\n    matrix:\n      - [0.5, 0]\n      - [0, 1]\n",
            encoding="utf-8",
        )
        assert cli.main(["scale", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "matrix[0][0]" in err
        assert "floats are forbidden" in err

    def test_unknown_backend(self, tmp_path, capsys):
        path = tmp_path / "b.cfg"
        path.write_text("backend: nosuch\n", encoding="utf-8")
        assert cli.main(["scale", "--config", str(path)]) == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert cli.main(
            ["scale", "--config", str(tmp_path / "absent.cfg")]
        ) == 2

    def test_malformed_yaml_names_line(self, tmp_path, capsys):
        path = tmp_path / "m.cfg"
        path.write_text("backend: [unclosed\n", encoding="utf-8")
        assert cli.main(["scale", "--config", str(path)]) == 2
        assert "malformed config" in capsys.readouterr().err

    def test_unknown_command_exits_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_bad_generator_name_reference(self, tmp_path, capsys):
        path = tmp_path / "g.cfg"
        path.write_text(
            "backend: finprod\nfiber: s3\ngenerators:\n"
            "  - name: t\n    twists:\n"
            "      - at: [0, 0]\n        inner: nosuch\n",
            encoding="utf-8",
        )
        assert cli.main(["scale", "--config", str(path)]) == 2
        assert "no element named" in capsys.readouterr().err

    def test_commands_list_enforced(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "backend: padic\nprime: 3\ncommands: [tidy]\ngenerators:\n"
            "  - name: a\n    matrix:\n      - [\"1/3\"]\n",
            encoding="utf-8",
        )
        assert cli.main(["scale", "--config", str(path)]) == 2
        assert cli.main(["tidy", "--config", str(path)]) == 0

    def test_duplicate_generator_names(self, tmp_path, capsys):
        path = tmp_path / "d.cfg"
        path.write_text(
            "backend: padic\nprime: 3\ngenerators:\n"
            "  - name: a\n    matrix:\n      - [3]\n"
            "  - name: a\n    matrix:\n      - [9]\n",
            encoding="utf-8",
        )
        assert cli.main(["scale", "--config", str(path)]) == 2
        assert "duplicate generator name" in capsys.readouterr().err


class TestResourceCap:
    def test_tiny_cap_exits_three(self, capsys):
        cfg = str(cli._example_source("6.17.yaml"))
        code = cli.main(
            ["tidy", "--config", cfg, "--cap", "4", "--depth", "6"]
        )
        assert code == 3
        assert "resource cap exceeded" in capsys.readouterr().err

    def test_bad_cap_flag(self):
        cfg = str(cli._example_source("6.17.yaml"))
        assert cli.main(["tidy", "--config", cfg, "--cap", "0"]) == 2


class TestVerifyCommand:
    def test_all_checks_pass(self, diag_config, capsys):
        assert cli.main(["verify", "--config", diag_config]) == 0
        out = capsys.readouterr().out
        assert "[ok]   invariant-iff-scale-one" in out
        assert "[FAIL]" not in out

    def test_corrupted_expectation_names_failing_identity(
        self, tmp_path, capsys
    ):
        path = tmp_path / "v.cfg"
        path.write_text(
            DIAG_CFG
            + "expect:\n  records:\n    - factor: \"ray(-1,)\"\n      t: 9\n",
            encoding="utf-8",
        )
        assert cli.main(["verify", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "verification failed" in out
        assert "pure-pair-law" in out

    def test_unknown_pinned_factor(self, tmp_path, capsys):
        path = tmp_path / "v.cfg"
        path.write_text(
            DIAG_CFG
            + "expect:\n  records:\n    - factor: \"nosuch\"\n      t: 9\n",
            encoding="utf-8",
        )
        assert cli.main(["verify", "--config", str(path)]) == 2
        assert "unknown factors" in capsys.readouterr().err

    def test_ledger_in_machine_report(self, diag_config, tmp_path):
        out = tmp_path / "v.json"
        cli.main(["verify", "--config", diag_config, "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        names = [c["name"] for c in report["ledger"]]
        assert "invariant-iff-scale-one" in names
        assert all(c["ok"] for c in report["ledger"])


class TestInvariantsCommand:
    def test_report_with_expectations(self, tmp_path, capsys):
        path = tmp_path / "i.cfg"
        path.write_text(
            DIAG_CFG
            + "expect:\n  factor_number: 2\n  rank: 1\n  corank_free: 1\n",
            encoding="utf-8",
        )
        assert cli.main(["invariants", "--config", str(path)]) == 0
        assert "expectations confirmed" in capsys.readouterr().out

    def test_mismatched_expectation_fails(self, tmp_path, capsys):
        path = tmp_path / "i.cfg"
        path.write_text(DIAG_CFG + "expect:\n  rank: 7\n", encoding="utf-8")
        assert cli.main(["invariants", "--config", str(path)]) == 1
        assert "[MISMATCH] rank" in capsys.readouterr().out


class TestExamples:
    @pytest.mark.parametrize("name", cli.EXAMPLE_NAMES)
    def test_golden_reproduction(self, name, capsys):
        assert cli.main(["example", name]) == 0
        assert "golden comparison passed" in capsys.readouterr().out

    def test_functional_set_line(self, capsys):
        cli.main(["example", "6.10"])
        assert "M_H = Ψ \\ {0}" in capsys.readouterr().out

    def test_corrupted_golden_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.golden.json"
        bad.write_text('{"fibers": {}}\n', encoding="utf-8")
        assert cli.main(["example", "3.5", "--golden", str(bad)]) == 1
        assert "golden comparison failed" in capsys.readouterr().out

    def test_unknown_name(self, capsys):
        assert cli.main(["example", "9.99"]) == 2
        assert "unknown example" in capsys.readouterr().err

    def test_machine_report_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert cli.main(["example", "6.17", "--out", str(first)]) == 0
        assert cli.main(["example", "6.17", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestTidyCommand:
    def test_padic_tidy(self, diag_config, capsys):
        assert cli.main(["tidy", "--config", diag_config]) == 0
        out = capsys.readouterr().out
        assert "common tidy lattice" in out
        assert "tidy=True" in out

    def test_finprod_tidy_reports_joint(self, capsys):
        cfg = str(cli._example_source("3.5.yaml"))
        assert cli.main(["tidy", "--config", cfg, "--depth", "6"]) == 0
        out = capsys.readouterr().out
        assert "joint: common tidy" in out

    def test_torus_tidy(self, tmp_path, capsys):
        path = tmp_path / "t.cfg"
        path.write_text(
            "backend: torus\nprime: 2\nsize: 3\ngenerators:\n"
            "  - name: a\n    weights: [-1, 0, 1]\n",
            encoding="utf-8",
        )
        assert cli.main(["tidy", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "displacement exponent 4, formula 4, tidy=True" in out


class TestEigenfactorsCommand:
    def test_padic_table(self, diag_config, capsys):
        assert cli.main(["eigenfactors", "--config", diag_config]) == 0
        out = capsys.readouterr().out
        assert "ray(-1,): t = 3" in out
        assert "inert sublattice of rank 1" in out

    def test_empty_table_reported(self, tmp_path, capsys):
        path = tmp_path / "e.cfg"
        path.write_text(
            "backend: padic\nprime: 3\ngenerators:\n"
            "  - name: u\n    matrix:\n      - [1, 0]\n      - [0, 1]\n",
            encoding="utf-8",
        )
        assert cli.main(["eigenfactors", "--config", str(path)]) == 0
        assert "every generator fixes the base" in capsys.readouterr().out

    def test_index_beyond_float_range(self, tmp_path, capsys):
        # diag(3^-700, 1): the common base of the indices is found by an
        # exact integer root, never through a float
        path = tmp_path / "huge.cfg"
        path.write_text(
            "backend: padic\nprime: 3\ngenerators:\n"
            f"  - name: a\n    matrix:\n      - [\"1/{3**700}\", 0]\n"
            "      - [0, 1]\n",
            encoding="utf-8",
        )
        assert cli.main(["eigenfactors", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"ray(-1,): t = {3**700}, rho = (1,), delta = {3**700}^(x1)\n" in out
        assert "inert sublattice of rank 1" in out
