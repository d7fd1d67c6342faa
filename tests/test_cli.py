import os
from decimal import Decimal

import numpy as np
import pytest

from mixshor import cli, experiments
from mixshor.cli import _fmt, _parse_values, parse_and_run, write_csv


# Every command that writes --out, with arguments that pass validation.
OUTPUT_COMMANDS = {
    "profile": ["profile", "--n", "15", "--a", "2"],
    "ensemble": ["ensemble", "--bits", "4"],
    "noise": ["noise", "--n", "15", "--a", "2", "--noise", "pauli", "--probs", "0.1"],
    "mix": ["mix", "--n", "15", "--a", "2", "--epsilons", "0,0.5"],
    "baseline": ["baseline", "--n", "15", "--a", "2"],
}


def run_cli(*args):
    return parse_and_run(list(args))


class TestParseValues:
    def test_range_inclusive_endpoints(self):
        values = _parse_values("0:0.5:0.05")
        assert len(values) == 11
        assert values[0] == 0.0 and values[-1] == 0.5

    def test_range_endpoint_within_roundoff(self):
        values = _parse_values("0:0.3:0.1")
        assert values == [0.0, 0.1, 0.2, 0.3]

    def test_range_values_are_the_decimal_grid(self):
        # every value is the double nearest to start + i*step in decimal
        for text in ("0:0.5:0.05", "0:0.5:0.002", "0.1:0.3:0.1", "0:1:0.0001"):
            start, stop, step = (Decimal(p) for p in text.split(":"))
            count = int((stop - start) / step) + 1
            assert _parse_values(text) == [float(start + i * step) for i in range(count)]

    def test_fine_range_ends_exactly_at_stop(self):
        # an accumulated v += step drifts to 0.999999999998 over this grid
        values = _parse_values("0:1:0.00001")
        assert len(values) == 100_001
        assert values[-1] == 1.0

    def test_comma_list(self):
        assert _parse_values("0.1,0.2,0.5") == [0.1, 0.2, 0.5]

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            _parse_values("0:1")
        with pytest.raises(ValueError):
            _parse_values("0:1:-0.1")

    @pytest.mark.parametrize(
        "text", ["0:inf:0.1", "-inf:1:0.1", "nan:1:0.1", "0:nan:0.1", "0:1:nan", "0:1:inf", "0.1,nan", "inf"]
    )
    def test_non_finite_rejected(self, text):
        # 0:inf:0.1 used to loop forever, since stop + 1e-12 is inf
        with pytest.raises(ValueError, match="non-finite"):
            _parse_values(text)

    @pytest.mark.parametrize("text", ["1:0:0.1", "0.5:0.4:0.01", ",", "", "0.1,,0.2", "0.1,", ",0.1", "0::0.1"])
    def test_empty_grid_rejected(self, text):
        with pytest.raises(ValueError, match="empty"):
            _parse_values(text)

    @pytest.mark.parametrize("text", ["0:0.5:1e-300", "0:1:9e-13", "1e300:1e300:5e-324"])
    def test_step_below_rounding_rejected(self, text):
        # 0:0.5:1e-300 used to enumerate point by point and never return
        with pytest.raises(ValueError, match="below the grid rounding"):
            _parse_values(text)

    @pytest.mark.parametrize("text", ["0:1e300:1", "-1e308:1e308:1", "0:1:0.000001", "0:1:1e-12"])
    def test_oversized_range_rejected(self, text):
        # counted in closed form: 0:1:0.000001 has 1_000_001 points
        with pytest.raises(ValueError, match="more than 1000000 points"):
            _parse_values(text)

    def test_point_limit_is_inclusive(self, monkeypatch):
        # the same closed-form count as at 10^6 points, at a cheaper limit
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 1000)
        values = _parse_values("0:0.999:0.001")
        assert len(values) == 1000
        assert values[-1] == 0.999
        with pytest.raises(ValueError, match="more than 1000 points"):
            _parse_values("0:1:0.001")


class TestWriteCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv([(1, "post_gate", 0.5, 1 / 3)], ["stage", "kind", "avg_logneg", "mixedness"], path)
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "stage,kind,avg_logneg,mixedness"
        assert lines[1] == "1,post_gate,0.5,0.333333333333"
        assert text.endswith("\n") and "\r" not in text

    @pytest.mark.parametrize(
        "value, text",
        [(True, "1"), (np.True_, "1"), (np.int64(3), "3"), (np.float64(0.1), "0.1"), ("x", "x")],
    )
    def test_cell_format(self, value, text):
        assert _fmt(value) == text


class TestProfileCommand:
    def test_writes_sixteen_stage_rows(self, tmp_path):
        out = tmp_path / "profile.csv"
        code = run_cli("profile", "--n", "15", "--a", "2", "--kind", "pure", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "stage,kind,avg_logneg,mixedness"
        assert len(lines) == 17  # header + 2L rows

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("profile", "--n", "10", "--a", "3", "--kind", "mixed-n", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_plot_emission(self, tmp_path):
        out = tmp_path / "profile.csv"
        code = run_cli(
            "profile", "--n", "10", "--a", "3", "--kind", "pure", "--out", str(out), "--emit-plot"
        )
        assert code == 0
        svg = tmp_path / "profile.svg"
        assert svg.exists()
        assert svg.read_text().startswith("<svg")


class TestNoiseCommand:
    def test_grid_rows_and_schema(self, tmp_path):
        out = tmp_path / "noise.csv"
        code = run_cli(
            "noise", "--n", "10", "--a", "3", "--kind", "pure", "--noise", "pauli",
            "--probs", "0:0.5:0.05", "--runs", "20", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "prob,successes,runs,rate"
        assert len(lines) == 12

    def test_seeded_reruns_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert (
                run_cli(
                    "noise", "--n", "10", "--a", "3", "--kind", "pure", "--noise",
                    "measurement", "--probs", "0.2,0.4", "--runs", "30", "--seed", "5",
                    "--exclude-control", "--out", str(out),
                )
                == 0
            )
        assert a.read_bytes() == b.read_bytes()


class TestMixCommand:
    def test_schema(self, tmp_path):
        out = tmp_path / "mix.csv"
        code = run_cli(
            "mix", "--n", "10", "--a", "3", "--kind", "mixed-full",
            "--epsilons", "0,0.25,0.5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "epsilon,success_prob,avg_entanglement"
        assert len(lines) == 4


class TestEmission:
    @pytest.mark.parametrize(
        "args, header, rows, labels",
        [
            (
                ["ensemble", "--bits", "4"],
                "stage,kind,avg_logneg,mixedness",
                16,
                ["avg_logneg", "mixedness"],
            ),
            (
                ["noise", "--n", "15", "--a", "2", "--noise", "measurement", "--probs", "0,0.2,0.4",
                 "--runs", "20", "--seed", "3"],
                "prob,successes,runs,rate",
                3,
                ["success rate"],
            ),
            (
                ["noise", "--n", "15", "--a", "2", "--noise", "pauli", "--probs", "0.2",
                 "--runs", "20", "--seed", "3"],
                "prob,successes,runs,rate",
                1,
                ["success rate"],
            ),
            (
                ["mix", "--n", "10", "--a", "3", "--epsilons", "0,0.25,0.5"],
                "epsilon,success_prob,avg_entanglement",
                3,
                ["success_prob", "avg_entanglement"],
            ),
        ],
        ids=["ensemble", "noise", "noise-single-point", "mix"],
    )
    def test_csv_and_plot(self, args, header, rows, labels, tmp_path):
        out = tmp_path / "result.csv"
        assert run_cli(*args, "--out", str(out), "--emit-plot") == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == header
        assert len(lines) == 1 + rows
        svg = (tmp_path / "result.svg").read_text()
        assert svg.startswith("<svg")
        for label in labels:
            assert f">{label}</text>" in svg

    def test_seeded_noise_plot_reruns_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            code = run_cli(
                "noise", "--n", "10", "--a", "3", "--noise", "pauli", "--probs", "0:0.4:0.1",
                "--runs", "30", "--seed", "5", "--out", str(out), "--emit-plot",
            )
            assert code == 0
            outputs.append((out.read_bytes(), (tmp_path / f"{name}.svg").read_bytes()))
        assert outputs[0] == outputs[1]


class TestBaselineAndOracle:
    def test_baseline(self, tmp_path, capsys):
        out = tmp_path / "base.csv"
        assert run_cli("baseline", "--n", "15", "--a", "2", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,a,baseline"
        assert lines[1].startswith("15,2,")
        assert "random baseline" in capsys.readouterr().out

    def test_oracle_check_passes(self, capsys):
        assert run_cli("oracle-check", "--n", "15", "--a", "2") == 0
        assert "OK" in capsys.readouterr().out


class TestValidation:
    def test_non_coprime_rejected_before_computation(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli("profile", "--n", "15", "--a", "6", "--kind", "pure", "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "not coprime" in capsys.readouterr().err

    def test_prime_rejected(self, tmp_path):
        code = run_cli("profile", "--n", "13", "--a", "2", "--kind", "pure", "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_bad_probability_range(self, tmp_path):
        code = run_cli(
            "noise", "--n", "15", "--a", "2", "--kind", "pure", "--noise", "pauli",
            "--probs", "0:2:0.5", "--runs", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_bad_epsilon(self, tmp_path):
        code = run_cli(
            "mix", "--n", "15", "--a", "2", "--kind", "pure",
            "--epsilons", "0.8", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    @pytest.mark.parametrize("eps", ["0.6", "-0.1", "nan", "inf"])
    def test_bad_profile_epsilon_exits_2(self, eps, tmp_path):
        out = tmp_path / "x.csv"
        code = run_cli("profile", "--n", "15", "--a", "2", f"--epsilon={eps}", "--out", str(out))
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "grid", ["0:inf:0.1", "nan:0.5:0.1", "0.5:0:0.1", "nan", ",", "0.1,,0.2", "0.1,", ",0.1"]
    )
    def test_bad_noise_grid_exits_2(self, grid, tmp_path):
        out = tmp_path / "x.csv"
        code = run_cli(
            "noise", "--n", "15", "--a", "2", "--kind", "pure", "--noise", "pauli",
            "--probs", grid, "--runs", "5", "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:inf:0.1", "0:0.5:nan", "0.5:0:0.1", "nan", ","])
    def test_bad_mix_grid_exits_2(self, grid, tmp_path):
        out = tmp_path / "x.csv"
        code = run_cli(
            "mix", "--n", "15", "--a", "2", "--kind", "pure",
            "--epsilons", grid, "--out", str(out),
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:0.5:1e-300", "0:1e300:1"])
    @pytest.mark.parametrize("command, flag", [("mix", "--epsilons"), ("noise", "--probs")])
    def test_oversized_grid_exits_2_at_once(self, command, flag, grid, tmp_path, capsys):
        # both used to hang in the grid parser; now rejected before computing
        out = tmp_path / "x.csv"
        extra = ["--noise", "pauli", "--runs", "5"] if command == "noise" else []
        code = run_cli(command, "--n", "15", "--a", "2", *extra, flag, grid, "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "error: range" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
    def test_bad_oracle_tolerance_exits_2(self, tol, monkeypatch, capsys):
        def no_tree(*args):
            raise AssertionError("the tree ran before --tol was checked")

        monkeypatch.setattr(experiments, "tree_leaf_distribution", no_tree)
        assert run_cli("oracle-check", "--n", "15", "--a", "2", f"--tol={tol}") == 2
        captured = capsys.readouterr()
        assert "--tol must be finite and positive" in captured.err
        assert "OK" not in captured.out

    @pytest.mark.parametrize(
        "command, where",
        [(c, w) for c in OUTPUT_COMMANDS
         for w in ("missing-dir", "directory", "plot-directory", "empty", "trailing-separator")
         if (c, w) != ("baseline", "plot-directory")],  # baseline writes no plot
    )
    def test_unwritable_out_exits_2(self, command, where, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the experiment ran before --out was checked")

        for name in ("tree_profile", "ensemble_profile", "monte_carlo_sweep", "mix_sweep",
                     "random_baseline"):
            monkeypatch.setattr(experiments, name, no_run)
        out, extra = tmp_path / "x.csv", []
        if where == "missing-dir":
            out = bad = tmp_path / "missing" / "x.csv"
        elif where == "directory":
            out = bad = tmp_path
        elif where == "empty":
            out = bad = ""
        elif where == "trailing-separator":
            out = bad = str(tmp_path / "new") + os.sep
        else:
            bad = tmp_path / "x.svg"
            bad.mkdir()
            extra = ["--emit-plot"]
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(*OUTPUT_COMMANDS[command], "--out", str(out), *extra) == 2
        assert f"cannot write output file {bad}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    def test_mix_writes_header_and_two_rows(self, tmp_path):
        out = tmp_path / "mix.csv"
        assert (
            run_cli("mix", "--n", "10", "--a", "3", "--kind", "pure", "--epsilons", "0,0.5", "--out", str(out))
            == 0
        )
        assert len(out.read_text().strip().split("\n")) == 3
