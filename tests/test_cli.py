from __future__ import annotations

import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dickesim.cli import SCHEMAS, main, parse_params
from dickesim.fixtures import regenerate_fixtures
from dickesim.reporting import ConfigError, ListOf, Number, OneOf, Row, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"
SCHEMA_KEYS = [(command, key) for command, (_, schema) in SCHEMAS.items() for key in schema]


def _bound(x):
    return None if math.isinf(x) else x


def valid_values(parse):
    """Values that `parse` accepts and returns unchanged."""
    if isinstance(parse, Number):
        if parse.whole:
            whole = st.integers(_bound(parse.lo), _bound(parse.hi))
            return whole | whole.map(float)
        return st.floats(_bound(parse.lo), _bound(parse.hi), allow_nan=False, allow_infinity=False)
    if isinstance(parse, OneOf):
        return st.sampled_from(parse.options)
    if isinstance(parse, ListOf):
        return st.lists(valid_values(parse.item), max_size=3)
    assert isinstance(parse, Row)
    return st.integers(parse.required, len(parse.items)).flatmap(
        lambda n: st.tuples(*map(valid_values, parse.items[:n])).map(list))


NOT_A_NUMBER = (st.booleans() | st.text(max_size=4) | st.sampled_from([math.nan, math.inf, -math.inf])
                | st.floats(-10, 10).map(repr) | st.just([0.5]))


def invalid_values(parse):
    """Values that `parse` must refuse with a ConfigError."""
    if isinstance(parse, Number):
        bad = NOT_A_NUMBER
        if not math.isinf(parse.lo):
            bad |= st.floats(max_value=parse.lo, allow_infinity=False).filter(lambda x: x < parse.lo)
        if not math.isinf(parse.hi):
            bad |= st.floats(min_value=parse.hi, allow_infinity=False).filter(lambda x: x > parse.hi)
        if parse.whole:
            bad |= st.floats(parse.lo, 1e9).filter(lambda x: not x.is_integer())
        return bad
    if isinstance(parse, OneOf):
        return st.text(max_size=12).filter(lambda v: v not in parse.options) | st.integers() | st.booleans()
    if isinstance(parse, ListOf):
        one_bad = st.tuples(st.lists(valid_values(parse.item), max_size=2), invalid_values(parse.item))
        return one_bad.map(lambda t: t[0] + [t[1]]) | st.floats(allow_nan=False) | st.text(max_size=4)
    wrong_length = st.lists(st.just("10"), max_size=parse.required - 1) | st.lists(
        st.just(0.5), min_size=len(parse.items) + 1, max_size=len(parse.items) + 2)
    # a full-length valid row with field i replaced by a bad value
    return wrong_length | st.integers(0, len(parse.items) - 1).flatmap(lambda i: st.tuples(
        valid_values(Row(parse.items, len(parse.items))), invalid_values(parse.items[i])
    ).map(lambda t: t[0][:i] + [t[1]] + t[0][i + 1:]))


class TestConfigParsing:
    def test_key_value_form(self):
        text = """
        # comment
        [sweep]
        theta_points = 5
        p = 0.9
        port = b
        gammas = [0, -1]
        """
        params = parse_config_text(text)
        assert params == {"theta_points": 5, "p": 0.9, "port": "b", "gammas": [0, -1]}

    def test_json_form(self):
        params = parse_config_text('{"theta_points": 3, "p": 1.0}')
        assert params["theta_points"] == 3

    def test_bad_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config_text("{bad json")

    def test_empty_object_allowed(self):
        assert parse_config_text("{}") == {}


class TestConfigSchema:
    @settings(derandomize=True, max_examples=300)
    @given(data=st.data())
    def test_values_parse_to_themselves_or_raise(self, data):
        command, key = data.draw(st.sampled_from(SCHEMA_KEYS))
        parse, _ = SCHEMAS[command][1][key]
        good = data.draw(valid_values(parse))
        parsed = parse_params(command, {key: good})[key]
        assert parsed == good
        if isinstance(parse, Number):
            assert type(parsed) is (int if parse.whole else float)
        bad = data.draw(invalid_values(parse))
        with pytest.raises(ConfigError):
            parse_params(command, {key: bad})

    def test_readme_table_lists_the_schema_keys(self):
        section = README.read_text().split("### Config files", 1)[1].split("\n#", 1)[0]
        documented, command = {}, None
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if not line.startswith("|") or len(cells) < 2 or "`" not in cells[1]:
                continue
            command = cells[0].strip("`") or command
            documented.setdefault(command, []).extend(re.findall(r"`(\w+)`", cells[1]))
        assert {c: sorted(keys) for c, keys in documented.items()} == {
            c: sorted(schema) for c, (_, schema) in SCHEMAS.items()}


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("bogus_key = 1\n")
        assert main(["qtc-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["qtc-sweep", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_missing_fixture_dir_is_check_failure(self, tmp_path, capsys):
        empty = tmp_path / "fixtures"
        empty.mkdir()
        code = main(["resource-check", "--fixtures-dir", str(empty),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        assert "regen-fixtures" in capsys.readouterr().err

    def test_default_runs_pass(self, tmp_path):
        assert main(["qtc-sweep", "--out", str(tmp_path / "q.csv")]) == 0
        assert main(["odt-table", "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("command,config_text", [
        ("witness-scan", "gammas = [0.5]\n"),
        ("witness-scan", "gammas = [NaN]\n"),
        ("witness-scan", "gammas = [\"abc\"]\n"),
        ("witness-scan", "gamma_min = -11\n"),
        ("witness-scan", "gamma_max = 0.5\ngamma_points = 3\n"),
        ("resource-check", "gamma_grid = [-11]\n"),
        ("resource-check", "werner_p = 2\n"),
        ("resource-check", "max_depth = \"x\"\n"),
        ("qtc-sweep", "theta_max = 4\n"),
        ("qtc-sweep", "theta_points = \"abc\"\n"),
        ("qtc-sweep", "p = NaN\n"),
        ("qtc-sweep", "p = 2\n"),
        ("qtc-sweep", "port = z\n"),
        ("odt-table", "werner_p = 0.9\nn_per_setting = 0\n"),
        ("odt-table", "configurations = 5\n"),
        ("odt-table", "configurations = [[\"10\", 0.0, \"z\"]]\n"),
        ("witness-scan", "gamma_points = -1\n"),
        ("witness-scan", "gamma_points = 0\n"),
        ("witness-scan", "gamma_points = \"x\"\n"),
        ("witness-scan", "jx2 = \"abc\"\n"),
        ("witness-scan", "d_jx2 = -1\n"),
        ("witness-scan", "d_jx2 = 1e300\nd_jy2 = 1e300\n"),
        ("witness-scan", "source = magic\n"),
        ("tomography-demo", "trials = 0\n"),
        ("tomography-demo", "n_per_setting = 2.5\n"),
        ("tomography-demo", "state = nonsense\n"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, config_text):
        config = tmp_path / "c.cfg"
        config.write_text(config_text)
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


    @pytest.mark.parametrize("command,config_text,seed,setting", [
        ("tomography-demo", "state = bell-psi+\nn_per_setting = 3\ntrials = 10\n", 7, "YY"),
        ("odt-table", "werner_p = 0.9\nn_per_setting = 1\n", 0, "Z"),
    ])
    def test_setting_without_counts_is_config_error(self, tmp_path, capsys, command,
                                                    config_text, seed, setting):
        config = tmp_path / "c.cfg"
        config.write_text(config_text)
        assert main([command, "--config", str(config), "--seed", str(seed)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        n = re.search(r"n_per_setting = \d+", config_text).group()
        assert n in err and f"setting {setting};" in err


class TestResourceCheck:
    def test_ideal_report(self, tmp_path):
        out = tmp_path / "r.json"
        config = tmp_path / "c.cfg"
        config.write_text("gamma_grid = [0.0, -2.5]\n")
        assert main(["resource-check", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["status"] == "pass"
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["conversion_fidelity"]["status"] == "pass"
        assert by_name["wm_transcribed_value"]["value"] == pytest.approx(2.75, abs=1e-9)
        assert by_name["wm_calibrated_value"]["value"] == pytest.approx(-1.0, abs=1e-9)
        gamma_rows = {row["gamma"]: row for row in report["gamma_scan"]}
        assert gamma_rows[0.0]["verdict"] == "multipartite-entangled"
        assert gamma_rows[0.0]["value"] == pytest.approx(
            gamma_rows[0.0]["b4"] - 6.0, abs=1e-9)
        assert report["meta"]["config"]["gamma_grid"] == [0.0, -2.5]

    def test_werner_report(self, tmp_path):
        out = tmp_path / "r.json"
        config = tmp_path / "c.cfg"
        config.write_text("werner_p = 0.7653333333333333\ngamma_grid = [-2.5]\n")
        assert main(["resource-check", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["resource_fidelity_vs_dicke"]["value"] == pytest.approx(0.78, abs=1e-9)
        assert by_name["d3_k1_bound_tightness"]["status"] == "pass"
        # white noise at this weight hides entanglement from the gamma=0 witness
        # but the gamma=-2.5 one still flags it
        row = report["gamma_scan"][0]
        assert row["gamma"] == -2.5
        assert row["verdict"] == "multipartite-entangled"

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        config = tmp_path / "c.cfg"
        config.write_text("gamma_grid = [0.0]\n")
        assert main(["resource-check", "--config", str(config), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert any(line.startswith("# command=resource-check") for line in lines)
        assert "row_type,name,status,value,expected" in lines


class TestQtcSweep:
    def test_rows_match_theory(self, tmp_path):
        out = tmp_path / "q.json"
        assert main(["qtc-sweep", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        rows = report["rows"]
        assert len(rows) == 25
        mid = rows[12]
        assert mid["theta"] == pytest.approx(math.pi / 2)
        assert mid["theory_fidelity"] == pytest.approx(5 / 6, abs=1e-12)
        for row in rows:
            assert row["ideal_fidelity"] == pytest.approx(row["theory_fidelity"], abs=1e-9)
            assert row["band_low"] <= row["theory_fidelity"] + 1e-9 <= row["band_high"] + 2e-9

    def test_noisy_band_direction(self, tmp_path):
        out = tmp_path / "q.json"
        config = tmp_path / "c.cfg"
        config.write_text(
            "theta_points = 3\np = 0.7653333333333333\n"
            "dephase_lambda = 0.18\np_uncertainty = 0.00533\n")
        assert main(["qtc-sweep", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert rows[1]["theta"] == pytest.approx(math.pi / 2)
        assert rows[1]["band_low"] > 5 / 6
        assert rows[0]["band_high"] < 2 / 3


class TestOdtTable:
    def test_twelve_ideal_rows(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(["odt-table", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 12
        for row in rows:
            assert row["fidelity_ideal"] == pytest.approx(1.0, abs=1e-9)
            assert row["reference_fidelity"] is not None
        assert rows[0]["projection"] == "10"
        assert rows[0]["reference_fidelity"] == pytest.approx(0.93)

    def test_noisy_column(self, tmp_path):
        out = tmp_path / "o.json"
        config = tmp_path / "c.cfg"
        config.write_text("werner_p = 0.7653333333333333\n")
        assert main(["odt-table", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert all(row["fidelity_noisy"] is not None and row["fidelity_noisy"] < 1.0
                   for row in rows)
        assert all(row["fidelity_noisy_uncertainty"] is None for row in rows)

    def test_noisy_bootstrap_mode(self, tmp_path):
        out = tmp_path / "o.json"
        config = tmp_path / "c.cfg"
        config.write_text(
            "werner_p = 0.7653333333333333\nn_per_setting = 5000\ntrials = 15\n"
            'configurations = [["10", 0.0, "a"], ["01", 1.37, "b"]]\n')
        assert main(["odt-table", "--config", str(config), "--format", "json",
                     "--seed", "4", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 2
        for row in rows:
            assert row["fidelity_noisy_uncertainty"] > 0
            assert 0.8 < row["fidelity_noisy"] < 1.0
            assert row["reference_fidelity"] is None


class TestWitnessScan:
    def test_measured_mode_defaults(self, tmp_path):
        out = tmp_path / "w.json"
        assert main(["witness-scan", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        rows = {row["gamma"]: row for row in report["rows"]}
        assert rows[-0.12]["significance"] == pytest.approx(-1.236, abs=0.01)
        assert rows[-2.5]["significance"] == pytest.approx(-14.58, abs=0.01)
        milestones = {m["gamma"]: m for m in report["significance_milestones"]}
        assert milestones[-0.12]["met"] is True
        assert milestones[-2.5]["met"] is False
        assert any("does not reach" in note for note in report["discrepancies"])

    def test_state_mode(self, tmp_path):
        out = tmp_path / "w.json"
        config = tmp_path / "c.cfg"
        config.write_text('source = state\ngammas = [-2.5]\n')
        assert main(["witness-scan", "--config", str(config), "--format", "json",
                     "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["value"] == pytest.approx(row["b4"] - 6.0, abs=1e-9)
        assert row["delta"] == 0.0

    def test_csv_contains_discrepancy_note(self, tmp_path):
        out = tmp_path / "w.csv"
        assert main(["witness-scan", "--out", str(out)]) == 0
        assert "does not reach threshold -15" in out.read_text()


class TestTomographyDemo:
    def test_default_reconstruction(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(["tomography-demo", "--seed", "3", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["fidelity"] >= 0.99
        assert report["fidelity_threshold"] == 0.99
        matrix = report["reconstructed_matrix"]
        assert len(matrix) == 4 and len(matrix[0]) == 4 and len(matrix[0][0]) == 2

    def test_clone_mix_state(self, tmp_path):
        out = tmp_path / "t.json"
        config = tmp_path / "c.cfg"
        config.write_text("state = clone-mix\nn_per_setting = 20000\n")
        assert main(["tomography-demo", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["fidelity"] > 0.99
        assert report["fidelity_threshold"] is None


class TestFixtureRegeneration:
    def test_regen_into_fresh_dir(self, tmp_path):
        target = tmp_path / "fx"
        summary = regenerate_fixtures(target)
        assert (target / "conversion_circuit.txt").exists()
        assert (target / "correction_table.json").exists()
        assert (target / "b4_samples.json").exists()
        assert summary["conversion_fidelity"] >= 1 - 1e-9
        out = tmp_path / "r.json"
        config = tmp_path / "c.cfg"
        config.write_text("gamma_grid = [0.0]\n")
        code = main(["resource-check", "--config", str(config),
                     "--fixtures-dir", str(target), "--out", str(out)])
        assert code == 0

    def test_regen_flag_from_cli(self, tmp_path):
        target = tmp_path / "fx"
        config = tmp_path / "c.cfg"
        config.write_text("gamma_grid = [0.0]\n")
        out = tmp_path / "r.json"
        code = main(["resource-check", "--config", str(config), "--regen-fixtures",
                     "--fixtures-dir", str(target), "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["fixtures_regenerated"] is True
        assert (target / "conversion_circuit.txt").exists()


class TestDeterminism:
    @pytest.mark.parametrize("command,config_text", [
        ("qtc-sweep", "theta_points = 7\n"),
        ("witness-scan", "gammas = [0.0, -2.5]\n"),
        ("tomography-demo", "n_per_setting = 2000\ntrials = 12\n"),
    ])
    def test_repeated_runs_bit_identical(self, tmp_path, command, config_text):
        config = tmp_path / "c.cfg"
        config.write_text(config_text)
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main([command, "--config", str(config), "--seed", "5",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
