from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dickesim import cli, protocols, tomography
from dickesim.cli import SCHEMAS, main, parse_args, parse_params, run_command
from dickesim.circuits import find_conversion_circuit
from dickesim.fixtures import (
    B4_FILE,
    CONVERSION_FILE,
    CORRECTION_FILE,
    DEFAULT_DIR,
    load_b4_samples,
)
from dickesim.protocols import derive_correction_table, run_odt
from dickesim.reporting import ConfigError, ListOf, Number, OneOf, Row, parse_config_text
from dickesim.states import RESOURCE_LABELS, ClientParams, client_ket, dicke, werner_dicke, xi_state
from dickesim.tomography import (
    MIN_TRIALS,
    MissingSettingError,
    fidelity_with_error,
    simulate_counts,
    tomography_linear,
)
from dickesim.witnesses import (
    B4_GAMMA_MIN,
    PAPER_GAMMAS,
    WitnessReport,
    biseparable_bound,
    biseparable_bound_result,
    propagate_wcs_error,
)

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
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

    @pytest.mark.parametrize("text,lineno", [("= 3", 1), ("p = 0.9\n  =x", 2), ("[s]\n\n = 1\n", 3)])
    def test_empty_key(self, text, lineno):
        with pytest.raises(ConfigError, match=f"config line {lineno} has an empty key"):
            parse_config_text(text)


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

    @pytest.mark.parametrize("command,key,bound", [
        ("qtc-sweep", "theta_points", 10 ** 4),
        ("odt-table", "trials", 10 ** 5),
        ("tomography-demo", "trials", 10 ** 5),
    ])
    def test_size_bounds(self, tmp_path, capsys, monkeypatch, command, key, bound):
        """Grid sizes and bootstrap trials are bounded at parse time. No command
        runs here: each is replaced by a stub that fails if it is reached."""
        assert parse_params(command, {key: bound})[key] == bound
        with pytest.raises(ConfigError, match=rf"{key} must be a whole number in \[\d+, {bound}\]"):
            parse_params(command, {key: bound + 1})
        self._refused_unrun(tmp_path, capsys, monkeypatch, command, {key: bound + 1})

    def test_trials_floor_is_the_library_floor(self):
        """An accepted trials count is one fidelity_with_error takes, so it never exits 1."""
        assert cli.TRIALS.lo == MIN_TRIALS

    @pytest.mark.parametrize("command,key,entry,bound", [
        ("resource-check", "gamma_grid", -1.0, 10 ** 4),
        ("witness-scan", "gammas", -1.0, 10 ** 4),
        ("odt-table", "configurations", ["01", 0.0, "a"], 24),
    ])
    def test_list_length_bounds(self, tmp_path, capsys, monkeypatch, command, key, entry, bound):
        """List lengths are bounded at parse time, as sizes are; nothing runs at a bound."""
        assert len(parse_params(command, {key: [entry] * bound})[key]) == bound
        with pytest.raises(ConfigError, match=f"{key} must list at most {bound} entries, got {bound + 1}"):
            parse_params(command, {key: [entry] * (bound + 1)})
        self._refused_unrun(tmp_path, capsys, monkeypatch, command, {key: [entry] * (bound + 1)})

    @staticmethod
    def _refused_unrun(tmp_path, capsys, monkeypatch, command, params):
        """`main` exits 2 with one line on `params`, with the command replaced by a
        stub that fails if it is reached."""
        def unreachable(cfg, args):
            raise AssertionError(f"{command} ran with {params}")
        monkeypatch.setitem(cli.COMMANDS, command, unreachable)
        config = tmp_path / "c.json"
        config.write_text(json.dumps(params))
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

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

    def test_configs_in_use_parse(self, monkeypatch):
        """Every benchmark operation's config at seeds 1-3 and the README's noisy.cfg
        example use only schema keys, with accepted values."""
        monkeypatch.setattr(sys, "dont_write_bytecode", True)  # benchmark/ is only read
        spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmark" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, "workloads", workloads)
        spec.loader.exec_module(workloads)
        ops = [op for name in workloads.WORKLOADS for seed in (1, 2, 3)
               for op in workloads.build(name, seed).operations]
        for op in ops:
            assert set(op.config) <= set(SCHEMAS[op.command][1]), (op.command, op.config)
            parse_params(op.command, op.config)
        example = README.read_text().split("cat > noisy.cfg <<'CFG'\n", 1)[1].split("\nCFG\n", 1)[0]
        assert parse_params("qtc-sweep", parse_config_text(example))["p_uncertainty"] == 0.00533


class TestExitCodes:
    def test_unknown_config_key_is_config_error(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("bogus_key = 1\n")
        assert main(["qtc-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["qtc-sweep", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("case,message", [
        ("config-is-a-directory", "[Errno 21] Is a directory"),
        ("out-in-missing-directory", "[Errno 2] No such file or directory"),
    ])
    def test_invocation_error_is_config_error(self, tmp_path, capsys, case, message):
        argv = {
            "config-is-a-directory": ["qtc-sweep", "--config", str(tmp_path)],
            "out-in-missing-directory": ["qtc-sweep", "--out", str(tmp_path / "no" / "q.csv")],
        }[case]
        packaged = {path.name: path.read_bytes() for path in DEFAULT_DIR.iterdir()}
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert {path.name: path.read_bytes() for path in DEFAULT_DIR.iterdir()} == packaged

    @pytest.mark.parametrize("command,config_text,seed", [
        *((command, "", "-1") for command in sorted(SCHEMAS)),
        ("odt-table", "werner_p = 0.9\nn_per_setting = 100\n", "-3"),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, monkeypatch, command,
                                           config_text, seed):
        config = tmp_path / "c.cfg"
        config.write_text(config_text)
        monkeypatch.setattr(cli, "run_command", lambda *args: pytest.fail("the command ran"))
        assert main([command, "--config", str(config), "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --seed must be a non-negative integer, got {seed}\n"

    @pytest.mark.parametrize("argv", [
        ["qtc-sweep", "--bogus", "1"],
        ["qtc-sweep", "--conf", "c.cfg"],
        ["qtc-sweep", "--seed"],
        ["qtc-sweep", "--out", "--seed", "1"],
        ["qtc-sweep", "--seed", "x"],
        ["qtc-sweep", "--format", "xml"],
        [],
        ["no-such-command"],
        ["qtc-sweep", "odt-table"],
    ], ids=["unknown-flag", "abbreviation", "no-value", "flag-for-value", "seed-not-int",
            "format-xml", "no-command", "unknown-command", "two-commands"])
    def test_usage_error_is_config_error(self, capsys, monkeypatch, argv):
        """A refused command line returns 2, raises no SystemExit, prints one line and runs nothing."""
        monkeypatch.setattr(cli, "run_command", lambda *args: pytest.fail("the command ran"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error:") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["--config=c.cfg", "--seed=7", "--out=r.json", "--format=json", "--fixtures-dir=fx", "odt-table"],
        ["--seed", "3", "--format=csv", "odt-table", "--config", "c.cfg", "--seed", "7", "--out", "r.json",
         "--format", "json", "--fixtures-dir", "fx"],
    ], ids=["equals-before-command", "repeated-flag"])
    def test_accepted_spellings(self, argv):
        spaced = ["odt-table", "--config", "c.cfg", "--seed", "7", "--out", "r.json", "--format", "json",
                  "--fixtures-dir", "fx"]
        assert parse_args(argv) == parse_args(spaced) == cli.Invocation(
            "odt-table", config=Path("c.cfg"), seed=7, out=Path("r.json"), format="json",
            fixtures_dir=Path("fx"))
        assert parse_args(["odt-table"]) == cli.Invocation("odt-table", None, 0, None, None, None)

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help(self, capsys, monkeypatch, flag):
        monkeypatch.setattr(cli, "run_command", lambda *args: pytest.fail("the command ran"))
        assert main(["qtc-sweep", flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for name in [*cli.COMMANDS, "--config", "--seed", "--out", "--format", "--fixtures-dir"]:
            assert name in captured.out

    def test_entry_point_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["dickesim", "no-such-command"])
        with pytest.raises(SystemExit) as exit_info:
            cli.entry_point()
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_stdout_report_equals_out_file(self, tmp_path, capsysbinary):
        out = tmp_path / "w.csv"
        assert main(["witness-scan", "--out", str(out)]) == 0
        assert capsysbinary.readouterr().out == b""
        assert main(["witness-scan"]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_missing_fixture_dir_is_check_failure(self, tmp_path, capsys):
        empty = tmp_path / "fixtures"
        empty.mkdir()
        code = main(["resource-check", "--fixtures-dir", str(empty),
                     "--out", str(tmp_path / "o.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fixture error: missing fixture {empty}") and err.count("\n") == 1

    @pytest.mark.parametrize("name,text", [
        (B4_FILE, '{"samples": {"-0.12": 5.15'),
        (CONVERSION_FILE, "H - c\nCX c\n"),
        (B4_FILE, '{"samples": {"gamma": 5.0}}\n'),
    ], ids=["truncated-b4", "bad-gate-line", "non-numeric-b4-key"])
    def test_malformed_fixture_is_check_failure(self, tmp_path, capsys, name, text):
        """A fixture that does not parse exits 1 with one line naming it, as a missing one does."""
        copy = shutil.copytree(DEFAULT_DIR, tmp_path / "fixtures")
        (copy / name).write_text(text)
        command = "witness-scan" if name == B4_FILE else "resource-check"
        assert main([command, "--fixtures-dir", str(copy), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"fixture error: malformed fixture {copy / name}: ")
        assert err.count("\n") == 1

    def test_default_runs_pass(self, tmp_path):
        assert main(["qtc-sweep", "--out", str(tmp_path / "q.csv")]) == 0
        assert main(["odt-table", "--out", str(tmp_path / "o.csv")]) == 0

    @pytest.mark.parametrize("command,config_text", [
        ("witness-scan", "gammas = [0.5]\n"),
        ("witness-scan", "gammas = [NaN]\n"),
        ("witness-scan", "gammas = [\"abc\"]\n"),
        ("resource-check", "gamma_grid = [-11]\n"),
        ("resource-check", "werner_p = 2\n"),
        ("resource-check", "gamma_grid = -1\n"),
        ("qtc-sweep", "theta_max = 4\n"),
        ("qtc-sweep", "theta_points = \"abc\"\n"),
        ("qtc-sweep", "p = NaN\n"),
        ("qtc-sweep", "p = 2\n"),
        ("qtc-sweep", "port = z\n"),
        ("odt-table", "werner_p = 0.9\nn_per_setting = 0\n"),
        ("odt-table", "configurations = 5\n"),
        ("odt-table", "configurations = [[\"10\", 0.0, \"z\"]]\n"),
        ("witness-scan", "jx2 = \"abc\"\n"),
        ("witness-scan", "d_jx2 = -1\n"),
        ("witness-scan", "d_jx2 = 1e300\nd_jy2 = 1e300\n"),
        # a value of -inf before the moments were bounded
        ("witness-scan", '{"gammas": [-1.0], "jx2": 1e308, "jy2": 1e308}'),
        # a significance of -inf before the moments were bounded
        ("witness-scan", '{"gammas": [-1.0], "jx2": 1e150, "d_jx2": 1e-160, "d_jy2": 0, "d_jz2": 0}'),
        ("witness-scan", "jz2 = -1.1e100\n"),
        ("qtc-sweep", b"theta_points = 5\n# caf\xe9\n"),  # Latin-1, not UTF-8
        ("witness-scan", "source = magic\n"),
        ("tomography-demo", "trials = 0\n"),
        ("tomography-demo", "n_per_setting = 2.5\n"),
        ("tomography-demo", "n_per_setting = 1e20\n"),
        ("odt-table", "werner_p = 0.9\nn_per_setting = 1e20\n"),
        ("tomography-demo", "state = nonsense\n"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, command, config_text):
        config = tmp_path / "c.cfg"
        config.write_bytes(config_text if isinstance(config_text, bytes) else config_text.encode())
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1


    # every outcome the clone-mix record draws from has a nonzero probability, so
    # which record draws nothing does not hang on how a zero probability rounds
    @pytest.mark.parametrize("command,config_text,seed,setting", [
        ("tomography-demo", "state = clone-mix\nn_per_setting = 1\ntrials = 10\n", 0, "Z"),
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


def _no_libc(name):
    raise OSError("no C library")


class TestAllocationPolicy:
    """main() fixes glibc's mmap and trim thresholds for its process; here a
    stand-in C library records the mallopt calls instead."""

    POLICY = [("mallopt", cli.M_MMAP_THRESHOLD, cli.MMAP_THRESHOLD_BYTES),
              ("mallopt", cli.M_TRIM_THRESHOLD, cli.TRIM_THRESHOLD_BYTES)]

    @staticmethod
    def _install_libc(monkeypatch, events: list, accepted: int = 1):
        def mallopt(param, value):
            events.append(("mallopt", param, value))
            return accepted

        def cdll(name):
            assert name is None  # the process's own C library
            return SimpleNamespace(mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        return mallopt

    def test_two_calls_before_argv_parsing(self, monkeypatch, capsys):
        assert (cli.M_TRIM_THRESHOLD, cli.M_MMAP_THRESHOLD) == (-1, -3)  # malloc.h
        events = []
        mallopt = self._install_libc(monkeypatch, events)
        parse = cli.parse_args
        monkeypatch.setattr(cli, "parse_args", lambda argv: events.append(("parse",)) or parse(argv))
        assert main(["--help"]) == 0
        assert events == [*self.POLICY, ("parse",)]
        assert mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int) and mallopt.restype is cli.ctypes.c_int
        assert main(["no-such-command"]) == 2
        assert events == [*self.POLICY, ("parse",)] * 2

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["no-such-command"], 2), (["qtc-sweep"], 0)],
                             ids=["help", "config-error", "noisy-run"])
    def test_exit_code_and_output_are_kept(self, tmp_path, monkeypatch, capsysbinary, argv, code):
        config = tmp_path / "c.cfg"
        config.write_text("p = 0.9\ndephase_lambda = 0.05\np_uncertainty = 0.02\ntheta_points = 5\n")
        argv = argv + ["--config", str(config)]
        events, outputs = [], []
        for install in (lambda: self._install_libc(monkeypatch, events),
                        lambda: monkeypatch.setattr(cli.ctypes, "CDLL", _no_libc)):
            install()
            assert main(argv) == code
            outputs.append(capsysbinary.readouterr())
        assert events == self.POLICY
        assert outputs[0] == outputs[1] and (outputs[0].out or outputs[0].err)

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: int(name), lambda name: SimpleNamespace()],
                             ids=["OSError", "TypeError", "no-mallopt"])
    def test_silent_without_mallopt(self, monkeypatch, capsys, cdll):
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_arrays_mapped() is None
        assert capsys.readouterr() == ("", "")

    def test_trim_follows_an_accepted_mmap_threshold(self, monkeypatch):
        events = []
        self._install_libc(monkeypatch, events, accepted=0)
        cli._keep_freed_arrays_mapped()
        assert events == self.POLICY[:1]

    def test_importing_sets_nothing(self):
        # a fresh interpreter: the package and the cli are imported before any call
        child = """
import contextlib, ctypes, io
calls = []
ctypes.CDLL = lambda name: type("Libc", (), {"mallopt": staticmethod(lambda *a: calls.append(a) or 1)})()
import dickesim, dickesim.cli
imported = len(calls)
with contextlib.redirect_stdout(io.StringIO()):
    dickesim.cli.main(["--help"])
print(imported, len(calls))
"""
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.stdout.split() == ["0", "2"]

    def test_main_freezes_the_collector_once(self):
        # a fresh interpreter: importing freezes nothing, the first main() moves every
        # tracked object to the permanent generation, and a second call adds none
        child = """
import contextlib, gc, io
import dickesim, dickesim.cli
counts = [gc.get_freeze_count()]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        dickesim.cli.main(["--help"])
    counts.append(gc.get_freeze_count())
print(*counts)
"""
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        imported, first, second = map(int, proc.stdout.split())
        assert imported == 0 and first > 0 and second == first


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

    @pytest.mark.parametrize("config", [
        {"phi": 0.4, "port": "d"},
        {"p": 0.9, "dephase_lambda": 0.05, "p_uncertainty": 0.03, "phi": 1.1, "port": "c"},
    ], ids=["pure", "noisy"])
    def test_grid_rows_equal_one_point_sweeps(self, tmp_path, config):
        """The theta grid runs as one stack; each row is still the run of its theta alone."""
        def data_rows(text):
            return [line for line in text.splitlines() if not line.startswith("#")][1:]

        path, out = tmp_path / "c.json", tmp_path / "out.csv"
        path.write_text(json.dumps({**config, "theta_points": 101}))
        assert main(["qtc-sweep", "--config", str(path), "--out", str(out)]) == 0
        grid = data_rows(out.read_text())
        assert len(grid) == 101
        args = parse_args(["qtc-sweep"])
        for row in grid:
            theta = float(row.split(",")[0])
            text, code = run_command("qtc-sweep", {**config, "theta_points": 1, "theta_min": theta,
                                                   "theta_max": theta}, args)
            assert code == 0 and data_rows(text) == [row]

    @pytest.mark.parametrize("config,qtc_calls,band_calls", [
        ({"theta_points": 251}, 1, 0),
        ({"theta_points": 251, "p": 0.9, "dephase_lambda": 0.05, "p_uncertainty": 0.03}, 3, 1),
    ], ids=["ideal", "dephased"])
    def test_run_qtc_calls(self, monkeypatch, config, qtc_calls, band_calls):
        """The ideal column is one run_qtc call; without noise it is the band too, and
        a noisy band adds one call per end."""
        calls = []

        def counted(name, real):
            return lambda *a, **k: calls.append(name) or real(*a, **k)
        monkeypatch.setattr(protocols, "run_qtc", counted("run_qtc", protocols.run_qtc))
        monkeypatch.setattr(cli, "run_qtc", counted("run_qtc", cli.run_qtc))
        monkeypatch.setattr(cli, "qtc_mixed_band", counted("band", cli.qtc_mixed_band))
        _, code = run_command("qtc-sweep", config, parse_args(["qtc-sweep"]))
        assert code == 0
        assert (calls.count("run_qtc"), calls.count("band")) == (qtc_calls, band_calls)

    @pytest.mark.parametrize("patch", ["theory"])
    def test_failed_physics_check_exits_one(self, tmp_path, monkeypatch, patch):
        """A theory that misses the ideal fidelity fails the check."""
        monkeypatch.setattr(cli, "qtc_theory_fidelity", lambda theta: 0.5)
        out = tmp_path / "q.json"
        assert main(["qtc-sweep", "--format", "json", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["status"] == "FAIL"


class TestOdtTable:
    def test_failed_teleport_check_exits_one(self, tmp_path, monkeypatch):
        def failing(*args, real=cli.run_odt, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, teleport_fidelity=np.full_like(result.teleport_fidelity, 0.9))
        monkeypatch.setattr(cli, "run_odt", failing)
        out = tmp_path / "o.json"
        assert main(["odt-table", "--format", "json", "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert report["status"] == "FAIL"
        assert {row["fidelity_ideal"] for row in report["rows"]} == {0.9}

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

    def test_one_dicke_resource_per_table(self, tmp_path, monkeypatch):
        builds = []
        for module in (cli, protocols):
            def counted(*args, real=module.dicke, **kwargs):
                builds.append(args)
                return real(*args, **kwargs)
            monkeypatch.setattr(module, "dicke", counted)
        assert main(["odt-table", "--out", str(tmp_path / "o.csv")]) == 0
        assert builds == [(4, 2, RESOURCE_LABELS)]

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

    @staticmethod
    def _data_rows(text):
        return [line for line in text.splitlines() if not line.startswith("#")][1:]

    @pytest.mark.parametrize("config", [{}, {"werner_p": 0.85, "dephase_lambda": 0.04}],
                             ids=["default", "noisy"])
    def test_rows_equal_one_row_tables(self, config):
        """The rows of one (projection, receiver) run as one stack; each row is
        still the run of its row alone."""
        args = parse_args(["odt-table"])
        text, code = run_command("odt-table", config, args)
        table = self._data_rows(text)
        assert code == 0 and len(table) == len(cli.ODT_TABLE_I) == 12
        for row, line in zip(cli.ODT_TABLE_I, table):
            one, code = run_command("odt-table", {**config, "configurations": [list(row)]}, args)
            assert code == 0 and self._data_rows(one) == [line]

    def test_bootstrap_rows_equal_single_client_runs(self):
        """One bootstrap serves every row; row i still equals its client run alone,
        its records drawn at seed + 10 i and bootstrapped at seed. Only row 0 is a
        one-row table's row: that table draws its records at seed."""
        config = {"werner_p": 0.85, "dephase_lambda": 0.04, "n_per_setting": 3000, "trials": 20}
        args = parse_args(["odt-table", "--seed", "5", "--format", "json"])
        text, code = run_command("odt-table", config, args)
        rows = json.loads(text)["rows"]
        assert code == 0 and len(rows) == 12
        for i, (row, (proj, theta, receiver, *_)) in enumerate(zip(rows, cli.ODT_TABLE_I)):
            port = "b" if receiver != "b" else "a"
            ideal = run_odt(ClientParams(theta), port=port, receiver=receiver, sodt_projection=proj)
            noisy = run_odt(ClientParams(theta, dephase_lambda=0.04), werner_dicke(0.85), port, receiver, proj)
            records = simulate_counts(noisy.receiver_state, ["X", "Y", "Z"], 3000, 5 + 10 * i)
            f, df = fidelity_with_error(records, client_ket(ClientParams(theta)), trials=20, seed=5)
            assert [row[key] for key in ("fidelity_ideal", "success_probability", "fidelity_noisy",
                                         "fidelity_noisy_uncertainty")] == [
                ideal.teleport_fidelity, ideal.success_probability, f, df]
        one, _ = run_command("odt-table", {**config, "configurations": [list(cli.ODT_TABLE_I[0])]}, args)
        assert json.loads(one)["rows"] == rows[:1]

    @pytest.mark.parametrize("config,odt_calls,bootstrap_calls", [
        ({}, 4, 0),
        ({"werner_p": 0.9}, 8, 0),
        ({"werner_p": 0.9, "n_per_setting": 2000, "trials": 10}, 8, 1),
    ], ids=["ideal", "noisy", "bootstrap"])
    def test_stacked_calls(self, monkeypatch, config, odt_calls, bootstrap_calls):
        """The default table's rows form 4 (projection, receiver) groups: one stacked
        run per group and resource, and one bootstrap for every row."""
        calls = []

        def counted(name, real):
            return lambda *a, **k: calls.append(name) or real(*a, **k)
        monkeypatch.setattr(cli, "run_odt", counted("odt", cli.run_odt))
        monkeypatch.setattr(cli, "fidelity_with_error", counted("bootstrap", cli.fidelity_with_error))
        _, code = run_command("odt-table", config, parse_args(["odt-table"]))
        assert code == 0
        assert (calls.count("odt"), calls.count("bootstrap")) == (odt_calls, bootstrap_calls)

    def test_split_bootstrap_stacks_give_the_same_bytes(self, monkeypatch):
        """Rows join one bootstrap stack only while rows x trials <= MAX_TRIALS; a
        table split into several stacks renders the bytes of one that is not."""
        config, args = {"werner_p": 0.85, "n_per_setting": 1000, "trials": 10}, parse_args(["odt-table"])
        sizes, invert = [], tomography._invert
        monkeypatch.setattr(tomography, "_invert",
                            lambda k, parity, counts: sizes.append(len(counts)) or invert(k, parity, counts))
        whole, _ = run_command("odt-table", config, args)
        assert sizes == [120]
        # below trials, each row is a stack of its own: a lone row is never split
        for limit, stacks in ((120, [120]), (50, [50, 50, 20]), (30, [30] * 4), (10, [10] * 12), (4, [10] * 12)):
            monkeypatch.setattr(tomography, "MAX_TRIALS", limit)
            sizes.clear()
            assert run_command("odt-table", config, args)[0] == whole
            assert sizes == stacks

    @pytest.mark.parametrize("row", [["01", 0.0], ["01", 0.0, "a", 0.9, 0.01, 7]], ids=["two", "six"])
    def test_row_field_count_is_config_error(self, tmp_path, capsys, row):
        config = tmp_path / "c.cfg"
        config.write_text(json.dumps({"configurations": [row]}))
        assert main(["odt-table", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"config error: configurations: each row needs 3 to 5 fields, got {row!r}\n")

    def test_refused_row_names_its_settings(self, tmp_path, capsys):
        """Every row's records are drawn before the one bootstrap; the first row
        whose records miss a setting is still the one refused, with its settings."""
        config = tmp_path / "c.cfg"
        config.write_text("werner_p = 0.9\nn_per_setting = 2\n")
        assert main(["odt-table", "--config", str(config), "--seed", "16"]) == 2
        err = capsys.readouterr().err
        refused = None
        for i, (proj, theta, receiver, *_) in enumerate(cli.ODT_TABLE_I):
            port = "b" if receiver != "b" else "a"
            state = run_odt(ClientParams(theta), werner_dicke(0.9), port, receiver, proj).receiver_state
            try:
                tomography_linear(simulate_counts(state, ["X", "Y", "Z"], 2, 16 + 10 * i))
            except MissingSettingError as missing:
                refused = (i, missing.missing)
                break
        assert refused == (11, ("Y",))  # the last row: every earlier row drew counts
        assert err == ("config error: n_per_setting = 2 drew no counts for setting Y; "
                       "tomography needs counts for every setting\n")


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

    def test_scan_is_silent(self, tmp_path, capsys):
        # the 10-point grid on [-3, 0] and B4_GAMMA_MIN, then the default
        # resource-check, with every warning an error and the b4 cache empty,
        # so each gamma's bounds and winning scan run here: both exit 0 and
        # write nothing to stderr. Reading per_bipartition then runs every
        # class scan b4 skipped, under the same filter.
        grid = [-3.0 + 3.0 * k / 9 for k in range(10)] + [B4_GAMMA_MIN]
        config = tmp_path / "c.cfg"
        config.write_text(f"gammas = [{', '.join(map(repr, grid))}]\n")
        biseparable_bound_result.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["witness-scan", "--config", str(config), "--out", str(tmp_path / "w.csv")]) == 0
            assert main(["resource-check", "--out", str(tmp_path / "r.json")]) == 0
            for gamma in (*grid, *PAPER_GAMMAS):
                assert len(biseparable_bound_result(gamma).per_bipartition) == 2
        assert capsys.readouterr().err == ""

    def test_moments_at_their_bound_stay_finite(self):
        """At the moment bound and the smallest nonzero error, value and significance are finite."""
        d_min = 1.6e-162  # its square rounds up to the smallest subnormal, 5e-324
        assert propagate_wcs_error(B4_GAMMA_MIN, d_min, 0.0, 0.0) == math.sqrt(5e-324)
        config = {"gammas": [B4_GAMMA_MIN], "jx2": 1e100, "jy2": 1e100, "jz2": -1e100,
                  "d_jx2": d_min, "d_jy2": 0.0, "d_jz2": 0.0}
        args = parse_args(["witness-scan", "--format", "json"])
        text, code = run_command("witness-scan", config, args)
        row = json.loads(text)["rows"][0]
        assert code == 0 and row["delta"] == math.sqrt(5e-324)
        assert math.isfinite(row["value"]) and math.isfinite(row["significance"])
        assert row["significance"] < -1e262 and row["verdict"] == "multipartite-entangled"

    @settings(derandomize=True, max_examples=300)
    @given(value=st.floats(-1e300, 1e300), delta=st.just(0.0) | st.floats(0.0, 1e300),
           ulps=st.none() | st.integers(-2, 2))
    @example(value=-0.0, delta=0.0, ulps=None)
    @example(value=-5e-324, delta=0.0, ulps=None)
    @example(value=0.0, delta=5e-324, ulps=-1)
    @example(value=0.0, delta=1.4999999999999998, ulps=1)
    def test_verdict_rule_matches_the_significance_rule(self, value, delta, ulps):
        """WitnessReport.build's rule value + delta < 0 is the scan's former rule,
        significance < -1 for delta > 0 and value < 0 for delta = 0. With `ulps`
        the value is -delta moved by that many ulps, where the rules could part."""
        if ulps is not None:
            value = -delta
            for _ in range(abs(ulps)):
                value = float(np.nextafter(value, -math.inf if ulps > 0 else math.inf))
        significance = value / delta if delta > 0 else None
        entangled = significance < -1.0 if significance is not None else value < 0
        verdict = WitnessReport.build("w", value, delta).verdict
        assert verdict == ("multipartite-entangled" if entangled else "inconclusive")


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
    def test_regenerated_fixtures_match_packaged(self):
        """The library rebuilds the packaged circuit and table byte for byte; the
        b4 samples agree to 1e-9 (their last bits differ). No file is written."""
        search = find_conversion_circuit(xi_state(), dicke(4, 2, RESOURCE_LABELS))
        assert search.circuit.to_text() == (DEFAULT_DIR / CONVERSION_FILE).read_text()
        table = derive_correction_table(dicke(4, 2, RESOURCE_LABELS), port="b")
        assert (json.dumps(table, indent=2, sort_keys=True) + "\n"
                == (DEFAULT_DIR / CORRECTION_FILE).read_text())
        packaged = load_b4_samples()
        assert sorted(packaged) == sorted(PAPER_GAMMAS)
        for gamma in PAPER_GAMMAS:
            assert abs(biseparable_bound(gamma) - packaged[gamma]) <= 1e-9

    def test_copied_fixtures_dir_is_checked(self, tmp_path, capsysbinary):
        """A copy of the packaged fixtures gives the default report byte for byte,
        and one b4 sample moved by 1e-6 in the copy fails its check."""
        copy = shutil.copytree(DEFAULT_DIR, tmp_path / "fixtures")
        assert main(["resource-check"]) == 0
        default = capsysbinary.readouterr().out
        assert main(["resource-check", "--fixtures-dir", str(copy)]) == 0
        assert capsysbinary.readouterr().out == default

        raw = json.loads((copy / B4_FILE).read_text())
        gamma = next(iter(raw["samples"]))
        raw["samples"][gamma] += 1e-6
        (copy / B4_FILE).write_text(json.dumps(raw))
        assert main(["resource-check", "--fixtures-dir", str(copy)]) == 1
        checks = json.loads(capsysbinary.readouterr().out)["checks"]
        assert [c["name"] for c in checks if c["status"] == "FAIL"] == [
            f"b4_fixture_match_gamma_{float(gamma)}"]


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
