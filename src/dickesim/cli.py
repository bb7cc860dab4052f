"""Scenario-driven command line: resource-check, qtc-sweep, odt-table,
witness-scan, tomography-demo.

Every command is deterministic under fixed (config, seed): reports embed the
effective config, the seed, and the package version, and never timestamps.
Exit codes: 0 all golden checks pass (and --help), 1 check failure, 2 config or
usage error, reported as one `config error:` line on stderr.
"""
from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .circuits import MAX_DEPTH, run_circuit
from .fixtures import (
    FixtureError,
    load_b4_samples,
    load_conversion_circuit,
    load_correction_table,
)
from .protocols import (
    derive_correction_table,
    qtc_mixed_band,
    qtc_theory_fidelity,
    run_odt,
    run_qtc,
)
from .register import MixedState, RegisterLayout, fidelity, project, single_qubit
from .reporting import (
    ConfigError,
    ListOf,
    Number,
    OneOf,
    Row,
    complex_matrix_json,
    parse_config_text,
    render_csv,
    render_json,
)
from .states import (
    ClientParams,
    RESOURCE_LABELS,
    bell,
    client_ket,
    dicke,
    physical_logical_permutation,
    werner_dicke,
    xi_state,
)
from .tomography import (
    MAX_SHOTS,
    MIN_TRIALS,
    MissingSettingError,
    fidelity_with_error,
    simulate_counts,
    tomography_linear,
)
from .witnesses import (
    B4_GAMMA_MIN,
    MEASURED_J2,
    MEASURED_J2_ERR,
    PAPER_GAMMAS,
    WitnessReport,
    biseparable_bound_result,
    collective_spin,
    fidelity_bound_from_d3_witness,
    fidelity_bound_from_wm,
    propagate_wcs_error,
    witness_projector_d3,
    witness_wm,
    witness_wm_calibrated,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

CHECK_TOL = 1e-9

# Experimental open-destination fidelities: (projection, theta, receiver, F, dF)
ODT_TABLE_I = (
    ("10", 0.0, "a", 0.93, 0.01),
    ("10", 0.0, "b", 0.95, 0.01),
    ("01", 0.0, "a", 0.97, 0.01),
    ("01", 0.0, "b", 0.97, 0.01),
    ("10", math.pi, "a", 0.96, 0.01),
    ("10", math.pi, "b", 0.98, 0.01),
    ("01", math.pi, "a", 0.98, 0.01),
    ("01", math.pi, "b", 0.97, 0.01),
    ("10", 1.46, "a", 0.92, 0.02),
    ("10", 1.46, "b", 0.98, 0.01),
    ("01", 1.37, "a", 0.97, 0.02),
    ("01", 1.37, "b", 0.96, 0.02),
)

SIGNIFICANCE_MILESTONES = {-0.12: -1.0, -2.5: -15.0}
MOMENTS = ("jx2", "jy2", "jz2")

DEMO_STATES = {
    "bell-psi+": lambda: bell("psi+", ("a", "b")),
    "clone-mix": lambda: MixedState(RegisterLayout(("a",)),
                                    np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)),
    "plus": lambda: single_qubit(np.array([1, 1]) / math.sqrt(2), "a"),
}

PROBABILITY = Number(0.0, 1.0)
ANGLE = Number(0.0, math.pi)
GAMMA = Number(B4_GAMMA_MIN, 0.0)
DEVIATION = Number(0.0)
# |moment| <= 1e100 keeps value and value / delta finite: a nonzero delta is >= sqrt(5e-324)
MOMENT = Number(-1e100, 1e100)
# (2 + B4_GAMMA_MIN^2) * 1e300 keeps the witness error's quadrature sum a finite float
WITNESS_DEVIATION = Number(0.0, 1e150)
# theta and gamma grids: 1e4 noisy theta points hold about 0.6 GB, 1e4 b4 values take minutes
GRID_MAX = 10 ** 4
GRID_POINTS = Number(1, GRID_MAX, whole=True)
GAMMA_LIST = ListOf(GAMMA, GRID_MAX)
SHOTS = Number(1, MAX_SHOTS, whole=True)
# 1e5 trials take about 0.2 GB and 20 s a row
TRIALS = Number(MIN_TRIALS, 10 ** 5, whole=True)
# odt-table rows: twice the reference table, so at TRIALS' maximum (20 s a row,
# one row at a time) the longest accepted table finishes in about 8 minutes
ODT_ROWS = ListOf(Row((OneOf(("01", "10")), ANGLE, OneOf(RESOURCE_LABELS), PROBABILITY, DEVIATION),
                      required=3), 2 * len(ODT_TABLE_I))

# command -> (default report format, {key: (parser, default)}); a default is
# used as it stands, and null is accepted only where the default is null.
SCHEMAS = {
    "resource-check": ("json", {
        "werner_p": (PROBABILITY, None),
        "gamma_grid": (GAMMA_LIST, PAPER_GAMMAS),
    }),
    "qtc-sweep": ("csv", {
        "theta_points": (GRID_POINTS, 25),
        "theta_min": (ANGLE, 0.0),
        "theta_max": (ANGLE, math.pi),
        "p": (PROBABILITY, 1.0),
        "dephase_lambda": (PROBABILITY, 0.0),
        "p_uncertainty": (DEVIATION, 0.0),
        "phi": (Number(), 0.0),
        "port": (OneOf(RESOURCE_LABELS), "b"),
    }),
    "odt-table": ("csv", {
        "werner_p": (PROBABILITY, None),
        "dephase_lambda": (PROBABILITY, 0.0),
        "configurations": (ODT_ROWS, ODT_TABLE_I),
        "n_per_setting": (SHOTS, None),
        "trials": (TRIALS, 50),
    }),
    "witness-scan": ("csv", {
        "gammas": (GAMMA_LIST, PAPER_GAMMAS),
        "source": (OneOf(("measured", "state")), "measured"),
        **{name: (MOMENT, MEASURED_J2[name]) for name in MOMENTS},
        **{f"d_{name}": (WITNESS_DEVIATION, MEASURED_J2_ERR[name]) for name in MOMENTS},
        "werner_p": (PROBABILITY, None),
    }),
    "tomography-demo": ("json", {
        "state": (OneOf(tuple(DEMO_STATES)), "bell-psi+"),
        "n_per_setting": (SHOTS, 10000),
        "trials": (TRIALS, 50),
    }),
}


def parse_params(command: str, params: dict) -> dict:
    """Every key of `command`'s schema, typed and range-checked, or a ConfigError."""
    _, schema = SCHEMAS[command]
    unknown = sorted(set(params) - set(schema))
    if unknown:
        raise ConfigError(
            f"unknown config keys for {command}: {unknown}; allowed: {sorted(schema)}")
    typed = {}
    for key, (parse, default) in schema.items():
        value = params.get(key, default)
        typed[key] = value if value is default else parse(key, value)
    return typed


# each check kind's pass rule on (value, expected, tol)
_CHECK_RULES = {
    "eq": lambda value, expected, tol: abs(value - expected) <= tol,
    "ge": lambda value, expected, tol: value >= expected - tol,
    "le": lambda value, expected, tol: value <= expected + tol,
    "str": lambda value, expected, tol: value == expected,
    "bool": lambda value, expected, tol: bool(value),
}


def _check(name: str, value, expected, kind: str = "eq", tol: float = CHECK_TOL) -> dict:
    """One golden check's report entry, with its status under its kind's rule."""
    passed = _CHECK_RULES[kind](value, expected, tol)
    return {"name": name, "status": "pass" if passed else "FAIL", "value": value,
            "expected": expected, "kind": kind}


def _no_counts(err: MissingSettingError, n_per_setting: int) -> ConfigError:
    return ConfigError(f"n_per_setting = {n_per_setting} drew no counts for setting "
                       f"{', '.join(err.missing)}; tomography needs counts for every setting")


def _pauli_records(state, n_per_setting: int, seed: int) -> list:
    """A record per Pauli setting of the state's qubits, XYZ order; setting i at seed + i."""
    settings = ["".join(axes) for axes in itertools.product("XYZ", repeat=state.n)]
    return simulate_counts(state, settings, n_per_setting, seed=seed)


def _resource(werner_p):
    if werner_p is None:
        return dicke(4, 2, RESOURCE_LABELS), 1.0
    return werner_dicke(werner_p), werner_p


def _collective_moments(state) -> dict:
    """<Jx^2>, <Jy^2>, <Jz^2> of a four-qubit state."""
    cs = collective_spin(4)
    rho = state.density().matrix
    return {name: float(np.real(np.trace(rho @ getattr(cs, name)))) for name in MOMENTS}


def _gamma_scan(gammas, moments: dict, errors: dict, fixtures_dir) -> tuple[list, list]:
    """Rows of the collective-spin witness b4(gamma) - <Jx^2 + Jy^2 + gamma Jz^2> and its
    error over `gammas`, with a fixture check for each gamma that has a golden b4."""
    b4_fixture = load_b4_samples(fixtures_dir)
    rows, checks = [], []
    for gamma in gammas:
        b4 = biseparable_bound_result(gamma).value
        value = b4 - (moments["jx2"] + moments["jy2"] + gamma * moments["jz2"])
        delta = propagate_wcs_error(gamma, errors["jx2"], errors["jy2"], errors["jz2"])
        significance = value / delta if delta > 0 else None
        if gamma in b4_fixture:
            checks.append(_check(f"b4_fixture_match_gamma_{gamma}", b4, b4_fixture[gamma]))
        rows.append({
            "gamma": gamma,
            "b4": b4,
            "value": value,
            "delta": delta,
            "significance": significance,
            "verdict": WitnessReport.build(f"wcs_gamma_{gamma}", value, delta).verdict,
        })
    return rows, checks


def cmd_resource_check(cfg: dict, args) -> tuple:
    circuit = load_conversion_circuit(args.fixtures_dir)
    table_fixture = load_correction_table(args.fixtures_dir)

    target = dicke(4, 2, RESOURCE_LABELS)
    converted = run_circuit(xi_state(), circuit)
    state, p = _resource(cfg["werner_p"])

    checks = [
        _check("conversion_fidelity", fidelity(converted, target), 1.0, kind="ge"),
        _check("conversion_depth", circuit.depth, MAX_DEPTH, kind="le", tol=0),
    ]

    amps = np.abs(target.amplitudes)
    expected_amps = np.where(amps > 1e-12, 1 / math.sqrt(6), 0.0)
    checks.append(_check("dicke_amplitude_deviation", float(np.abs(amps - expected_amps).max()), 0.0))
    checks.append(_check("dicke_support_size", int(np.sum(amps > 1e-12)), 6, tol=0))
    checks.append(_check("physical_permutation", "".join(physical_logical_permutation()),
                         "".join(RESOURCE_LABELS), kind="str"))
    checks.append(_check("correction_table_matches_fixture",
                         derive_correction_table(target, "b") == table_fixture, True, kind="bool"))

    # closed-form golden values as functions of the Werner weight (p = 1 ideal)
    f_res = p + (1 - p) / 16
    f_proj3 = p + (1 - p) / 8
    f_pair = (p / 3 + (1 - p) / 16) / (p / 3 + (1 - p) / 4)
    wm_value = 3.25 - 0.5 * p

    checks.append(_check("resource_fidelity_vs_dicke", fidelity(state, target), f_res))
    posts = {k: project(state, "d", bit)[1] for k, bit in ((2, "0"), (1, "1"))}
    direct = {k: fidelity(post, dicke(3, k)) for k, post in posts.items()}
    checks.append(_check("projection_d0_fidelity_vs_D3k2", direct[2], f_proj3))
    checks.append(_check("projection_d1_fidelity_vs_D3k1", direct[1], f_proj3))

    pair_fids = []
    for pair in itertools.combinations(state.labels, 2):
        for pattern in ("01", "10"):
            _, rest = project(state, pair, pattern)
            pair_fids.append(fidelity(rest, bell("psi+", rest.labels)))
    checks.append(_check("pair_projection_min_fidelity_vs_psi_plus", min(pair_fids), f_pair))
    checks.append(_check("pair_projection_max_fidelity_vs_psi_plus", max(pair_fids), f_pair))

    value_trans = witness_wm().expectation(state)
    value_cal = witness_wm_calibrated().expectation(state)
    checks.append(_check("wm_transcribed_value", value_trans, wm_value))
    checks.append(_check("wm_calibrated_value", value_cal, wm_value - 3.75))

    witness_block = {}
    for name, value, note in (
            ("wm_transcribed", value_trans,
             "literal transcription; positive on every state (min eigenvalue ~2)"),
            ("wm_reconstructed", value_cal,
             "identity-shifted so the ideal-state value is -1; calibration only")):
        bound = fidelity_bound_from_wm(value)
        witness_block[name] = {"value": value, "fidelity_bound": bound.value,
                               "bound_clamped": bound.clamped, "note": note}

    d3_block = {}
    for k in (1, 2):
        value = witness_projector_d3(k).expectation(posts[k])
        bound = fidelity_bound_from_d3_witness(value)
        checks.append(_check(f"d3_k{k}_witness_value", value, -p / 3 + (1 - p) * 13 / 24))
        checks.append(_check(f"d3_k{k}_bound_tightness", bound.value, direct[k]))
        d3_block[f"k{k}"] = {"value": value, "fidelity_bound": bound.value,
                             "direct_fidelity": direct[k]}

    moments = _collective_moments(state)
    gamma_rows, gamma_checks = _gamma_scan(cfg["gamma_grid"], moments,
                                           dict.fromkeys(moments, 0.0), args.fixtures_dir)
    checks += gamma_checks

    data = {
        "checks": checks,
        "witnesses": {**witness_block, "projector_d3": d3_block},
        "collective_moments": moments,
        "gamma_scan": gamma_rows,
        "conversion_circuit": [step.to_line() for step in circuit.steps],
        "fixtures_regenerated": False,  # fixtures are only read; the key keeps the report's bytes
    }
    rows = [["check", c["name"], c["status"], c["value"], c["expected"]] for c in checks]
    rows += [["gamma-scan", row["gamma"], row["verdict"], row["value"], row["b4"]]
             for row in gamma_rows]
    header = ["row_type", "name", "status", "value", "expected"]
    return data, header, rows, all(c["status"] == "pass" for c in checks)


def cmd_qtc_sweep(cfg: dict, args) -> tuple:
    p, lam, dp = cfg["p"], cfg["dephase_lambda"], cfg["p_uncertainty"]
    phi, port = cfg["phi"], cfg["port"]
    thetas = np.linspace(cfg["theta_min"], cfg["theta_max"], cfg["theta_points"]).tolist()
    # the whole grid is one stack: one run_qtc call per resource
    ideal = run_qtc([ClientParams(theta=theta, phi=phi) for theta in thetas],
                    port=port).average_clone_fidelity
    # at weight 1 without dephasing or uncertainty the band is the ideal column
    low = high = ideal
    if (p, lam, dp) != (1.0, 0.0, 0.0):
        low, high = qtc_mixed_band(thetas, p, lam, dp, phi=phi, port=port)
    rows = []
    failures = 0
    for theta, ideal_f, low_f, high_f in zip(thetas, ideal.tolist(), low.tolist(), high.tolist()):
        theory = qtc_theory_fidelity(theta)
        if abs(ideal_f - theory) > CHECK_TOL:
            failures += 1
        rows.append([theta, theory, ideal_f, low_f, high_f])

    header = ["theta", "theory_fidelity", "ideal_fidelity", "band_low", "band_high"]
    return {"rows": [dict(zip(header, row)) for row in rows]}, header, rows, failures == 0


def cmd_odt_table(cfg: dict, args) -> tuple:
    werner_p, lam, n_per_setting = cfg["werner_p"], cfg["dephase_lambda"], cfg["n_per_setting"]
    pure = dicke(4, 2, RESOURCE_LABELS)
    resource = werner_dicke(werner_p) if werner_p is not None else pure if lam > 0.0 else None
    rows = []
    failures = 0
    for row_index, (proj, theta, receiver, *reference) in enumerate(cfg["configurations"]):
        ref_f, ref_df = (reference + [None, None])[:2]
        port = "b" if receiver != "b" else "a"
        client = ClientParams(theta=theta)
        ideal = run_odt(client, resource=pure, port=port, receiver=receiver, sodt_projection=proj)
        if abs(ideal.teleport_fidelity - 1.0) > CHECK_TOL:
            failures += 1
        noisy_f = noisy_unc = None
        if resource is not None:
            noisy_client = ClientParams(theta=theta, dephase_lambda=lam)
            noisy = run_odt(noisy_client, resource=resource, port=port,
                            receiver=receiver, sodt_projection=proj)
            noisy_f = noisy.teleport_fidelity
            if n_per_setting is not None:
                # score the receiver through simulated single-qubit tomography
                records = _pauli_records(noisy.receiver_state, n_per_setting,
                                         args.seed + 10 * row_index)
                try:
                    noisy_f, noisy_unc = fidelity_with_error(records, client_ket(client),
                                                             trials=cfg["trials"], seed=args.seed)
                except MissingSettingError as err:
                    raise _no_counts(err, n_per_setting) from None
        rows.append([proj, theta, receiver, port, ideal.teleport_fidelity,
                     ideal.success_probability, noisy_f, noisy_unc, ref_f, ref_df])

    header = ["projection", "theta", "receiver", "port", "fidelity_ideal",
              "success_probability", "fidelity_noisy", "fidelity_noisy_uncertainty",
              "reference_fidelity", "reference_uncertainty"]
    return {"rows": [dict(zip(header, row)) for row in rows]}, header, rows, failures == 0


def cmd_witness_scan(cfg: dict, args) -> tuple:
    if cfg["source"] == "measured":
        moments = {name: cfg[name] for name in MOMENTS}
        errors = {name: cfg["d_" + name] for name in MOMENTS}
    else:
        moments = _collective_moments(_resource(cfg["werner_p"])[0])
        errors = dict.fromkeys(MOMENTS, 0.0)
    rows, checks = _gamma_scan(cfg["gammas"], moments, errors, args.fixtures_dir)

    by_gamma = {row["gamma"]: row for row in rows}
    if 0.0 in by_gamma:
        checks += [_check(f"b4_monotone_gamma_{gamma}", row["b4"], by_gamma[0.0]["b4"], kind="le")
                   for gamma, row in by_gamma.items() if gamma < 0.0]
    # significance is None throughout in state mode, whose moments carry no error
    milestones = [{"gamma": gamma, "threshold": threshold,
                   "significance": by_gamma[gamma]["significance"],
                   "met": by_gamma[gamma]["significance"] <= threshold}
                  for gamma, threshold in SIGNIFICANCE_MILESTONES.items()
                  if gamma in by_gamma and by_gamma[gamma]["significance"] is not None]
    discrepancies = [
        f"gamma={m['gamma']}: significance {m['significance']:.4f} does not reach "
        f"threshold {m['threshold']}" for m in milestones if not m["met"]
    ]

    data = {
        "rows": rows,
        "checks": checks,
        "significance_milestones": milestones,
        "discrepancies": discrepancies,
    }
    header = ["gamma", "b4", "value", "delta", "significance", "verdict"]
    csv_rows = [[r[h] for h in header] for r in rows]
    csv_rows += [["# note", note, "", "", "", ""] for note in discrepancies]
    return data, header, csv_rows, all(c["status"] == "pass" for c in checks)


def cmd_tomography_demo(cfg: dict, args) -> tuple:
    name, n, trials = cfg["state"], cfg["n_per_setting"], cfg["trials"]
    state = target = DEMO_STATES[name]()

    records = _pauli_records(state, n, args.seed)
    try:
        reconstructed = tomography_linear(records, labels=state.labels)
    except MissingSettingError as err:
        raise _no_counts(err, n) from None
    point = fidelity(reconstructed, target)
    boot_mean, unc = fidelity_with_error(records, target, trials=trials, seed=args.seed)

    threshold = 0.99 if (name == "bell-psi+" and n >= 10000) else None
    # a record's setting as reports write it, its letters joined by "|" (X|Z), and its counts by outcome
    layout = [("|".join(r.setting), sorted(r.counts.items())) for r in records]
    data = {
        "state": name,
        "n_per_setting": n,
        "trials": trials,
        "fidelity": point,
        "bootstrap_mean_fidelity": boot_mean,
        "uncertainty": unc,
        "fidelity_threshold": threshold,
        "reconstructed_matrix": complex_matrix_json(reconstructed.matrix),
        "counts": [{"setting": key, "counts": dict(counts), "total_requested": r.total_requested,
                    "seed": r.seed, "exact": r.exact} for r, (key, counts) in zip(records, layout)],
    }
    rows = [[key, outcome, repr(count)] for key, counts in layout for outcome, count in counts]
    rows.append(["fidelity", point, unc])
    return data, ["setting", "outcome", "count"], rows, threshold is None or point >= threshold


COMMANDS = {
    "resource-check": cmd_resource_check,
    "qtc-sweep": cmd_qtc_sweep,
    "odt-table": cmd_odt_table,
    "witness-scan": cmd_witness_scan,
    "tomography-demo": cmd_tomography_demo,
}


def run_command(command: str, params: dict, args) -> tuple[str, int]:
    """Run `command` on the config `params` and render its report, which embeds
    `params` as written (a count given as 5.0 stays 5.0), not the parsed values."""
    data, header, rows, passed = COMMANDS[command](parse_params(command, params), args)
    fmt = args.format or SCHEMAS[command][0]
    meta = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "format": fmt,
        "config": dict(sorted(params.items())),
    }
    if fmt == "json":
        text = render_json(meta, {**data, "status": "pass" if passed else "FAIL"})
    else:
        text = render_csv(meta, header, rows)
    return text, EXIT_OK if passed else EXIT_CHECK_FAILED


@dataclass(frozen=True)
class Invocation:
    """One command line: the command and its shared flags."""

    command: str
    config: Path | None = None
    seed: int = 0
    out: Path | None = None
    format: str | None = None
    fixtures_dir: Path | None = None


def _report_format(value: str) -> str:
    if value not in ("csv", "json"):
        raise ValueError(value)
    return value


# flag -> (Invocation field, parser of its value, the value as usage writes it, help)
_FLAGS = {
    "--config": ("config", Path, "PATH", "key=value or JSON config file"),
    "--seed": ("seed", int, "INT", "non-negative seed of every random draw (default 0)"),
    "--out": ("out", Path, "PATH", "write the report here instead of stdout"),
    "--format": ("format", _report_format, "csv|json", "report format (default: the command's own)"),
    "--fixtures-dir": ("fixtures_dir", Path, "PATH", "override the packaged fixtures directory"),
}

USAGE = "\n".join([
    "usage: dickesim COMMAND " + " ".join(f"[{flag} {meta}]" for flag, (_, _, meta, _) in _FLAGS.items()),
    "",
    "Dicke-state networking protocol simulator.",
    "",
    "commands: " + ", ".join(COMMANDS),
    "",
    *(f"  {flag + ' ' + meta:<20} {text}" for flag, (_, _, meta, text) in _FLAGS.items()),
    f"  {'-h, --help':<20} print this help and exit",
    "",
])


def parse_args(argv: Sequence[str]) -> Invocation | None:
    """`argv` as an Invocation, or None when it asks for help (-h or --help).

    It holds exactly one command of COMMANDS, and flags of _FLAGS written
    `--flag value` or `--flag=value`, before or after the command; the last of a
    repeated flag wins. Flag names are exact, never abbreviated, and a value that
    starts with `--` is written `--flag=value`. Any other spelling is a ConfigError."""
    commands, values = [], {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-"):
            commands.append(token)
            continue
        flag, equals, value = token.partition("=")
        if flag not in _FLAGS:
            raise ConfigError(f"unknown flag {flag!r}; flags: {', '.join(_FLAGS)}, --help")
        if not equals:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"{flag} needs a value")
        field, parse, meta, _ = _FLAGS[flag]
        try:
            values[field] = parse(value)
        except ValueError:
            raise ConfigError(f"{flag} takes {meta}, got {value!r}") from None
    if len(commands) != 1 or commands[0] not in COMMANDS:
        found = f"got {', '.join(map(repr, commands))}" if commands else "got none"
        raise ConfigError(f"expected one command of {', '.join(COMMANDS)}; {found}")
    return Invocation(commands[0], **values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(USAGE)
            return EXIT_OK
        if args.seed < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        params = {}
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config file not found: {args.config}")
            params = parse_config_text(args.config.read_text(encoding="utf-8"))
        text, code = run_command(args.command, params, args)
        if args.out is not None:
            args.out.write_text(text)
        else:
            sys.stdout.write(text)
    # every path read or written comes from the command line (--config, --out, --fixtures-dir)
    except (ConfigError, OSError, UnicodeDecodeError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FixtureError as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return code


def entry_point() -> None:
    raise SystemExit(main())
