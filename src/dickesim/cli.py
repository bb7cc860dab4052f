"""Scenario-driven command line: resource-check, qtc-sweep, odt-table,
witness-scan, tomography-demo.

Every command is deterministic under fixed (config, seed): reports embed the
effective config, the seed, and the package version, and never timestamps.
Exit codes: 0 all golden checks pass, 1 check failure, 2 config error.
"""
from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .circuits import run_circuit
from .fixtures import (
    FixtureError,
    load_b4_samples,
    load_conversion_circuit,
    load_correction_table,
    regenerate_fixtures,
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
    complex_matrix_json,
    parse_config_text,
    render_csv,
    render_json,
    validate_keys,
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
from .tomography import MeasurementSetting, fidelity_with_error, simulate_counts, tomography_linear
from .witnesses import (
    B4_GAMMA_MIN,
    MEASURED_J2,
    MEASURED_J2_ERR,
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


class Check:
    """One golden check with its observed and expected values."""

    def __init__(self, name: str, value, expected, kind: str = "eq", tol: float = CHECK_TOL):
        self.name = name
        self.value = value
        self.expected = expected
        self.kind = kind
        self.tol = tol
        if kind == "eq":
            self.passed = abs(value - expected) <= tol
        elif kind == "ge":
            self.passed = value >= expected - tol
        elif kind == "le":
            self.passed = value <= expected + tol
        elif kind == "str":
            self.passed = value == expected
        elif kind == "bool":
            self.passed = bool(value)
        else:
            raise ValueError(f"unknown check kind {kind!r}")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": "pass" if self.passed else "FAIL",
            "value": self.value,
            "expected": self.expected,
            "kind": self.kind,
        }


def _meta(command: str, seed: int, fmt: str, params: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "seed": seed,
        "format": fmt,
        "config": dict(sorted(params.items())),
    }


def _resource(werner_p):
    if werner_p is None:
        return dicke(4, 2, RESOURCE_LABELS), 1.0
    return werner_dicke(float(werner_p)), float(werner_p)


def _gamma_list(key: str, values) -> list[float]:
    """Config gammas as floats, each inside the range b4(gamma) is defined on."""
    try:
        gammas = [float(g) for g in values]
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}") from None
    for gamma in gammas:
        if not B4_GAMMA_MIN <= gamma <= 0.0:
            raise ConfigError(f"{key}: gamma={gamma} outside [{B4_GAMMA_MIN:g}, 0]")
    return gammas


def cmd_resource_check(params: dict, args) -> tuple[str, int]:
    validate_keys(params, ("werner_p", "gamma_grid", "max_depth"), "resource-check")
    werner_p = params.get("werner_p")
    gammas = _gamma_list("gamma_grid", params.get("gamma_grid", [0.0, -0.12, -1.0, -2.5]))
    max_depth = int(params.get("max_depth", 8))

    regen_summary = None
    if args.regen_fixtures:
        regen_summary = regenerate_fixtures(args.fixtures_dir)

    circuit = load_conversion_circuit(args.fixtures_dir)
    table_fixture = load_correction_table(args.fixtures_dir)
    b4_fixture = load_b4_samples(args.fixtures_dir)

    target = dicke(4, 2, RESOURCE_LABELS)
    converted = run_circuit(xi_state(), circuit)
    state, p = _resource(werner_p)

    checks = [
        Check("conversion_fidelity", fidelity(converted, target), 1.0, kind="ge"),
        Check("conversion_depth", circuit.depth, max_depth, kind="le", tol=0),
    ]

    amps = np.abs(target.amplitudes)
    expected_amps = np.where(amps > 1e-12, 1 / math.sqrt(6), 0.0)
    checks.append(Check("dicke_amplitude_deviation", float(np.abs(amps - expected_amps).max()), 0.0))
    checks.append(Check("dicke_support_size", int(np.sum(amps > 1e-12)), 6, tol=0))
    checks.append(Check("physical_permutation", "".join(physical_logical_permutation()),
                        "".join(RESOURCE_LABELS), kind="str"))
    checks.append(Check("correction_table_matches_fixture",
                        derive_correction_table(target, "b") == table_fixture, True, kind="bool"))

    # closed-form golden values as functions of the Werner weight (p = 1 ideal)
    f_res = p + (1 - p) / 16
    f_proj3 = p + (1 - p) / 8
    f_pair = (p / 3 + (1 - p) / 16) / (p / 3 + (1 - p) / 4)
    wm_value = 3.25 - 0.5 * p

    checks.append(Check("resource_fidelity_vs_dicke", fidelity(state, target), f_res))
    _, post0 = project(state, "d", "0")
    _, post1 = project(state, "d", "1")
    checks.append(Check("projection_d0_fidelity_vs_D3k2",
                        fidelity(post0, dicke(3, 2)), f_proj3))
    checks.append(Check("projection_d1_fidelity_vs_D3k1",
                        fidelity(post1, dicke(3, 1)), f_proj3))

    pair_fids = []
    labels = state.labels
    for i in range(4):
        for j in range(i + 1, 4):
            for pattern in ("01", "10"):
                _, rest = project(state, (labels[i], labels[j]), pattern)
                pair_fids.append(fidelity(rest, bell("psi+", rest.labels)))
    checks.append(Check("pair_projection_min_fidelity_vs_psi_plus", min(pair_fids), f_pair))
    checks.append(Check("pair_projection_max_fidelity_vs_psi_plus", max(pair_fids), f_pair))

    wm = witness_wm()
    wm_cal = witness_wm_calibrated()
    value_trans = wm.expectation(state)
    value_cal = wm_cal.expectation(state)
    checks.append(Check("wm_transcribed_value", value_trans, wm_value))
    checks.append(Check("wm_calibrated_value", value_cal, wm_value - 3.75))

    witness_block = {
        "wm_transcribed": {
            "value": value_trans,
            "fidelity_bound": fidelity_bound_from_wm(value_trans).value,
            "bound_clamped": fidelity_bound_from_wm(value_trans).clamped,
            "note": "literal transcription; positive on every state (min eigenvalue ~2)",
        },
        "wm_reconstructed": {
            "value": value_cal,
            "fidelity_bound": fidelity_bound_from_wm(value_cal).value,
            "bound_clamped": fidelity_bound_from_wm(value_cal).clamped,
            "note": "identity-shifted so the ideal-state value is -1; calibration only",
        },
    }

    d3_block = {}
    for k, post in ((1, post1), (2, post0)):
        w = witness_projector_d3(k)
        value = w.expectation(post)
        bound = fidelity_bound_from_d3_witness(value)
        direct = fidelity(post, dicke(3, k))
        checks.append(Check(f"d3_k{k}_witness_value", value, -p / 3 + (1 - p) * 13 / 24))
        checks.append(Check(f"d3_k{k}_bound_tightness", bound.value, direct))
        d3_block[f"k{k}"] = {"value": value, "fidelity_bound": bound.value,
                             "direct_fidelity": direct}

    cs = collective_spin(4)
    jx2 = cs.jx.matrix @ cs.jx.matrix
    jy2 = cs.jy.matrix @ cs.jy.matrix
    jz2 = cs.jz.matrix @ cs.jz.matrix
    rho = state.density().matrix
    moments = {name: float(np.real(np.trace(rho @ op)))
               for name, op in (("jx2", jx2), ("jy2", jy2), ("jz2", jz2))}

    gamma_rows = []
    for gamma in gammas:
        result = biseparable_bound_result(gamma)
        value = result.value - (moments["jx2"] + moments["jy2"] + gamma * moments["jz2"])
        if gamma in b4_fixture:
            checks.append(Check(f"b4_fixture_match_gamma_{gamma}", result.value,
                                b4_fixture[gamma]))
        gamma_rows.append({
            "gamma": gamma,
            "b4": result.value,
            "value": value,
            "delta": 0.0,
            "significance": None,
            "verdict": "multipartite-entangled" if value < 0 else "inconclusive",
        })

    failures = [c for c in checks if not c.passed]
    data = {
        "checks": [c.to_dict() for c in checks],
        "witnesses": {**witness_block, "projector_d3": d3_block},
        "collective_moments": moments,
        "gamma_scan": gamma_rows,
        "conversion_circuit": [step.to_line() for step in circuit.steps],
        "fixtures_regenerated": regen_summary is not None,
        "status": "pass" if not failures else "FAIL",
    }
    meta = _meta("resource-check", args.seed, args.format or "json", params)
    if (args.format or "json") == "json":
        text = render_json(meta, data)
    else:
        rows = [["check", c.name, c.to_dict()["status"], c.value, c.expected] for c in checks]
        rows += [["gamma-scan", row["gamma"], row["verdict"], row["value"], row["b4"]]
                 for row in gamma_rows]
        text = render_csv(meta, ["row_type", "name", "status", "value", "expected"], rows)
    return text, EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_qtc_sweep(params: dict, args) -> tuple[str, int]:
    validate_keys(params, ("theta_points", "theta_min", "theta_max", "p",
                           "dephase_lambda", "p_uncertainty", "phi", "port"), "qtc-sweep")
    points = int(params.get("theta_points", 25))
    if points < 1:
        raise ConfigError("theta_points must be at least 1")
    theta_min = float(params.get("theta_min", 0.0))
    theta_max = float(params.get("theta_max", math.pi))
    p = float(params.get("p", 1.0))
    lam = float(params.get("dephase_lambda", 0.0))
    dp = float(params.get("p_uncertainty", 0.0))
    phi = float(params.get("phi", 0.0))
    port = str(params.get("port", "b"))

    thetas = np.linspace(theta_min, theta_max, points)
    rows = []
    failures = 0
    for theta in thetas:
        theory = qtc_theory_fidelity(float(theta))
        ideal = run_qtc(ClientParams(theta=float(theta), phi=phi), port=port).average_clone_fidelity
        low, high = qtc_mixed_band(float(theta), p, lam, dp, phi=phi, port=port)
        if abs(ideal - theory) > CHECK_TOL:
            failures += 1
        if p == 1.0 and lam == 0.0 and dp == 0.0 and not (low - CHECK_TOL <= theory <= high + CHECK_TOL):
            failures += 1
        rows.append([float(theta), theory, ideal, low, high])

    meta = _meta("qtc-sweep", args.seed, args.format or "csv", params)
    header = ["theta", "theory_fidelity", "ideal_fidelity", "band_low", "band_high"]
    if (args.format or "csv") == "csv":
        text = render_csv(meta, header, rows)
    else:
        text = render_json(meta, {"rows": [dict(zip(header, row)) for row in rows],
                                  "status": "pass" if not failures else "FAIL"})
    return text, EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_odt_table(params: dict, args) -> tuple[str, int]:
    validate_keys(params, ("werner_p", "dephase_lambda", "configurations",
                           "n_per_setting", "trials"), "odt-table")
    werner_p = params.get("werner_p")
    lam = float(params.get("dephase_lambda", 0.0))
    n_per_setting = params.get("n_per_setting")
    trials = int(params.get("trials", 50))
    configs = params.get("configurations")
    if configs is None:
        configs = [[proj, theta, recv, f, df] for proj, theta, recv, f, df in ODT_TABLE_I]

    rows = []
    failures = 0
    for row_index, entry in enumerate(configs):
        proj, theta, receiver = str(entry[0]), float(entry[1]), str(entry[2])
        ref_f = float(entry[3]) if len(entry) > 3 else None
        ref_df = float(entry[4]) if len(entry) > 4 else None
        port = "b" if receiver != "b" else "a"
        client = ClientParams(theta=theta)
        ideal = run_odt(client, port=port, receiver=receiver, sodt_projection=proj)
        if abs(ideal.teleport_fidelity - 1.0) > CHECK_TOL:
            failures += 1
        noisy_f = noisy_unc = None
        if werner_p is not None or lam > 0.0:
            noisy_client = ClientParams(theta=theta, dephase_lambda=lam)
            resource = werner_dicke(float(werner_p)) if werner_p is not None else None
            noisy = run_odt(noisy_client, resource=resource, port=port,
                            receiver=receiver, sodt_projection=proj)
            noisy_f = noisy.teleport_fidelity
            if n_per_setting is not None:
                # score the receiver through simulated single-qubit tomography
                target = client_ket(client)
                settings = [MeasurementSetting((axis,)) for axis in "XYZ"]
                records = [simulate_counts(noisy.receiver_state, s, int(n_per_setting),
                                           seed=args.seed + 10 * row_index + i)
                           for i, s in enumerate(settings)]
                noisy_f, noisy_unc = fidelity_with_error(records, target,
                                                         trials=trials, seed=args.seed)
        rows.append([proj, theta, receiver, port, ideal.teleport_fidelity,
                     ideal.success_probability, noisy_f, noisy_unc, ref_f, ref_df])

    meta = _meta("odt-table", args.seed, args.format or "csv", params)
    header = ["projection", "theta", "receiver", "port", "fidelity_ideal",
              "success_probability", "fidelity_noisy", "fidelity_noisy_uncertainty",
              "reference_fidelity", "reference_uncertainty"]
    if (args.format or "csv") == "csv":
        text = render_csv(meta, header, rows)
    else:
        text = render_json(meta, {"rows": [dict(zip(header, row)) for row in rows],
                                  "status": "pass" if not failures else "FAIL"})
    return text, EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_witness_scan(params: dict, args) -> tuple[str, int]:
    allowed = ("gammas", "gamma_min", "gamma_max", "gamma_points", "source",
               "jx2", "jy2", "jz2", "d_jx2", "d_jy2", "d_jz2", "werner_p")
    validate_keys(params, allowed, "witness-scan")
    source = str(params.get("source", "measured"))
    if source not in ("measured", "state"):
        raise ConfigError(f"source must be 'measured' or 'state', got {source!r}")
    if "gammas" in params:
        gammas = _gamma_list("gammas", params["gammas"])
    elif "gamma_points" in params or "gamma_min" in params or "gamma_max" in params:
        ends = _gamma_list("gamma_min/gamma_max",
                           [params.get("gamma_min", -3.0), params.get("gamma_max", 0.0)])
        gammas = [float(g) for g in np.linspace(*ends, int(params.get("gamma_points", 10)))]
    else:
        gammas = [0.0, -0.12, -1.0, -2.5]

    if source == "measured":
        moments = {
            "jx2": float(params.get("jx2", MEASURED_J2["jx2"])),
            "jy2": float(params.get("jy2", MEASURED_J2["jy2"])),
            "jz2": float(params.get("jz2", MEASURED_J2["jz2"])),
        }
        errors = {
            "jx2": float(params.get("d_jx2", MEASURED_J2_ERR["jx2"])),
            "jy2": float(params.get("d_jy2", MEASURED_J2_ERR["jy2"])),
            "jz2": float(params.get("d_jz2", MEASURED_J2_ERR["jz2"])),
        }
    else:
        state, _ = _resource(params.get("werner_p"))
        cs = collective_spin(4)
        rho = state.density().matrix
        moments = {
            "jx2": float(np.real(np.trace(rho @ cs.jx.matrix @ cs.jx.matrix))),
            "jy2": float(np.real(np.trace(rho @ cs.jy.matrix @ cs.jy.matrix))),
            "jz2": float(np.real(np.trace(rho @ cs.jz.matrix @ cs.jz.matrix))),
        }
        errors = {"jx2": 0.0, "jy2": 0.0, "jz2": 0.0}

    b4_fixture = load_b4_samples(args.fixtures_dir)
    checks = []
    rows = []
    b4_values = {}
    for gamma in gammas:
        result = biseparable_bound_result(gamma)
        b4_values[gamma] = result.value
        value = result.value - (moments["jx2"] + moments["jy2"] + gamma * moments["jz2"])
        delta = propagate_wcs_error(gamma, errors["jx2"], errors["jy2"], errors["jz2"])
        significance = value / delta if delta > 0 else None
        if gamma in b4_fixture:
            checks.append(Check(f"b4_fixture_match_gamma_{gamma}", result.value, b4_fixture[gamma]))
        rows.append({
            "gamma": gamma,
            "b4": result.value,
            "value": value,
            "delta": delta,
            "significance": significance,
            "verdict": "multipartite-entangled"
                       if (significance is not None and significance < -1.0) or
                          (significance is None and value < 0)
                       else "inconclusive",
        })

    if 0.0 in b4_values:
        for gamma, b4 in b4_values.items():
            if gamma < 0.0:
                checks.append(Check(f"b4_monotone_gamma_{gamma}", b4, b4_values[0.0], kind="le"))

    milestones = []
    if source == "measured":
        for gamma, threshold in SIGNIFICANCE_MILESTONES.items():
            row = next((r for r in rows if r["gamma"] == gamma), None)
            if row is None or row["significance"] is None:
                continue
            milestones.append({
                "gamma": gamma,
                "threshold": threshold,
                "significance": row["significance"],
                "met": row["significance"] <= threshold,
            })
    discrepancies = [
        f"gamma={m['gamma']}: significance {m['significance']:.4f} does not reach "
        f"threshold {m['threshold']}" for m in milestones if not m["met"]
    ]

    failures = [c for c in checks if not c.passed]
    meta = _meta("witness-scan", args.seed, args.format or "csv", params)
    if (args.format or "csv") == "csv":
        header = ["gamma", "b4", "value", "delta", "significance", "verdict"]
        csv_rows = [[r[h] for h in header] for r in rows]
        for note in discrepancies:
            csv_rows.append(["# note", note, "", "", "", ""])
        text = render_csv(meta, header, csv_rows)
    else:
        text = render_json(meta, {
            "rows": rows,
            "checks": [c.to_dict() for c in checks],
            "significance_milestones": milestones,
            "discrepancies": discrepancies,
            "status": "pass" if not failures else "FAIL",
        })
    return text, EXIT_OK if not failures else EXIT_CHECK_FAILED


def _demo_state(name: str):
    if name == "bell-psi+":
        state = bell("psi+", ("a", "b"))
        return state, state
    if name == "clone-mix":
        mat = np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(complex)
        state = MixedState(RegisterLayout(("a",)), mat)
        return state, state
    if name == "plus":
        state = single_qubit(np.array([1, 1]) / math.sqrt(2), "a")
        return state, state
    raise ConfigError(f"unknown demo state {name!r}; use bell-psi+, clone-mix, or plus")


def cmd_tomography_demo(params: dict, args) -> tuple[str, int]:
    validate_keys(params, ("state", "n_per_setting", "trials"), "tomography-demo")
    name = str(params.get("state", "bell-psi+"))
    n = int(params.get("n_per_setting", 10000))
    trials = int(params.get("trials", 50))
    state, target = _demo_state(name)

    settings = [MeasurementSetting(axes) for axes in itertools.product("XYZ", repeat=state.n)]
    records = [simulate_counts(state, s, n, seed=args.seed + i)
               for i, s in enumerate(settings)]
    reconstructed = tomography_linear(records, labels=state.labels)
    point = fidelity(reconstructed, target)
    boot_mean, unc = fidelity_with_error(records, target, trials=trials, seed=args.seed)

    matrix = complex_matrix_json(reconstructed.matrix)
    threshold = 0.99 if (name == "bell-psi+" and n >= 10000) else None
    passed = point >= threshold if threshold is not None else True

    meta = _meta("tomography-demo", args.seed, args.format or "json", params)
    data = {
        "state": name,
        "n_per_setting": n,
        "trials": trials,
        "fidelity": point,
        "bootstrap_mean_fidelity": boot_mean,
        "uncertainty": unc,
        "fidelity_threshold": threshold,
        "reconstructed_matrix": matrix,
        "counts": [r.to_json_dict() for r in records],
        "status": "pass" if passed else "FAIL",
    }
    if (args.format or "json") == "json":
        text = render_json(meta, data)
    else:
        rows = []
        for record in records:
            for setting, outcome, count in record.to_csv_rows():
                rows.append([setting, outcome, count])
        rows.append(["fidelity", point, unc])
        text = render_csv(meta, ["setting", "outcome", "count"], rows)
    return text, EXIT_OK if passed else EXIT_CHECK_FAILED


COMMANDS = {
    "resource-check": cmd_resource_check,
    "qtc-sweep": cmd_qtc_sweep,
    "odt-table": cmd_odt_table,
    "witness-scan": cmd_witness_scan,
    "tomography-demo": cmd_tomography_demo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesim",
        description="Dicke-state networking protocol simulator")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", type=Path, default=None, help="key=value or JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--regen-fixtures", action="store_true",
                        help="recompute golden fixtures before running")
    parser.add_argument("--fixtures-dir", type=Path, default=None,
                        help="override the packaged fixtures directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        params = {}
        if args.config is not None:
            if not args.config.exists():
                raise ConfigError(f"config file not found: {args.config}")
            params = parse_config_text(args.config.read_text())
        text, code = COMMANDS[args.command](params, args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FixtureError as err:
        print(f"fixture error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return code


def entry_point() -> None:
    raise SystemExit(main())
