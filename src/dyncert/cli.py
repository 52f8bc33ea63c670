"""Command-line front end: orchestration and bit-stable report emission.

Exit codes: 0 completed (PASS or pure data), 1 completed with FAIL verdict,
2 configuration error, 3 runtime failure (guard, integration, a pole or
domain error in an expression).  Reports are deterministic for a fixed
(config, seed, version); wall time goes to stderr so the written artifact
is byte-stable.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time

import click
import numpy as np

from . import __version__, catalog
from .certify import (CAVEAT, Tolerances, certify_involution,
                      certify_structure)
from .constructions import lift_structure
from .core import (DomainError, IntegrabilityStructure, RegionSamplingError,
                   SamplingRegion)
from .dynamics import (ConvergenceError, NonMonotoneMapError, compute_orbit,
                       estimate_translation_vector, find_periodic_points,
                       level_set_drift, lyapunov_spectrum, rotation_number)
from .expressions import ExpressionError, structure_from_dict
from .jets import DerivativeError
from .numerics import IntegrationError, IntegratorConfig

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_report(payload: dict, output: str | None, started: float):
    report = {
        "version": __version__,
        "config": payload.pop("config"),
        **payload,
        "wall_time_ms": None,  # timing on stderr keeps reports byte-stable
    }
    text = json.dumps(_json_ready(report), indent=2) + "\n"
    if output:
        with open(output, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(f"wall_time_ms={int((time.monotonic() - started) * 1000)}\n")


def _write_csv(rows, header, output: str | None):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt_float(v) if isinstance(v, (int, float)) else v
                         for v in row])
    text = buf.getvalue()
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_params(param_list) -> dict:
    out = {}
    for item in param_list:
        if "=" not in item:
            raise ConfigError(f"--param expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_x0(text: str):
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as err:
        raise ConfigError(f"bad --x0 value {text!r}") from err


def _parse_times(text: str):
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as err:
        raise ConfigError(f"bad --flow-times value {text!r}") from err


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _resolve(ctx_params: dict, config_path: str | None) -> dict:
    """Merge a config file under explicitly provided flags."""
    merged = dict(ctx_params)
    if config_path:
        file_cfg = _load_config_file(config_path)
        for key, value in file_cfg.items():
            key = key.replace("-", "_")
            if merged.get(key) is None or merged.get(key) in ((), []):
                merged[key] = value
    return merged


def _build_target(map_name, params, structure_file):
    if not map_name:
        raise ConfigError("--map is required")
    try:
        f, s, region = catalog.build(map_name, **params)
    except (catalog.ParameterError, TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err
    if structure_file:
        try:
            with open(structure_file) as fh:
                s = structure_from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, ExpressionError) as err:
            raise ConfigError(f"bad structure file: {err}") from err
        if s.dim != f.dim:
            raise ConfigError(
                f"structure dimension {s.dim} does not match map "
                f"dimension {f.dim}")
    return f, s, region


def _config_dict(command: str, **kwargs) -> dict:
    cfg = {"command": command}
    for key in sorted(kwargs):
        value = kwargs[key]
        if value is None:
            continue
        cfg[key] = _json_ready(value)
    return cfg


@click.group()
@click.version_option(__version__)
def main():
    """Certify integrability structures and gather dynamical evidence for
    catalog maps."""


def _run_guarded(fn):
    try:
        code = fn()
    except ConfigError as err:
        _emit_error("config", str(err))
        sys.exit(EXIT_CONFIG)
    except (DomainError, IntegrationError, RegionSamplingError,
            ConvergenceError, NonMonotoneMapError, DerivativeError,
            ArithmeticError) as err:
        _emit_error("runtime", str(err))
        sys.exit(EXIT_RUNTIME)
    sys.exit(code)


_map_opt = click.option("--map", "map_name", default=None,
                        help="catalog map name")
_param_opt = click.option("--param", "params", multiple=True,
                          help="map parameter key=value (repeatable)")
_seed_opt = click.option("--seed", type=int, default=None,
                         help="sampling seed (default 42)")
_samples_opt = click.option("--samples", type=int, default=None,
                            help="sample count (default 1000)")
_output_opt = click.option("--output", "-o", default=None,
                           help="write the report to this path")
_config_opt = click.option("--config", "config_path", default=None,
                           help="JSON config file merged under flags")


def _tol_from(merged) -> Tolerances:
    return Tolerances(
        algebraic_tol=float(merged.get("algebraic_tol") or 1e-9),
        flow_tol=float(merged.get("flow_tol") or 1e-7),
        rank_threshold=float(merged.get("rank_threshold") or 1e-8),
        ae_fraction=float(merged.get("ae_fraction") or 0.99),
    )


@main.command("list")
@_output_opt
def list_cmd(output):
    """List catalog entries and their parameter schemas as JSON."""

    def run():
        started = time.monotonic()
        _write_report({"config": _config_dict("list"),
                       "entries": catalog.list_entries(),
                       "verdict": None,
                       "caveat": CAVEAT}, output, started)
        return EXIT_OK

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@_samples_opt
@_seed_opt
@click.option("--flow-times", default=None,
              help="comma-separated flow spot-check times (default -1,0.5,1)")
@click.option("--algebraic-tol", type=float, default=None)
@click.option("--flow-tol", type=float, default=None)
@click.option("--structure-file", default=None,
              help="JSON structure with expression fields/integrals")
@_output_opt
@_config_opt
def certify(map_name, params, samples, seed, flow_times, algebraic_tol,
            flow_tol, structure_file, output, config_path):
    """Certify a claimed structure against a map at sampled points."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "samples": samples, "seed": seed,
                           "flow_times": flow_times,
                           "algebraic_tol": algebraic_tol,
                           "flow_tol": flow_tol,
                           "structure_file": structure_file}, config_path)
        p = _parse_params(merged["params"] or [])
        f, s, region = _build_target(merged["map_name"], p,
                                     merged.get("structure_file"))
        if s is None:
            raise ConfigError(
                f"map {merged['map_name']} ships no structure; supply "
                "--structure-file")
        times = _parse_times(merged["flow_times"]) \
            if merged.get("flow_times") else (-1.0, 0.5, 1.0)
        tol = _tol_from(merged)
        n_samples = int(merged.get("samples") or 1000)
        run_seed = int(merged["seed"]) if merged.get("seed") is not None else 42
        report = certify_structure(
            f, s, region, tol=tol, flow_times=times, samples=n_samples,
            seed=run_seed, map_name=merged["map_name"], parameters=p)
        payload = {
            "config": _config_dict("certify", map=merged["map_name"],
                                   params=p, samples=n_samples,
                                   seed=run_seed, flow_times=list(times)),
            "report": report.to_dict(),
            "verdict": report.verdict,
            "caveat": CAVEAT,
        }
        if (report.verdict == "FAIL" and merged["map_name"] == "lyness"
                and s.m >= 1):
            variants = catalog.lyness_symmetry_variants(
                int(p.get("n", 3)), float(p.get("a", 1.0)), seed=run_seed)
            payload["variant_search"] = [
                {"variant": desc, "max_residual": score}
                for desc, score in variants[:10]
            ]
        _write_report(payload, output, started)
        return EXIT_OK if report.verdict == "PASS" else EXIT_FAIL

    _run_guarded(run)


@main.command("lift-certify")
@_map_opt
@_param_opt
@_samples_opt
@_seed_opt
@click.option("--momentum-box", type=float, default=1.0,
              help="half-width of the momentum sampling box")
@_output_opt
@_config_opt
def lift_certify(map_name, params, samples, seed, momentum_box, output,
                 config_path):
    """Cotangent-lift a map and certify the lifted integral family."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "samples": samples, "seed": seed,
                           "momentum_box": momentum_box}, config_path)
        p = _parse_params(merged["params"] or [])
        f, s, region = _build_target(merged["map_name"], p, None)
        if s is None:
            s = IntegrabilityStructure(dim=f.dim)
        lifted, integrals = lift_structure(f, s)
        half = float(merged.get("momentum_box") or 1.0)
        box = tuple(region.box) + tuple((-half, half) for _ in range(f.dim))
        guard = None
        if region.guard is not None:
            guard = lambda z: region.guard(list(z[:f.dim]))
        lifted_region = SamplingRegion(box=box, guard=guard,
                                       rng_seed=region.rng_seed)
        n_samples = int(merged.get("samples") or 1000)
        run_seed = int(merged["seed"]) if merged.get("seed") is not None else 42
        report = certify_involution(
            lifted, integrals, lifted_region,
            samples=n_samples, seed=run_seed,
            map_name=merged["map_name"] + "_lift", parameters=p)
        _write_report({
            "config": _config_dict("lift-certify", map=merged["map_name"],
                                   params=p, samples=n_samples,
                                   seed=run_seed, momentum_box=half),
            "report": report.to_dict(),
            "verdict": report.verdict,
            "caveat": CAVEAT,
        }, output, started)
        return EXIT_OK if report.verdict == "PASS" else EXIT_FAIL

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@click.option("--x0", required=True, help="comma-separated start point")
@click.option("-N", "n_steps", type=int, default=10000)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
@_output_opt
@_config_opt
def orbit(map_name, params, x0, n_steps, fmt, output, config_path):
    """Compute an orbit (one row per iterate in CSV mode)."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "x0": x0, "n_steps": n_steps}, config_path)
        p = _parse_params(merged["params"] or [])
        f, _, _ = _build_target(merged["map_name"], p, None)
        start = _parse_x0(merged["x0"])
        if len(start) != f.dim:
            raise ConfigError(f"--x0 has dimension {len(start)}, map needs "
                              f"{f.dim}")
        orb = compute_orbit(f, start, int(merged["n_steps"]))
        if fmt == "csv":
            header = ["k"] + [f"x{i + 1}" for i in range(f.dim)]
            _write_csv([(k, *pt) for k, pt in enumerate(orb.points)],
                       header, output)
        else:
            _write_report({
                "config": _config_dict("orbit", map=merged["map_name"],
                                       params=p, x0=start,
                                       N=int(merged["n_steps"])),
                "points": [list(pt) for pt in orb.points],
                "guard_failures": orb.guard_failures,
                "verdict": None,
                "caveat": CAVEAT,
            }, output, started)
        return EXIT_OK

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@click.option("--x0", required=True)
@click.option("-N", "n_steps", type=int, default=10000)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json")
@_output_opt
@_config_opt
def lyapunov(map_name, params, x0, n_steps, fmt, output, config_path):
    """Lyapunov spectrum along an orbit (one row per exponent in CSV)."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "x0": x0, "n_steps": n_steps}, config_path)
        p = _parse_params(merged["params"] or [])
        f, _, _ = _build_target(merged["map_name"], p, None)
        start = _parse_x0(merged["x0"])
        spectrum = lyapunov_spectrum(f, start, int(merged["n_steps"]))
        if fmt == "csv":
            _write_csv([(i + 1, v) for i, v in enumerate(spectrum)],
                       ["index", "exponent"], output)
        else:
            _write_report({
                "config": _config_dict("lyapunov", map=merged["map_name"],
                                       params=p, x0=start,
                                       N=int(merged["n_steps"])),
                "exponents": [float(v) for v in spectrum],
                "verdict": None,
                "caveat": CAVEAT,
            }, output, started)
        return EXIT_OK

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@click.option("--x0", default="0.0")
@click.option("-N", "n_steps", type=int, default=10000)
@click.option("--windows", type=int, default=4)
@_output_opt
@_config_opt
def rotation(map_name, params, x0, n_steps, windows, output, config_path):
    """Rotation number of a 1-D circle map."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "x0": x0, "n_steps": n_steps,
                           "windows": windows}, config_path)
        p = _parse_params(merged["params"] or [])
        f, _, _ = _build_target(merged["map_name"], p, None)
        start = _parse_x0(merged["x0"])
        est = rotation_number(f, start[0], int(merged["n_steps"]),
                              int(merged["windows"]))
        _write_report({
            "config": _config_dict("rotation", map=merged["map_name"],
                                   params=p, x0=start,
                                   N=int(merged["n_steps"]),
                                   windows=int(merged["windows"])),
            "rotation_number": est.value,
            "window_estimates": list(est.window_estimates),
            "dispersion": est.dispersion,
            "verdict": None,
            "caveat": CAVEAT,
        }, output, started)
        return EXIT_OK

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@click.option("-k", "period", type=int, default=1,
              help="iterate whose fixed points are sought")
@click.option("--seeds", type=int, default=100)
@_seed_opt
@_output_opt
@_config_opt
def periodic(map_name, params, period, seeds, seed, output, config_path):
    """Find periodic points by Newton iteration from sampled seeds."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "period": period, "seeds": seeds,
                           "seed": seed}, config_path)
        p = _parse_params(merged["params"] or [])
        f, s, region = _build_target(merged["map_name"], p, None)
        run_seed = int(merged["seed"]) if merged.get("seed") is not None else 42
        pts = find_periodic_points(f, int(merged["period"]), region,
                                   int(merged["seeds"]), seed=run_seed)
        _write_report({
            "config": _config_dict("periodic", map=merged["map_name"],
                                   params=p, k=int(merged["period"]),
                                   seeds=int(merged["seeds"]),
                                   seed=run_seed),
            "structure_note": ("no structure certified" if s is None
                               else "structure available in catalog"),
            "periodic_points": [
                {"x": list(pt.x), "period": pt.period,
                 "multiplier_moduli": list(pt.multiplier_moduli),
                 "classification": pt.classification}
                for pt in pts],
            "verdict": None,
            "caveat": CAVEAT,
        }, output, started)
        return EXIT_OK

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@click.option("--x0", required=True)
@click.option("-N", "n_steps", type=int, default=10000)
@_output_opt
@_config_opt
def drift(map_name, params, x0, n_steps, output, config_path):
    """Conservation drift of the catalog integrals along an orbit."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "x0": x0, "n_steps": n_steps}, config_path)
        p = _parse_params(merged["params"] or [])
        f, s, _ = _build_target(merged["map_name"], p, None)
        if s is None or not s.integrals:
            raise ConfigError(
                f"map {merged['map_name']} has no catalog integrals")
        start = _parse_x0(merged["x0"])
        drifts, reached = level_set_drift(f, s.integrals, start,
                                          int(merged["n_steps"]))
        _write_report({
            "config": _config_dict("drift", map=merged["map_name"], params=p,
                                   x0=start, N=int(merged["n_steps"])),
            "drifts": {g.name or f"F{i + 1}": d
                       for i, (g, d) in enumerate(zip(s.integrals, drifts))},
            "steps_reached": reached,
            "verdict": None,
            "caveat": CAVEAT,
        }, output, started)
        return EXIT_OK

    _run_guarded(run)


@main.command()
@_map_opt
@_param_opt
@click.option("--x0", required=True)
@_output_opt
@_config_opt
def translation(map_name, params, x0, output, config_path):
    """Fit flow times with phi^t(x) = f(x) for the catalog structure."""

    def run():
        started = time.monotonic()
        merged = _resolve({"map_name": map_name, "params": list(params),
                           "x0": x0}, config_path)
        p = _parse_params(merged["params"] or [])
        f, s, _ = _build_target(merged["map_name"], p, None)
        if s is None or s.m < 1:
            raise ConfigError(
                f"map {merged['map_name']} has no catalog symmetry fields")
        start = _parse_x0(merged["x0"])
        cfg = IntegratorConfig(abs_tol=1e-12, rel_tol=1e-12)
        est = estimate_translation_vector(f, s, start, cfg)
        _write_report({
            "config": _config_dict("translation", map=merged["map_name"],
                                   params=p, x0=start),
            "t0": list(est.t0),
            "residual": est.residual,
            "verdict": None,
            "caveat": CAVEAT,
        }, output, started)
        return EXIT_OK

    _run_guarded(run)


if __name__ == "__main__":
    main()
