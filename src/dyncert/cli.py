"""Command-line front end: orchestration and bit-stable report emission.

Exit codes: 0 completed (PASS or pure data), 1 completed with FAIL verdict,
2 configuration error, 3 runtime failure (guard, integration, a pole or
domain error in an expression).  Reports are deterministic for a fixed
(config, seed, version); wall time goes to stderr so the written artifact
is byte-stable.

Every option declares its default once; ``--config FILE`` replaces those
defaults with the file's values and flags still beat the file.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import sys
import time

import click
import numpy as np

from . import __version__, catalog
from .certify import (CAVEAT, FLOW_TIMES, MAX_FLOW_TIME, Tolerances,
                      certify_involution, certify_structure)
from .constructions import lift_structure
from .core import (DomainError, IntegrabilityStructure, RegionSamplingError,
                   SamplingRegion)
from .dynamics import (ConvergenceError, NonMonotoneMapError, compute_orbit,
                       estimate_translation_vector, find_periodic_points,
                       level_set_drift, lyapunov_spectrum, rotation_number)
from .expressions import ExpressionError, structure_from_dict
from .jets import DerivativeError
from .numerics import IntegrationError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

_TOL = Tolerances()


class ConfigError(ValueError):
    pass


class _FiniteRange(click.FloatRange):
    """A float range that also rejects nan and inf (nan passes every
    comparison a range makes)."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not a finite number", param, ctx)
        return value


_POSITIVE = _FiniteRange(min=0.0, min_open=True)


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


def _write_csv(header, rows, output: str | None):
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


def _parse_params(ctx, param, items) -> dict:
    out = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            raise click.BadParameter(f"expects key=value, got {item!r}")
        out[key.strip()] = value.strip()
    return out


class _Floats(click.ParamType):
    """Comma-separated finite floats, converted to a tuple; each must lie
    in [-bound, bound]."""

    name = "floats"

    def __init__(self, bound: float = math.inf):
        self.bound = bound
        self.expected = ("finite floats" if bound == math.inf
                         else f"floats in [-{bound:g}, {bound:g}]")

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):  # a declared default
            return value
        try:
            out = tuple(float(v) for v in value.split(",") if v.strip())
            if all(math.isfinite(v) and abs(v) <= self.bound for v in out):
                return out
        except (AttributeError, ValueError):
            pass
        self.fail(f"expected comma-separated {self.expected}, got {value!r}",
                  param, ctx)


def _load_config(ctx, param, path):
    """Make the JSON object in ``path`` the command's default map."""
    if path is None:
        return
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise click.BadParameter(f"cannot read {path}: {err}") from err
    if not isinstance(data, dict):
        raise click.BadParameter("must hold a JSON object")
    data = {k.replace("-", "_"): v for k, v in data.items() if v is not None}
    known = {p.name for p in ctx.command.params if p.expose_value}
    unknown = sorted(set(data) - known)
    if unknown:
        raise click.BadParameter(
            f"unknown keys {', '.join(unknown)}; known: "
            f"{', '.join(sorted(known))}")
    ctx.default_map = data


def _build_target(map_name, params, structure_file=None, x0=None):
    """The catalog map, its structure (or the structure file's) and its
    region; a structure or start point of the wrong dimension is a
    configuration error."""
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
    if x0 is not None and len(x0) != f.dim:
        raise ConfigError(f"--x0 has dimension {len(x0)}, map needs "
                          f"{f.dim}")
    return f, s, region


def _config_dict(command: str, **kwargs) -> dict:
    cfg = {"command": command}
    for key in sorted(kwargs):
        value = kwargs[key]
        if value is None:
            continue
        cfg[key] = _json_ready(value)
    return cfg


@click.group(context_settings={"show_default": True})
@click.version_option(__version__)
def main():
    """Certify integrability structures and gather dynamical evidence for
    catalog maps."""


_map_opt = click.option("--map", "map_name", required=True,
                        help="catalog map name")
_param_opt = click.option("--param", "params", multiple=True,
                          callback=_parse_params,
                          help="map parameter key=value (repeatable)")
_seed_opt = click.option("--seed",
                         type=click.IntRange(min=0, max=2**128 - 1),
                         default=42, help="sampling seed")
_samples_opt = click.option("--samples", type=click.IntRange(min=1),
                            default=1000, help="sample count")
_x0_opt = click.option("--x0", type=_Floats(), required=True,
                       help="comma-separated start point")
_format_opt = click.option("--format", "fmt",
                           type=click.Choice(["json", "csv"]), default="json")
_output_opt = click.option("--output", "-o", default=None,
                           help="write the report to this path")
_config_opt = click.option("--config", type=click.Path(dir_okay=False),
                           is_eager=True, expose_value=False,
                           callback=_load_config,
                           help="JSON file of option values (keys are the "
                                "parameter names); flags beat the file")


def _reporting(body):
    """Turn ``body`` into a command callback with ``--output`` and
    ``--config``.

    ``body`` returns a report payload, or a ``(header, rows)`` CSV table.
    The callback times it, writes the result to ``--output`` or stdout and
    exits 1 on a FAIL or UNVERIFIED verdict, else 0; a configuration error
    exits 2 and a runtime failure 3, each with a JSON line on stderr.
    """

    @functools.wraps(body)
    def run(output, **kwargs):
        started = time.monotonic()
        try:
            payload = body(**kwargs)
        except ConfigError as err:
            _emit_error("config", str(err))
            sys.exit(EXIT_CONFIG)
        except (DomainError, IntegrationError, RegionSamplingError,
                ConvergenceError, NonMonotoneMapError, DerivativeError,
                ArithmeticError) as err:
            _emit_error("runtime", str(err))
            sys.exit(EXIT_RUNTIME)
        if isinstance(payload, tuple):
            _write_csv(*payload, output)
            sys.exit(EXIT_OK)
        _write_report(payload, output, started)
        sys.exit(EXIT_OK if payload["verdict"] in (None, "PASS")
                 else EXIT_FAIL)

    return _output_opt(_config_opt(run))


@main.command("list")
@_reporting
def list_cmd():
    """List catalog entries and their parameter schemas as JSON."""
    return {"config": _config_dict("list"),
            "entries": catalog.list_entries(),
            "verdict": None,
            "caveat": CAVEAT}


@main.command()
@_map_opt
@_param_opt
@_samples_opt
@_seed_opt
@click.option("--flow-times", type=_Floats(MAX_FLOW_TIME),
              default=FLOW_TIMES,
              help="comma-separated flow spot-check times, each of "
                   f"absolute value at most {MAX_FLOW_TIME:g}")
@click.option("--algebraic-tol", type=_POSITIVE, default=_TOL.algebraic_tol)
@click.option("--flow-tol", type=_POSITIVE, default=_TOL.flow_tol)
@click.option("--rank-threshold",
              type=_FiniteRange(min=0.0, max=1.0, min_open=True,
                                max_open=True),
              default=_TOL.rank_threshold)
@click.option("--ae-fraction",
              type=_FiniteRange(min=0.5, max=1.0, min_open=True),
              default=_TOL.ae_fraction,
              help="share of points that must have full rank")
@click.option("--structure-file", default=None,
              help="JSON structure with expression fields/integrals")
@_reporting
def certify(map_name, params, samples, seed, flow_times, algebraic_tol,
            flow_tol, rank_threshold, ae_fraction, structure_file):
    """Certify a claimed structure against a map at sampled points."""
    f, s, region = _build_target(map_name, params, structure_file)
    if s is None:
        raise ConfigError(
            f"map {map_name} ships no structure; supply --structure-file")
    tol = Tolerances(algebraic_tol, flow_tol, rank_threshold, ae_fraction)
    report = certify_structure(
        f, s, region, tol=tol, flow_times=flow_times, samples=samples,
        seed=seed, map_name=map_name, parameters=params)
    payload = {
        "config": _config_dict("certify", map=map_name, params=params,
                               samples=samples, seed=seed,
                               flow_times=flow_times),
        "report": report.to_dict(),
        "verdict": report.verdict,
        "caveat": CAVEAT,
    }
    # the variant search scores the catalog's own candidate field only
    if (report.verdict == "FAIL" and map_name == "lyness"
            and not structure_file and s.m >= 1):
        variants = catalog.lyness_symmetry_variants(
            f.dim, float(params.get("a", 1.0)), seed=seed)
        payload["variant_search"] = [
            {"variant": desc, "max_residual": score}
            for desc, score in variants[:10]
        ]
    return payload


@main.command("lift-certify")
@_map_opt
@_param_opt
@_samples_opt
@_seed_opt
@click.option("--momentum-box", type=_POSITIVE, default=1.0,
              help="half-width of the momentum sampling box")
@_reporting
def lift_certify(map_name, params, samples, seed, momentum_box):
    """Cotangent-lift a map and certify the lifted integral family."""
    f, s, region = _build_target(map_name, params)
    if s is None:
        s = IntegrabilityStructure(dim=f.dim)
    lifted, integrals = lift_structure(f, s)
    box = tuple(region.box) + tuple((-momentum_box, momentum_box)
                                    for _ in range(f.dim))
    guard = None
    if region.guard is not None:
        guard = lambda z: region.guard(list(z[:f.dim]))
    lifted_region = SamplingRegion(box=box, guard=guard,
                                   rng_seed=region.rng_seed)
    report = certify_involution(
        lifted, integrals, lifted_region, samples=samples, seed=seed,
        map_name=map_name + "_lift", parameters=params)
    return {
        "config": _config_dict("lift-certify", map=map_name, params=params,
                               samples=samples, seed=seed,
                               momentum_box=momentum_box),
        "report": report.to_dict(),
        "verdict": report.verdict,
        "caveat": CAVEAT,
    }


@main.command()
@_map_opt
@_param_opt
@_x0_opt
@click.option("-N", "n_steps", type=click.IntRange(min=1), default=10000)
@_format_opt
@_reporting
def orbit(map_name, params, x0, n_steps, fmt):
    """Compute an orbit (one row per iterate in CSV mode)."""
    f, _, _ = _build_target(map_name, params, x0=x0)
    orb = compute_orbit(f, x0, n_steps)
    if fmt == "csv":
        return (["k"] + [f"x{i + 1}" for i in range(f.dim)],
                [(k, *pt) for k, pt in enumerate(orb.points)])
    return {
        "config": _config_dict("orbit", map=map_name, params=params, x0=x0,
                               N=n_steps),
        "points": [list(pt) for pt in orb.points],
        "guard_failures": orb.guard_failures,
        "verdict": None,
        "caveat": CAVEAT,
    }


@main.command()
@_map_opt
@_param_opt
@_x0_opt
@click.option("-N", "n_steps", type=click.IntRange(min=100), default=10000)
@_format_opt
@_reporting
def lyapunov(map_name, params, x0, n_steps, fmt):
    """Lyapunov spectrum along an orbit (one row per exponent in CSV)."""
    f, _, _ = _build_target(map_name, params, x0=x0)
    spectrum = lyapunov_spectrum(f, x0, n_steps)
    if fmt == "csv":
        return (["index", "exponent"],
                [(i + 1, v) for i, v in enumerate(spectrum)])
    return {
        "config": _config_dict("lyapunov", map=map_name, params=params, x0=x0,
                               N=n_steps),
        "exponents": [float(v) for v in spectrum],
        "verdict": None,
        "caveat": CAVEAT,
    }


@main.command()
@_map_opt
@_param_opt
@click.option("--x0", type=_Floats(), default=(0.0,),
              help="comma-separated start point")
@click.option("-N", "n_steps", type=click.IntRange(min=1), default=10000)
@click.option("--windows", type=click.IntRange(min=1), default=4)
@_reporting
def rotation(map_name, params, x0, n_steps, windows):
    """Rotation number of a 1-D circle map."""
    f, _, _ = _build_target(map_name, params, x0=x0)
    if f.dim != 1 or f.phase_topology is None or f.phase_topology[0] is None:
        raise ConfigError(f"map {map_name} is not a 1-D circle map")
    if n_steps < windows:
        raise ConfigError(f"-N {n_steps} is smaller than --windows "
                          f"{windows}")
    est = rotation_number(f, x0[0], n_steps, windows)
    return {
        "config": _config_dict("rotation", map=map_name, params=params, x0=x0,
                               N=n_steps, windows=windows),
        "rotation_number": est.value,
        "window_estimates": list(est.window_estimates),
        "dispersion": est.dispersion,
        "verdict": None,
        "caveat": CAVEAT,
    }


@main.command()
@_map_opt
@_param_opt
@click.option("-k", "period", type=click.IntRange(min=1), default=1,
              help="iterate whose fixed points are sought")
@click.option("--seeds", type=click.IntRange(min=1), default=100)
@_seed_opt
@_reporting
def periodic(map_name, params, period, seeds, seed):
    """Find periodic points by Newton iteration from sampled seeds."""
    f, s, region = _build_target(map_name, params)
    pts = find_periodic_points(f, period, region, seeds, seed=seed)
    return {
        "config": _config_dict("periodic", map=map_name, params=params,
                               k=period, seeds=seeds, seed=seed),
        "structure_note": ("no structure certified" if s is None
                           else "structure available in catalog"),
        "periodic_points": [
            {"x": list(pt.x), "period": pt.period,
             "multiplier_moduli": list(pt.multiplier_moduli),
             "classification": pt.classification}
            for pt in pts],
        "verdict": None,
        "caveat": CAVEAT,
    }


@main.command()
@_map_opt
@_param_opt
@_x0_opt
@click.option("-N", "n_steps", type=click.IntRange(min=1), default=10000)
@_reporting
def drift(map_name, params, x0, n_steps):
    """Conservation drift of the catalog integrals along an orbit."""
    f, s, _ = _build_target(map_name, params, x0=x0)
    if s is None or not s.integrals:
        raise ConfigError(f"map {map_name} has no catalog integrals")
    drifts, reached = level_set_drift(f, s.integrals, x0, n_steps)
    return {
        "config": _config_dict("drift", map=map_name, params=params, x0=x0,
                               N=n_steps),
        "drifts": {g.name or f"F{i + 1}": d
                   for i, (g, d) in enumerate(zip(s.integrals, drifts))},
        "steps_reached": reached,
        "verdict": None,
        "caveat": CAVEAT,
    }


@main.command()
@_map_opt
@_param_opt
@_x0_opt
@_reporting
def translation(map_name, params, x0):
    """Fit flow times with phi^t(x) = f(x) for the catalog structure."""
    f, s, _ = _build_target(map_name, params, x0=x0)
    if s is None or s.m < 1:
        raise ConfigError(f"map {map_name} has no catalog symmetry fields")
    est = estimate_translation_vector(f, s, x0)
    return {
        "config": _config_dict("translation", map=map_name, params=params,
                               x0=x0),
        "t0": list(est.t0),
        "residual": est.residual,
        "verdict": None,
        "caveat": CAVEAT,
    }


if __name__ == "__main__":
    main()
