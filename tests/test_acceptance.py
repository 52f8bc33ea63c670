"""Acceptance battery: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the run
log shows the verdict per criterion even under default pytest settings.
Criterion 4 requires the catalog's Lyness integrals to be functionally
independent for every n in 2..5; at n=3, where F2 = F1 + F3 + (2 - a)
holds identically, the catalog ships the independent pair (F1, F3).
"""

import json
import math
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from dyncert import catalog, core
from dyncert.certify import (Tolerances, certify_structure,
                             flow_commutation_residual,
                             independence_rank_stats,
                             infinitesimal_commutation_residual,
                             lie_bracket_residual, map_invariance_residual,
                             poisson_bracket, symplecticity_residual)
from dyncert.cli import main as cli_main
from dyncert.constructions import (JordanBlockSpec, cotangent_lift,
                                   lift_structure, linear_commutative_family,
                                   linear_map)
from dyncert.core import (IntegrabilityStructure, SamplingRegion, ScalarField,
                          SmoothMap, VectorField, iterate, sample)
from dyncert.dynamics import (estimate_translation_vector,
                              find_periodic_points, level_set_drift,
                              lyapunov_spectrum, rotation_number)
from dyncert.jets import jet_gradient
from dyncert.numerics import IntegrationError


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(number: int, label: str, ok: bool, detail: str = ""):
    line = f"acceptance {number:2d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f" -- {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        sys.stdout.write(line + "\n")


def test_criterion_01_twist_certification():
    f, s, region = catalog.build("twist", n=2)
    report = certify_structure(f, s, region, samples=1000, seed=42)
    algebraic = [c for c in report.conditions
                 if c.kind == "residual" and "flow" not in c.condition_name]
    flow = [c for c in report.conditions
            if c.condition_name.startswith("flow_commutation")]
    worst_alg = max(c.max_abs for c in algebraic)
    worst_flow = max(c.max_abs for c in flow)

    # a pure sign flip of a constant symmetry field is still a symmetry of
    # the twist map, so the corruption sets a momentum component instead
    bad_field = VectorField(dim=4, func=lambda z: [1.0, 0.0, 0.0, 1.0],
                            name="corrupted")
    bad = IntegrabilityStructure(dim=4,
                                 fields=(bad_field,) + s.fields[1:],
                                 integrals=s.integrals)
    bad_report = certify_structure(f, bad, region, samples=200, seed=42,
                                   flow_times=())
    failing = bad_report.failing_conditions
    ok = (report.verdict == "PASS" and worst_alg <= 1e-12
          and worst_flow <= 1e-7 and bad_report.verdict == "FAIL"
          and len(failing) > 0 and failing[0].worst_point is not None)
    _report(1, "twist map certification", ok,
            f"algebraic max {worst_alg:.2e}, flow max {worst_flow:.2e}, "
            f"corrupted fails at {failing[0].condition_name}")
    assert ok


def test_criterion_02_linear_families():
    rng = np.random.default_rng(42)
    worst_bracket = worst_comm = 0.0
    worst_rank_fraction = 1.0
    worst_flow = 0.0
    for trial in range(20):
        sizes = []
        budget = int(rng.integers(2, 7))
        while budget > 0:
            s_blk = int(rng.integers(1, budget + 1))
            sizes.append(s_blk)
            budget -= s_blk
        blocks = []
        for s_blk in sizes:
            lam = 0.0
            while abs(lam) < 0.05:
                lam = float(rng.uniform(-3.0, 3.0))
            blocks.append((lam, s_blk))
        spec = JordanBlockSpec(blocks=tuple(blocks))
        n = spec.dim
        f = linear_map(spec)
        fam = linear_commutative_family(spec)
        region = SamplingRegion(box=((-2.0, 2.0),) * n)
        pts = sample(region, 100, seed=trial)
        for x in pts:
            for j in range(fam.m):
                for k in range(j + 1, fam.m):
                    worst_bracket = max(worst_bracket, float(np.max(np.abs(
                        lie_bracket_residual(fam.fields[j], fam.fields[k],
                                             x)))))
                worst_comm = max(worst_comm, float(np.max(np.abs(
                    infinitesimal_commutation_residual(f, fam.fields[j],
                                                       x)))))
        frac, _ = independence_rank_stats(list(fam.fields),
                                          sample(region, 500, seed=trial))
        worst_rank_fraction = min(worst_rank_fraction, frac)
        for x in pts[:3]:
            for t in (-1.0, 0.7):
                r = flow_commutation_residual(f, fam.fields[0], x, t)
                worst_flow = max(worst_flow, float(np.max(np.abs(r))))
    ok = (worst_bracket <= 1e-12 and worst_comm <= 1e-12
          and worst_rank_fraction >= 0.99 and worst_flow <= 1e-7)
    _report(2, "linear commuting families", ok,
            f"bracket {worst_bracket:.2e}, commutation {worst_comm:.2e}, "
            f"rank fraction {worst_rank_fraction:.3f}, flow {worst_flow:.2e}")
    assert ok


def test_criterion_03_affine_1d():
    rng = np.random.default_rng(42)
    worst_inf = worst_flow = 0.0
    for _ in range(50):
        a = 0.0
        while abs(a) < 0.05 or abs(a - 1.0) < 0.1:
            a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(-3.0, 3.0))
        f, s, _ = catalog.build("affine1d", a=a, b=b)
        v = s.fields[0]
        for x in ([-1.5], [0.3], [2.0]):
            worst_inf = max(worst_inf, abs(float(
                infinitesimal_commutation_residual(f, v, x)[0])))
        for t in (-1.0, 0.5, 2.0):
            r = flow_commutation_residual(f, v, [0.7], t, 1e-12)
            worst_flow = max(worst_flow, abs(float(r[0])))
    f, s, _ = catalog.build("affine1d", a=2.0, b=3.0)
    est = estimate_translation_vector(f, s, [1.0])
    t0_err = abs(est.t0[0] - math.log(2.0))
    ok = worst_inf <= 1e-12 and worst_flow <= 1e-9 and t0_err <= 1e-8
    _report(3, "affine 1-D symmetries", ok,
            f"infinitesimal {worst_inf:.2e}, flow {worst_flow:.2e}, "
            f"t0 error {t0_err:.2e}")
    assert ok


def test_criterion_04_lyness_integrals():
    worst_inv = 0.0
    rank_ok = True
    rank_notes = []
    for n in (2, 3, 4, 5):
        for a in (1.0, 2.0):
            f, s, region = catalog.build("lyness", n=n, a=a)
            pts = sample(region, 1000, seed=42)
            for x in pts:
                fx = f.apply(x)
                for g in s.integrals:
                    gx = float(g(x))
                    sc = 1.0 + max(np.linalg.norm(x), np.linalg.norm(fx),
                                   abs(gx))
                    worst_inv = max(worst_inv,
                                    abs(float(g(fx)) - gx) / sc)
            frac, _ = independence_rank_stats(list(s.integrals), pts)
            if frac < 0.99:
                rank_ok = False
                rank_notes.append(f"n={n} a={a:g}: full-rank fraction "
                                  f"{frac:.2f} for {len(s.integrals)} "
                                  "integrals")
    ok = worst_inv <= 1e-10 and rank_ok
    detail = f"invariance max {worst_inv:.2e}"
    if rank_notes:
        detail += "; rank deficit [" + "; ".join(rank_notes) + "]"
    _report(4, "lyness integral battery", ok, detail)
    assert worst_inv <= 1e-10
    assert rank_ok, (
        "the shipped integrals must be functionally independent: their "
        "gradient rank must equal the integral count at >= 99% of sampled "
        "points -- " + "; ".join(rank_notes))


def test_criterion_05_lyness_five_periodicity():
    f, _, region = catalog.build("lyness", n=2, a=1.0)
    worst = 0.0
    for x in sample(region, 100, seed=42):
        y = iterate(f, x, 5)
        err = np.linalg.norm(np.asarray(y) - np.asarray(x))
        worst = max(worst, err / (1.0 + np.linalg.norm(x)))
    cycle = [(1.0, 2.0)]
    x = [1.0, 2.0]
    for _ in range(5):
        x = f.apply(x)
        cycle.append(tuple(x))
    expected = [(1.0, 2.0), (2.0, 3.0), (3.0, 2.0), (2.0, 1.0), (1.0, 1.0),
                (1.0, 2.0)]
    ok = worst <= 1e-9 and cycle == expected
    _report(5, "lyness 5-periodicity", ok,
            f"max relative f^5 error {worst:.2e}, cycle exact: "
            f"{cycle == expected}")
    assert ok


def test_criterion_06_lyness_conservation_dynamics():
    a = 2.0
    f, s, _ = catalog.build("lyness", n=2, a=a)
    drifts, reached = level_set_drift(f, s.integrals, [1.0, 2.0], 10_000)
    fixed = (1.0 + math.sqrt(1.0 + 4.0 * a)) / 2.0
    x = [1.0, 2.0]
    angles = [math.atan2(x[1] - fixed, x[0] - fixed)]
    for _ in range(10_000):
        x = f.apply(x)
        angles.append(math.atan2(x[1] - fixed, x[0] - fixed))
    increments = []
    for prev, cur in zip(angles, angles[1:]):
        d = cur - prev
        while d <= -math.pi:
            d += 2.0 * math.pi
        while d > math.pi:
            d -= 2.0 * math.pi
        increments.append(d)
    w1 = sum(increments[:5000]) / 5000.0
    w2 = sum(increments[5000:10000]) / 5000.0
    ok = (reached == 10_000 and drifts[0] <= 1e-6
          and abs(w1 - w2) <= 1e-3)
    _report(6, "lyness conservation dynamics", ok,
            f"F1 drift {drifts[0]:.2e}, window rotation rates "
            f"{w1:.6f} vs {w2:.6f}")
    assert ok


def test_criterion_07_cat_map_chaos_evidence():
    f, _, region = catalog.build("cat_map")
    lam = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    spec = lyapunov_spectrum(f, [0.3, 0.7], 100_000)
    lam_err = abs(spec[0] - lam)
    pts = find_periodic_points(f, 2, region, seed_count=150, seed=42)
    target = min(pts, key=lambda p: f.distance(p.x, [0.2, 0.4]))
    dist = f.distance(target.x, [0.2, 0.4])
    mod_err = max(abs(target.multiplier_moduli[0] - (7 + 3 * math.sqrt(5)) / 2),
                  abs(target.multiplier_moduli[1] - (7 - 3 * math.sqrt(5)) / 2))
    runner = CliRunner()
    result = runner.invoke(cli_main, ["periodic", "--map", "cat_map",
                                      "-k", "1", "--seeds", "20"])
    labeled = "no structure certified" in result.output
    ok = (lam_err <= 5e-3 and dist <= 1e-8
          and target.classification == "hyperbolic" and mod_err <= 1e-6
          and labeled)
    _report(7, "cat map chaos evidence", ok,
            f"lambda_1 error {lam_err:.2e}, period-2 point distance "
            f"{dist:.2e}, moduli error {mod_err:.2e}")
    assert ok


def test_criterion_08_warned_circle():
    f, _, _ = catalog.build("warned_circle", k=2, eps=0.3)
    x = [0.0]
    orbit = [0.0]
    for _ in range(4):
        x = f.apply(x)
        orbit.append(x[0])
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 0.0]
    orbit_err = max(abs(u - v) for u, v in zip(orbit, expected))
    lift = 0.1
    drift_prev = lift
    monotone = True
    bounded = True
    shift = math.pi / 2
    for j in range(1, 10_001):
        lift = lift + shift + 0.3 * math.sin(2.0 * lift) ** 2
        drift = lift - j * shift
        if drift <= drift_prev:
            monotone = False
        if drift >= shift:
            bounded = False
        drift_prev = drift
    est = rotation_number(f, 0.1, 20_000)
    rot_err = abs(est.value - 0.25)
    ok = orbit_err <= 1e-12 and monotone and bounded and rot_err <= 1e-3
    _report(8, "warned circle map", ok,
            f"period-4 endpoint error {orbit_err:.2e}, drift monotone "
            f"{monotone}, bounded {bounded}, rotation error {rot_err:.2e}")
    assert ok


def test_criterion_09_cotangent_lift_battery():
    spec = JordanBlockSpec(blocks=((2.0, 3),))
    f = linear_map(spec)
    fam = linear_commutative_family(spec)
    lifted, integrals = lift_structure(f, fam)
    assert len(integrals) == 3
    region = SamplingRegion(box=((-2.0, 2.0),) * 6)
    worst_symp = worst_inv = worst_pb = 0.0
    for z in sample(region, 100, seed=42):
        worst_symp = max(worst_symp, symplecticity_residual(lifted, z))
        fz = lifted.apply(z)
        for g in integrals:
            worst_inv = max(worst_inv, abs(float(g(fz)) - float(g(z))))
        for j in range(3):
            for k in range(j + 1, 3):
                worst_pb = max(worst_pb, abs(poisson_bracket(
                    integrals[j], integrals[k], z)))
    linear_ok = worst_symp <= 1e-10 and worst_inv <= 1e-10 and worst_pb <= 1e-10

    fl, sl, rl = catalog.build("lyness", n=2, a=1.0)
    lifted2, integrals2 = lift_structure(fl, sl)
    assert len(integrals2) == 1  # just F1, p-independent
    box = tuple(rl.box) + ((-1.0, 1.0), (-1.0, 1.0))
    region2 = SamplingRegion(box=box)
    worst_inv2 = worst_symp2 = 0.0
    for z in sample(region2, 100, seed=42):
        worst_symp2 = max(worst_symp2,
                          symplecticity_residual(lifted2, z)
                          / (1.0 + np.linalg.norm(z)))
        fz = lifted2.apply(z)
        g = integrals2[0]
        sc = 1.0 + max(np.linalg.norm(z), abs(float(g(z))))
        worst_inv2 = max(worst_inv2, abs(float(g(fz)) - float(g(z))) / sc)
        assert poisson_bracket(g, g, z) == 0.0
    lyness_ok = worst_inv2 <= 1e-10 and worst_symp2 <= 1e-9
    ok = linear_ok and lyness_ok
    _report(9, "cotangent lift battery", ok,
            f"linear: symplectic {worst_symp:.2e}, invariance {worst_inv:.2e}, "
            f"brackets {worst_pb:.2e}; lyness lift: invariance "
            f"{worst_inv2:.2e}")
    assert ok


def test_criterion_10_lyness_symmetry_discrepancy(tmp_path):
    runner = CliRunner()
    out = tmp_path / "sym.json"
    result = runner.invoke(cli_main, ["certify", "--map", "lyness",
                                      "--param", "n=3", "--param", "a=1",
                                      "--param", "symmetry=1",
                                      "--samples", "100", "-o", str(out)])
    data = json.loads(out.read_text())
    recorded = data["verdict"] in ("PASS", "FAIL")
    search_attached = (data["verdict"] == "PASS"
                       or ("variant_search" in data
                           and len(data["variant_search"]) > 0))
    listing = catalog.list_entries()
    lyness_entry = next(e for e in listing if e["name"] == "lyness")
    flagged = lyness_entry.get("unverified_components") == \
        ["v1 (symmetry field)"]
    ok = (result.exit_code in (0, 1) and recorded and search_attached
          and flagged)
    _report(10, "lyness symmetry discrepancy handling", ok,
            f"verdict {data['verdict']}, variant search entries "
            f"{len(data.get('variant_search', []))}, flagged {flagged}")
    assert ok


def test_criterion_11_determinism(tmp_path, monkeypatch):
    # each report at the default column budget, which takes these runs'
    # quantities in one chunk of points, against 128-point chunks for all
    runner = CliRunner()
    commands = [
        ["certify", "--map", "twist", "--samples", "150", "--seed", "42"],
        ["certify", "--map", "lyness", "--param", "n=3", "--param", "a=1",
         "--param", "symmetry=1", "--samples", "200", "--seed", "42"],
        ["lift-certify", "--map", "linear", "--param", "blocks=2:2",
         "--samples", "200", "--seed", "42"],
        ["lyapunov", "--map", "cat_map", "--x0", "0.3,0.7", "-N", "1500"],
        ["periodic", "--map", "cat_map", "-k", "2", "--seeds", "200"],
        ["list"],
    ]
    blobs = {}
    for budget in ("default", "128 points"):
        if budget != "default":
            monkeypatch.setattr(core, "CHUNK_FLOATS", 1)
        for i, cmd in enumerate(commands):
            out = tmp_path / f"c{i}_{budget}.json"
            runner.invoke(cli_main, cmd + ["-o", str(out)])
            blobs.setdefault(i, []).append(out.read_bytes())
    identical = all(a == b for a, b in blobs.values())
    _report(11, "byte-identical reports across column budgets", identical)
    assert identical
