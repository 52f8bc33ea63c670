"""dyncert benchmark: the public CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_flow --seed 1 --seconds 25 --trace 0

One closed-loop client in one process runs the workload's commands one
after another through click's ``CliRunner`` (no threads).  A pass is one
run of the workload's command list; passes repeat until the next one would
end after ``--seconds`` (the window opens with one warm-up pass that is not
reported).  Every command's output goes through the correctness gate
(``gate.py``) and must be byte-identical to the first pass.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it carries informational context: Python
and numpy versions, ``nproc``, ``src_lines`` (lines of ``src/dyncert``), the
pass count and the raw times.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

- ``wall_ref``: median over passes of the pass's wall time divided by the
  mean wall time of a fixed reference computation (``reference_time``) run
  just before and just after it.  On a shared host the machine's speed drifts by tens of percent
  within minutes; the ratio cancels that drift, the raw seconds do not;
- ``setup_s``: median cold start of ``python -m dyncert.cli list`` in a
  fresh interpreter (start-up plus import), one probe before each of the
  first passes;
- ``peak_rss_mb``: peak resident memory of this process after the
  warm-up pass, read before the reference computation first runs;
- ``ok_frac``: share of attempted commands and probes that passed the gate.

``--trace 1`` alternates untraced and traced passes (``spans.py``), reports
the per-layer metrics of the traced passes, checks that every report is
byte-identical traced and untraced and that the exact work counts repeat,
and writes the last traced pass's spans under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
# per-layer metrics that count work: they must repeat exactly
COUNT_UNITS = ("count", "ratio")
REFERENCE_ROWS = [[2.0, 1.0, 0.5], [1.0, 1.0, 0.25], [0.0, 0.5, 1.0]]
SETUP_PROBES = 7


def _import_dyncert():
    """Import dyncert from this checkout's ``src/``, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dyncert
    except ImportError as err:
        sys.exit(f"cannot import dyncert from {src}: {err}")
    if Path(dyncert.__file__).resolve().parent != (src / "dyncert").resolve():
        sys.exit(f"dyncert resolved to {dyncert.__file__}, not under {src}")


def reference_time() -> float:
    """Wall time of a fixed computation in dyncert's style: fresh Python
    objects, small numpy arrays built from Python floats, and tiny LAPACK
    calls.  Never change it: every ``wall_ref`` is measured in its units."""
    t0 = time.perf_counter()
    pairs = [(i * 0.5, float(i)) for i in range(150000)]
    acc = 0.0
    for a, b in pairs:
        acc += a * b
    acc += len({i: v for i, v in enumerate(pairs[:50000])})
    for i in range(12000):
        x = (i * 1e-3, 1.0 - i * 1e-3, 0.5)
        y = [sum(a * b for a, b in zip(row, x)) for row in REFERENCE_ROWS]
        acc += float(np.linalg.norm(np.asarray(y) - x))
    m, q = np.array([[2.0, 1.0], [1.0, 1.0]]), np.eye(2)
    for _ in range(4000):
        q, r = np.linalg.qr(m @ q)
        acc += float(np.log(abs(r[0, 0])))
    elapsed = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("reference computation went wrong")
    return elapsed


def setup_time() -> tuple[float, bool]:
    """Cold start of ``python -m dyncert.cli list`` in a fresh interpreter:
    (seconds, whether the listing came back correct)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "dyncert.cli", "list"],
                          cwd=ROOT, env=env, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - t0
    try:
        ok = proc.returncode == 0 and bool(json.loads(proc.stdout)["entries"])
    except (ValueError, KeyError):
        ok = False
    if not ok:
        sys.stderr.write(f"setup probe failed: {proc.stderr[-500:]!r}\n")
    return elapsed, ok


class Client:
    """Runs command lists through ``CliRunner`` and gates every output."""

    def __init__(self, commands):
        from click.testing import CliRunner
        from dyncert.cli import main

        self.commands = commands
        self.runner = CliRunner()
        self.main = main
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, reason: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"FAILED {what}: {reason}\n")

    def run_pass(self, tracer=None) -> float:
        """One pass over the command list; returns its wall time in s."""
        invoke = self.runner.invoke
        if tracer is not None:
            invoke = tracer.wrap("cli", invoke)
        results = []
        t0 = time.perf_counter()
        for key, argv in self.commands:
            results.append((key, invoke(self.main, argv)))
        elapsed = time.perf_counter() - t0
        for key, res in results:
            reason = self._judge(key, res, traced=tracer is not None)
            self.record(reason is None, key, reason)
        return elapsed

    def _judge(self, key, res, traced: bool) -> str | None:
        if res.exception is not None and not isinstance(res.exception,
                                                        SystemExit):
            return f"raised {res.exception!r}"
        reason = gate.check(key, res.exit_code, res.stdout_bytes)
        if reason is not None:
            return reason
        ref = self.reference.setdefault(key, res.stdout_bytes)
        if res.stdout_bytes != ref:
            return ("traced report bytes differ from the untraced ones"
                    if traced else "report bytes differ from the first pass")
        return None


def _window(seconds: float, step) -> list:
    """Call ``step(warm_up=True)`` once, then ``step()`` while the next call
    is expected to end within ``seconds`` of the start (at least once)."""
    start = time.perf_counter()
    step(warm_up=True)  # lazy imports, bytecode and first-call costs
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now + (now - t0) - start > seconds:
            return results


def _timed(client: Client, seconds: float, spec: dict) -> tuple[dict, dict]:
    setups, refs, peak_rss_mb = [], [], []

    def step(warm_up=False):
        if len(refs) <= SETUP_PROBES:
            setup, ok = setup_time()
            client.record(ok, "setup probe", "python -m dyncert.cli list failed")
            if not warm_up:  # the warm-up probe also writes bytecode
                setups.append(setup)
        wall = client.run_pass()
        if warm_up:
            # before the reference computation first runs, so that its
            # memory does not hide the workload's
            peak_rss_mb.append(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        refs.append(reference_time())
        before = refs[-2] if len(refs) > 1 else refs[-1]
        return wall, wall / ((before + refs[-1]) / 2.0)

    wall, ratio = zip(*_window(seconds, step))
    values = {
        "wall_ref": statistics.median(ratio),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb[0],
        "ok_frac": 1.0 - client.failed / client.attempted,
    }
    info = {"passes": len(wall), "wall_s_median": statistics.median(wall),
            "pass_s": wall, "pass_ref": ratio, "reference_s": refs,
            "setup_runs_s": setups}
    return _select(spec["end_to_end"], values), info


def _traced(client: Client, seconds: float, spec: dict, out: Path,
            meta: dict) -> tuple[dict, dict, bool]:
    """Untraced then traced pass, repeated; returns per-layer metrics."""
    last = {}

    def step(warm_up=False):
        plain = client.run_pass()  # the first one sets the reference bytes
        if warm_up:
            return None
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = client.run_pass(tracer)
        finally:
            tracer.uninstall()
        last["tracer"] = tracer
        return plain, traced, tracer.layer_metrics()

    plain, traced, layers = zip(*_window(seconds, step))
    last["tracer"].write(out, meta)
    counts_repeat = True
    values = {"tracing.overhead_s": statistics.median(
        t - p for p, t in zip(plain, traced))}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        series = [layer[name] for layer in layers]
        if m["unit"] in COUNT_UNITS:
            if len(set(series)) != 1:
                counts_repeat = False
                sys.stderr.write(f"count {name} varies across passes: "
                                 f"{series}\n")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    info = {"passes": len(traced), "traced_pass_s": traced,
            "untraced_pass_s": plain}
    return _select(spec["per_layer"], values), info, counts_repeat


def _select(declared: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}


def _context() -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "dyncert").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _import_dyncert()
    client = Client(workloads.commands(args.workload, args.seed))
    meta = {"workload": args.workload, "seed": args.seed}
    if args.trace:
        out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json.gz"
        metrics, info, counts_repeat = _traced(client, args.seconds, spec,
                                               out, meta)
    else:
        metrics, info = _timed(client, args.seconds, spec)
        counts_repeat = True
    print(json.dumps({"context": {**meta, **_context(), **info}}))
    print(json.dumps({"correct": client.failed == 0 and counts_repeat,
                      "attempted": client.attempted,
                      "failed": client.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
