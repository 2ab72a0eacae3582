"""gbsep benchmark: closed-loop time-to-verdict on seeded workloads.

Usage (from the repository root):

    python3 bench/run.py --workload ascending --seed 1 --seconds 25 --trace 0

One client, no threads: each request is sent only after the previous one
has completed and been checked. A CLI request is one in-process call of
gbsep.cli.main(argv) with stdout captured; the caches a fresh process would
not have are emptied before it, outside the timed window. A separate-batch
request is one separate_in_A library call. Every answer is checked against
reference.py, which does not use gbsep. Each request's wall time is scaled
to a reference speed by the calibration probe timed around it (probe.py).

With --trace 0 the run measures the end-to-end metrics for --seconds of
request time. With --trace 1 it spends half of that untraced and half
traced (spans from tracing.py) and reports the per-layer metrics. The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import probe  # noqa: E402  (sibling modules, found through the path above)
from reference import Outcome, check_ascending, check_factor, check_general, check_separation  # noqa: E402

SETUP_SAMPLES = 7
WALL_LIMIT_S = 150          # stop sending requests after this much wall time
# the probe runs after the timed import, so that its own imports are not timed
SETUP_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import gbsep.cli\n"
    "gbsep.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "import probe\n"
    "print(repr(t * probe.scale(probe.seconds(), probe.seconds())))\n"
)


def measure_setup(samples: int) -> float:
    """Median time to import gbsep and build the CLI parser, each sample in
    a fresh interpreter, in reference seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH_DIR))))
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(out)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gbsep").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or commit
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Harness:
    """Prepares requests and sends them to gbsep."""

    def __init__(self, workdir: Path):
        import gbsep.cli
        import gbsep.quotient
        from gbsep.css import AscendingHNN, invariant_chain
        from gbsep.exact import IntMatrix

        self.cli = gbsep.cli
        self.quotient = gbsep.quotient
        self.input_path = workdir / "input.json"
        self._batch_args = lambda phi: (IntMatrix(phi), invariant_chain(AscendingHNN.of(IntMatrix(phi))))
        self._batch_key = None
        self._batch = None
        # functools caches a fresh process starts without; collected before
        # tracing wraps any of them
        self.caches = [
            obj for name, mod in sorted(sys.modules.items()) if name.startswith("gbsep")
            for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))
        ]

    def prepare(self, req) -> None:
        """Untimed work before a request: caches, input file, chain. A CLI
        request starts with empty caches, as a fresh process would; library
        queries on one input share caches that start empty for that input."""
        if req.kind == "separate-lib" and req.chain_key == self._batch_key:
            return
        for cache in self.caches:
            cache.cache_clear()
        if req.kind == "separate-lib":
            self._batch_key = req.chain_key
            self._batch = self._batch_args(req.case.phi)
        elif req.doc is not None:
            self.input_path.write_text(json.dumps(req.doc), encoding="utf-8")

    def send(self, req):
        """The timed part: one CLI call or one library call. Returns
        (exit code or None, stdout text or library result, exception)."""
        if req.kind == "separate-lib":
            phi, chain = self._batch
            try:
                return 0, self.quotient.separate_in_A(phi, chain, req.case.g1, req.case.g2, req.case.budget), None
            except Exception as exc:  # a raising request is a failed operation
                return None, None, exc
        argv = [str(self.input_path) if a == "{input}" else a for a in req.argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), None
        except Exception as exc:  # a raising request is a failed operation
            return None, out.getvalue(), exc
        return code, out.getvalue(), None


def check(req, code, result, exc):
    """Outcome of one request against the reference."""
    if exc is not None:
        return Outcome().fail(f"raised {type(exc).__name__}: {exc}")
    if code != 0:
        return Outcome().fail(f"exit code {code}")
    try:
        if req.kind == "separate-lib":
            spec = None if result is None else {
                "k_basis": [list(c) for c in result.lattice.basis],
                "r": result.r,
                "quotient_invariants": list(result.structure.invariant_factors),
            }
            return check_separation(spec, req.case)
        if req.kind == "separate":
            return check_separation(None if result.startswith("none") else json.loads(result), req.case)
        doc = json.loads(result)
        if req.kind == "factor":
            return check_factor(doc, req.case)
        if req.kind == "analyze-ascending":
            return check_ascending(doc, req.case)
        return check_general(doc, req.case)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as err:
        return Outcome().fail(f"unreadable answer: {type(err).__name__}: {err}")


class Pass:
    """Latencies and outcomes of one closed-loop pass. `latencies` are in
    reference seconds (wall time times the probe's scale), `wall` as
    measured."""

    def __init__(self):
        self.latencies = []
        self.wall = []
        self.strata = []
        self.unknown = 0
        self.errors = []

    def record(self, req, wall, scale, outcome):
        self.latencies.append(wall * scale)
        self.wall.append(wall)
        self.strata.append(req.stratum)
        if outcome.status == "unknown":
            self.unknown += 1
        elif outcome.status == "error":
            self.errors.append((req, outcome))

    @property
    def count(self) -> int:
        return len(self.latencies)


def run_pass(harness, stream, seconds: float, deadline: float, tracer=None) -> Pass:
    """Closed loop until the measured request wall times add up to
    `seconds` or the wall clock reaches `deadline`."""
    result = Pass()
    busy = 0.0
    while busy < seconds and time.perf_counter() < deadline:
        req = next(stream)
        harness.prepare(req)
        if tracer is not None:
            tracer.request_id = result.count
        before = probe.seconds()
        t0 = time.perf_counter()
        code, answer, exc = harness.send(req)
        wall = time.perf_counter() - t0
        after = probe.seconds()
        if tracer is not None:
            tracer.request_id = -1
        busy += wall
        result.record(req, wall, probe.scale(before, after), check(req, code, answer, exc))
    return result


def end_to_end(p: Pass, setup_s: float) -> dict:
    lat = sorted(p.latencies)
    return {
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1000 * percentile(lat, 0.9), "ms"),
        "requests_per_s": (p.count / sum(lat), "1/s"),
        "decided_ratio": (1 - p.unknown / p.count, "ratio"),
        "verified_ratio": (1 - len(p.errors) / p.count, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def stratum_table(p: Pass) -> list:
    """Per-stratum latencies, in reference milliseconds."""
    groups = {}
    for s, lat in zip(p.strata, p.latencies):
        groups.setdefault(s, []).append(lat)
    return [
        f"  {s:34s} n={len(v):4d}  p50={1000 * statistics.median(v):9.2f} ms  max={1000 * max(v):9.2f} ms"
        for s, v in sorted(groups.items())
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gbsep closed-loop benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "gbsep" / "__init__.py").is_file():
        sys.stderr.write(f"error: gbsep sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2

    deadline = time.perf_counter() + WALL_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        harness = Harness(workdir)
        stream = workloads.WORKLOADS[args.workload](args.seed)
        if args.trace:
            import tracing

            plain = run_pass(harness, stream, args.seconds / 2, deadline)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(harness, stream, args.seconds / 2, deadline, tracer)
            finally:
                tracer.uninstall()
            passes = [plain, traced]
            metrics = tracing.layer_metrics(tracer, traced, plain)
            tracer.write(OUT_DIR / f"{args.workload}.spans")
        else:
            setup_s = measure_setup(SETUP_SAMPLES)
            passes = [run_pass(harness, stream, args.seconds, deadline)]
            metrics = end_to_end(passes[0], setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.count for p in passes)
    errors = [e for p in passes for e in p.errors]
    info = provenance(args)
    print(f"gbsep benchmark: workload {args.workload}, seed {args.seed}, python {info['python']}, "
          f"nproc {info['nproc']}, commit {info['commit'][:12]}, src {info['src_sha256'][:12]}")
    for label, p in zip(("untraced", "traced") if args.trace else ("untraced",), passes):
        print(f"{label} pass: {p.count} requests (p90 from {p.count} samples), "
              f"latency p50 {1000 * statistics.median(p.latencies):.3f} ms at reference speed, "
              f"{1000 * statistics.median(p.wall):.3f} ms wall; unknown_ratio {p.unknown / p.count:.4f}, "
              f"error_ratio {len(p.errors) / p.count:.4f}")
        print("\n".join(stratum_table(p)))
    for req, outcome in errors[:20]:
        inputs = req.doc or req.argv or vars(req.case)
        print(f"FAILED {req.stratum}: {'; '.join(outcome.problems)[:300]} input={json.dumps(inputs)[:300]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6f} {unit}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, provenance=info), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
