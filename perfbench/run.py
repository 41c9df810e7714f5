"""qrotor benchmark: one seeded workload, timed, every output checked.

    python3 perfbench/run.py --workload lineshape-sweep --seed 1 --seconds 50 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The full result (provenance, sample counts,
failure messages) goes to ``.perfbench/results/<workload>/``; a traced run
also writes its spans there as JSON lines.

Load is one process running closed-loop jobs back to back: the next job
starts when the previous one has finished and been checked.  The only extra
threads are the package's own, in jobs run with ``--parallel 2``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
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
import traceback
from pathlib import Path

import physics
import verify
import workloads
from spans import Recorder

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
PROBE_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qrotor.cli; "
                "print(time.perf_counter() - t)")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result (not a failed job)."""


# -- job runners ------------------------------------------------------------

class Runner:
    """Runs jobs in this interpreter through the package's entry points."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import qrotor

        if Path(qrotor.__file__).resolve().parent != (root / "src" / "qrotor").resolve():
            raise BenchError(f"imported qrotor from {qrotor.__file__}, not from {root}/src")
        from qrotor import cli, fivelevel, raman, units

        self.cli, self.fivelevel, self.raman, self.units = cli, fivelevel, raman, units
        self.recorder = Recorder()

    def run(self, job, config: Path, out: Path, traced: bool):
        """Run one job: (seconds, failure message or None, result to check)."""
        if traced:
            self.recorder.install()
        try:
            with self.recorder.job(job.id):
                if job.command is None:
                    return self._ladder(job)
                return self._cli(job, config, out)
        finally:
            self.recorder.uninstall()

    def _cli(self, job, config: Path, out: Path):
        args = [job.command, "--config", str(config), "--out", str(out), *job.extra]
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                self.cli.cli.main(args, prog_name="qrotor", standalone_mode=False)
        except SystemExit as exc:
            return time.perf_counter() - start, f"exit {exc.code}: {buf.getvalue()[-400:]}", None
        except Exception:  # the loop must go on; the traceback is the failure
            return time.perf_counter() - start, traceback.format_exc(limit=4), None
        return time.perf_counter() - start, None, None

    def _ladder(self, job):
        p = job.params
        fl = self.fivelevel
        omega_r = physics.ladder_rabi_frequency(p["raman"])
        start = time.perf_counter()
        try:
            cfg = self.raman.RamanConfig(**p["raman"])
            model = fl.tuned_model(fl.FiveLevelModel(cfg, self.units.LI6,
                                                     omega_2L0=p["omega_2L0"]))
            n_periods = math.ceil(2.2 * math.pi / omega_r / (2 * math.pi / model.drive_frequency))
            times, pops = fl.evolve_populations(model, n_periods, p["steps_per_period"])
            om_fit, amplitude = fl.oscillation_frequency(times, pops[:, 1], omega_r)
        except Exception:  # the loop must go on; the traceback is the failure
            return time.perf_counter() - start, traceback.format_exc(limit=4), None
        return time.perf_counter() - start, None, (times, pops, om_fit, amplitude, omega_r)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the run ----------------------------------------------------------------

def _setup(args, root: Path, inputs: Path):
    """Fresh-interpreter import plus input generation, SETUP_REPEATS times."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    totals, imports, cycles = [], [], None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=root,
                               capture_output=True, text=True, timeout=120)
        spawned = time.perf_counter() - start
        if probe.returncode != 0:
            raise BenchError(f"import qrotor.cli failed: {probe.stderr.strip()[-400:]}")
        imports.append(float(probe.stdout.split()[-1]))
        start = time.perf_counter()
        cycles = workloads.generate(args.workload, args.seed, args.seconds, root / "configs")
        workloads.write_inputs(cycles, inputs)
        totals.append(spawned + time.perf_counter() - start)
    return statistics.median(totals), statistics.median(imports), cycles


def cpu_probe() -> float:
    """Median seconds of a fixed pure-Python and numpy work item.

    The same work on every commit, so a difference between the probes of two
    result sets is the machine's speed, not the program's.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((160, 160))
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        x = 0
        for k in range(400_000):
            x += k * k % 7
        for _ in range(20):
            np.linalg.eigvalsh(a + a.T)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _provenance(root: Path, args) -> dict:
    commit = None
    if (root / ".git").exists():     # a plain checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "qrotor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "click": importlib.metadata.version("click"),
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def run(args, root: Path, work: Path, spec: dict):
    """Set up, time whole job cycles, check every output; (result, runner)."""
    inputs, outdir = work / "inputs", work / "out"
    outdir.mkdir(parents=True, exist_ok=True)
    setup_s, import_s, cycles = _setup(args, root, inputs)
    references = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    runner = Runner(root)
    probe_before = cpu_probe()

    def execute(job, traced: bool):
        """Run one job; (seconds, problems), no problems meaning correct."""
        config = (root / "configs" / job.reference if job.reference
                  else inputs / f"{job.id}.json")
        out = outdir / f"{job.id}{'.traced' if traced else ''}.{job.out_ext}"
        elapsed, failure, result = runner.run(job, config, out, traced)
        if failure:
            return elapsed, [failure]
        if job.command is None:
            return elapsed, verify.check_ladder(job, result)
        return elapsed, verify.check_cli(job, out, references)

    execute(cycles[0][0], False)     # warm-up: lazy first-call costs, not timed
    records, failures = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for job in cycles[done % len(cycles)]:
            # a traced run runs each job untraced and traced, alternating
            # which goes first, so the pairs give the tracing overhead
            pair = (False, True) if len(records) % 4 == 0 else (True, False)
            for traced in pair if args.trace else (False,):
                elapsed, problems = execute(job, traced)
                records.append({"job": job.id, "kind": job.kind, "traced": traced,
                                "seconds": elapsed, "ok": not problems})
                if problems:
                    failures.append(f"{job.id} ({job.kind}{', traced' if traced else ''}): "
                                    + "; ".join(problems))
        done += 1
        # whole cycles only, so every run times the same mix; stop where the
        # timed phase ends closest to --seconds
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done >= args.seconds:
            break
    wall = time.perf_counter() - start
    probe = {"before": probe_before, "after": cpu_probe()}

    untraced = [r for r in records if not r["traced"]]
    times = [r["seconds"] for r in untraced]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    e2e = {
        "setup_s": setup_s,
        "job_s.p50": statistics.median(times),
        "job_s.p90": p90,
        "jobs_per_s": sum(r["ok"] for r in untraced) / wall,
        "peak_rss_mb": runner.peak_rss_mb(),
    }
    kinds = sorted({r["kind"] for r in untraced})
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": dict(_provenance(root, args), cpu_probe_s=probe),
        "attempted": len(records),
        "failed": len(failures),
        "failed_frac": len(failures) / len(records),
        "cycles": done,
        "timed_s": wall,
        "job_s.p90_basis": {"percentile": 90, "method": "statistics.quantiles(n=10, inclusive)",
                            "samples": len(times), "beyond": sum(t > p90 for t in times)},
        "per_kind_median_s": {k: statistics.median(r["seconds"] for r in untraced
                                                   if r["kind"] == k) for k in kinds},
        "per_kind_jobs": {k: sum(r["kind"] == k for r in untraced) for k in kinds},
        "failures": failures[:20],
        "jobs": records,
        "end_to_end": e2e,
    }
    if args.trace:
        base = sum(r["seconds"] for r in records if not r["traced"])
        traced = sum(r["seconds"] for r in records if r["traced"])
        measured = {"import.qrotor_cli_s": import_s, "trace.overhead_frac": traced / base - 1.0}
        names = [m["name"] for m in spec["per_layer"]]
        # sums over the traced jobs are divided by the cycles run, so a
        # count depends on the code and the seed, not on how many cycles fit
        result["per_layer"] = runner.recorder.layer_metrics(names, measured, per=done)
        result["spans_file"] = f"seed{args.seed}-trace1.spans.jsonl"
    return result, runner


def _print_result(result: dict, spec: dict, trace: int) -> None:
    print(f"{result['workload']} seed {result['provenance']['seed']}: "
          f"{result['attempted']} jobs, {result['failed']} failed "
          f"(failed_frac {result['failed_frac']:.4f}); p90 over "
          f"{result['job_s.p90_basis']['samples']} samples, "
          f"{result['job_s.p90_basis']['beyond']} beyond it")
    for line in result["failures"]:
        print("FAILED " + line, file=sys.stderr)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    metrics = {}
    for m in group:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:42s} {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    needed = [root / "BENCHMARK.json", root / "src" / "qrotor" / "cli.py", root / "configs"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        print(f"perfbench: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = root / ".perfbench" / "results" / args.workload
    work = root / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, runner = run(args, root, work, spec)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    stem = f"seed{args.seed}-trace{args.trace}"
    if args.trace:
        runner.recorder.dump(results / f"{stem}.spans.jsonl")
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    _print_result(result, spec, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
