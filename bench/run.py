"""Benchmark of the kerrqgt command line, end to end and per layer.

Run from the root of a checkout (the program is imported from ./src):

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Each iteration runs one workload's CLI invocations (see workloads.py) through
``kerrqgt.cli.main`` in this process, into a fresh output directory, and then
checks the outputs outside the timed region (checks.py).  After one untimed
warm-up iteration, iterations repeat until ``--seconds`` is used up; timings
are medians over iterations.

The machine's speed drifts with other tenants' load, by up to half within
minutes, so the end-to-end time ``wall_ref`` is each iteration's wall time
divided by the time of a fixed reference computation run just before and just
after it: 48 full tridiagonal LAPACK solves of size 201 (the even block of the
bench-scale tensor workloads) on 2 threads.  The raw times are reported per
layer (``run.wall_s``, ``run.ref_s``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half the
budget on untraced iterations and half on traced ones (tracer.py) and prints
the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record (machine
facts, seed, generated arguments, per-iteration timings, failed checks) and
the traced spans are written under ``.bench_out/``.

BLAS and OpenMP are pinned to one thread before numpy is imported, so that
pool threads x BLAS threads stays within the core count.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import concurrent.futures  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy.linalg  # noqa: E402

import checks as gates  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [
    ("wall_ref", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("tolerance_used", "ratio"),
]
REF_SIZE = 201
REF_SOLVES = 48
REF_THREADS = 2
SETUP_SPAWNS = 3
SPAWN_TIMEOUT_S = 120
RESIDUAL_BOUND = 1e-10
OUT_DIR = ".bench_out"

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import kerrqgt.cli as cli
cli.assemble_config(cli.build_parser().parse_args(sys.argv[1:]))
print(repr(time.perf_counter() - start))
"""


def load_program(root: Path):
    """Import kerrqgt from the checkout's src/, and nowhere else."""
    src = root / "src"
    if not (src / "kerrqgt" / "cli.py").is_file():
        sys.exit(f"bench: no kerrqgt sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import kerrqgt.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"bench: kerrqgt was imported from {cli.__file__}, not {src}")
    return cli


def git_commit(root: Path) -> str:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_facts(root: Path) -> dict:
    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(root),
    }


def measure_setup(root: Path, argv: tuple) -> list[float]:
    """Cold `import kerrqgt` plus config assembly, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_SPAWNS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv, "--out", OUT_DIR],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=SPAWN_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def reference_time(pool, block) -> float:
    """Wall time of the fixed reference solves, the gauge of the machine's speed."""
    diag, off = block
    start = time.perf_counter()
    for _ in pool.map(lambda _: scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stev"),
                      range(REF_SOLVES)):
        pass
    return time.perf_counter() - start


def snapshot(out: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in out.iterdir() if p.is_file()}


def run_iteration(cli, workload, out: Path, tracer=None) -> dict:
    """Run every CLI step of a workload into ``out``; only the main() calls are timed."""
    out.mkdir(parents=True)
    steps = {}
    for step in workload.steps:
        before = snapshot(out)
        buffer = io.StringIO()
        guard = tracer.step(step.label) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(buffer), guard:
            start, cpu_start = time.perf_counter(), time.process_time()
            code = cli.main([*step.argv, "--out", str(out)])
            elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        if code != 0:
            raise RuntimeError(f"kerrqgt {' '.join(step.argv)} exited with {code}")
        after = snapshot(out)
        steps[step.label] = {
            "wall_s": elapsed,
            "cpu_s": cpu,
            "stdout": buffer.getvalue(),
            "changed": sorted(n for n in after if before.get(n) != after[n]),
        }
    return {"wall_s": sum(s["wall_s"] for s in steps.values()),
            "cpu_s": sum(s["cpu_s"] for s in steps.values()), "steps": steps}


def repeat(budget: float, once) -> list:
    """Call ``once`` at least once, and again while another call of the
    average length so far ends within half that length of ``budget`` seconds,
    so that on average the calls take the budget (a ``paper`` iteration is a
    third of it)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(once(len(results)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) > budget:
            return results


def trace_checks(workload, spans) -> list:
    """Bookkeeping probes that need the trace: k0 reuses the scaling report,
    and every decomposition meets the residual certificate."""
    found = []
    if workload.name == "paper":
        n_points = len(workload.params["ncut_list"])
        spectral = tracing.step_counts(spans, "k0", "qgt.qgt_spectral")
        rebuilt = tracing.step_counts(spans, "k0", "scaling.scaling_pipeline")
        found.append(gates.holds(f"k0 computes exactly {n_points} tensor points",
                                 spectral == n_points, str(spectral)))
        found.append(gates.holds("k0 reuses the scaling report", rebuilt == 0, str(rebuilt)))
    ratios = [s.info["residual"] / s.info["scale"] for s in spans
              if s.name == "eigensolver.eig_tridiagonal" and s.info]
    if ratios:
        found.append(gates.at_most("worst eigen residual / spectral scale", max(ratios),
                                   RESIDUAL_BOUND))
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="bench",
                        help="problem size; BENCHMARK.json measures 'bench'")
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = load_program(root)
    workload = workloads.build(args.workload, args.scale, args.seed)
    check, count_points = gates.CHECKS[workload.name]
    facts = machine_facts(root)
    setup = measure_setup(root, workload.steps[0].argv)

    base = root / OUT_DIR
    work = base / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer()
    traced_spans = []
    rng = numpy.random.default_rng(0)
    block = (rng.standard_normal(REF_SIZE), rng.standard_normal(REF_SIZE - 1))
    pool = concurrent.futures.ThreadPoolExecutor(REF_THREADS)
    try:
        # One untimed iteration first: the first run of a workload in a fresh
        # process is measurably slower than the ones after it.
        run_iteration(cli, workload, work / "warmup")
        refs = []

        def once(index: int, traced: bool = False) -> dict:
            out = work / f"{'traced' if traced else 'plain'}-{index}"
            tracer.spans = []
            tracer.recording = traced
            try:
                record = run_iteration(cli, workload, out, tracer if traced else None)
            finally:
                tracer.recording = False
            found = check(out, workload.params, record["steps"])
            if traced:
                traced_spans.append(tracer.spans)
                found += trace_checks(workload, tracer.spans)
                record["layers"] = tracing.layer_metrics(tracer.spans, record["cpu_s"])
            record["points"] = count_points(out)
            record["attempted"], record["failed"], record["used"] = gates.summarize(found)
            record["failed_checks"] = [f"{c.name}: {c.detail}" for c in found if not c.ok]
            for step in record["steps"].values():
                del step["stdout"]
            shutil.rmtree(out)
            return record

        def gauged(index: int) -> dict:
            """An untraced iteration between two reference timings."""
            if not refs:
                refs.append(reference_time(pool, block))
            record = once(index)
            refs.append(reference_time(pool, block))
            record["ref_s"] = (refs[-2] + refs[-1]) / 2.0
            record["wall_ref"] = record["wall_s"] / record["ref_s"]
            return record

        if args.trace:
            plain = repeat(args.seconds / 2, gauged)
            tracer.install()
            try:
                traced = repeat(args.seconds / 2, lambda i: once(i, traced=True))
            finally:
                tracer.uninstall()
        else:
            plain, traced = repeat(args.seconds, gauged), []
    finally:
        pool.shutdown()
        shutil.rmtree(work, ignore_errors=True)

    iterations = plain + traced
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in traced[0]["layers"]}
        for step in tracing.CLI_STEPS:
            metrics[f"cli.{step}.wall_s"] = statistics.median(
                r["steps"][step]["wall_s"] if step in r["steps"] else 0.0 for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["run.wall_s"] = wall
        metrics["run.ref_s"] = statistics.median(r["ref_s"] for r in plain)
        metrics["trace.overhead_ratio"] = (traced_wall - wall) / wall
        units = dict(tracing.PER_LAYER)
    else:
        metrics = {
            "wall_ref": statistics.median(r["wall_ref"] for r in plain),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "tolerance_used": max(r["used"] for r in iterations),
        }
        units = dict(END_TO_END)
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.scale}"
    base.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "scale": args.scale,
              "seconds": args.seconds, "trace": args.trace, "facts": facts,
              "steps": [{"label": s.label, "argv": list(s.argv)} for s in workload.steps],
              "setup_s": setup, "iterations": iterations, "result": result}
    (base / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced_spans:
        (base / f"{stem}.spans.json").write_text(json.dumps(
            [[s.to_dict() for s in spans] for spans in traced_spans]) + "\n")

    for line in sorted({c for r in iterations for c in r["failed_checks"]})[:20]:
        print(f"bench: failed check: {line}", file=sys.stderr)
    print(f"workload={workload.name} seed={args.seed} scale={args.scale} "
          f"iterations={len(plain)}+{len(traced)} commit={facts['commit'][:12]} "
          f"nproc={facts['nproc']} blas={facts['blas']!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
