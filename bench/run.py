"""privmap benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload study-3k --seed 1 --seconds 30 --trace 0

Run from the root of a privmap checkout; the package is imported from its
``src`` directory. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones. Everything the run writes
goes under ``.bench_out/`` in the checkout. Exit code 0 means every pass ran
and every correctness check held; 1 means a pass raised or a check failed;
2 means the checkout holds no privmap sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
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

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
NAMES = ("study-3k", "pipeline-10k")
SETUP_REPS = 3
# one BLAS thread, set before numpy loads: with two cores a second BLAS
# thread competes with the interpreter and turns dense kernels into noise
BLAS_THREADS = "1"
MIN_PASSES = 2  # the determinism check compares digests across passes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "toy"), default="full", help="toy: smoke-test sizes")
    return ap.parse_args(argv)


def blas_threads() -> dict[str, int]:
    """Thread count reported by every OpenBLAS the process has loaded."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                out[Path(path).name] = fn()
                break
    return out


def environment(load: tuple[float, float, float]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
        "nproc": os.cpu_count(),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_loaded": blas_threads(),
        "jobs": 1,
        "loadavg_at_start": list(load),
    }


def import_seconds(src: Path) -> float:
    """Median wall time of a fresh interpreter importing privmap."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import privmap"], env=env, check=True)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def phase(tracer, name):
    return tracer.phase(name) if tracer is not None else contextlib.nullcontext()


class Run:
    """Set-up, timed passes and checks of one workload in this process."""

    def __init__(self, workload, toy, seed: int, out_dir: Path, tracer):
        self.wl, self.toy, self.seed, self.out, self.tracer = workload, toy, seed, out_dir, tracer
        self.checks: dict[str, bool] = {}
        self.ops = 0
        self.failed_ops = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.digests: set[str] = set()
        self.bytes_written = 0

    def check(self, prefix: str, results: dict[str, bool]) -> None:
        for name, ok in results.items():
            self.checks[f"{prefix}{name}"] = ok
            if not ok:
                print(f"check failed: {prefix}{name}", file=sys.stderr)

    def setup(self) -> float:
        """Import, warm-up and input generation; returns ``setup_s``."""
        import_s = import_seconds(ROOT / "src")
        t = time.perf_counter()
        warm_dir = self.out / "warm"
        warm_dir.mkdir()
        self.toy.run_pass(self.toy.make_inputs(self.seed, warm_dir), self.seed, warm_dir / "pass")
        shutil.rmtree(warm_dir)
        warm_s = time.perf_counter() - t
        if self.tracer is not None:
            self.tracer.install()
        input_s = []
        for rep in range(SETUP_REPS):
            t = time.perf_counter()
            with phase(self.tracer, "bench.setup"):
                self.inputs = self.wl.make_inputs(self.seed, self.out)
            input_s.append(time.perf_counter() - t)
            self.check(f"setup{rep}.", self.wl.check_inputs(self.inputs))
        t = time.perf_counter()
        with phase(self.tracer, "bench.warm"):
            self.wl.warm_inputs(self.inputs, self.seed)
        warm_s += time.perf_counter() - t
        if self.tracer is not None:
            self.tracer.uninstall()
        print(f"setup: import {import_s:.6g} s, warm-up {warm_s:.6g} s, inputs {tail(input_s)}")
        return import_s + warm_s + statistics.median(input_s)

    def one_pass(self, traced: bool) -> float:
        k = len(self.walls)
        pass_dir = self.out / f"pass-{k}"
        self.ops += self.wl.ops_per_pass
        t, c = time.perf_counter(), time.process_time()
        with phase(self.tracer if traced else None, "bench.pass"):
            result = self.wl.run_pass(self.inputs, self.seed, pass_dir)
        wall = time.perf_counter() - t
        self.cpus.append(time.process_time() - c)
        checks, digest, nbytes = self.wl.check_pass(result, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        self.check(f"pass{k}.", checks)
        self.digests.add(digest)
        self.bytes_written = nbytes
        self.walls.append(wall)
        return wall

    def measure(self, seconds: float) -> float | None:
        """Timed passes for ``seconds``; with a tracer, one untraced pass and
        then traced ones. Returns the tracing overhead in seconds."""
        start = time.perf_counter()
        if self.tracer is None:
            while len(self.walls) < MIN_PASSES or time.perf_counter() - start < seconds:
                self.one_pass(False)
            return None
        untraced = self.one_pass(False)
        self.tracer.install()
        traced = []
        while len(self.walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            traced.append(self.one_pass(True))
        self.tracer.uninstall()
        return statistics.median(traced) - untraced


def tail(values: list[float]) -> str:
    """Median, plus the highest percentile with ten samples beyond it, or
    the maximum when that percentile would not lie above the median; in
    seconds."""
    values = sorted(values)
    n = len(values)
    if n <= 20:
        return f"median {statistics.median(values):.6g} s, max {values[-1]:.6g} s, n={n}"
    return f"median {statistics.median(values):.6g} s, p{100 * (n - 10) / n:.4g} {values[n - 11]:.6g} s, n={n}"


def main(argv=None) -> int:
    args = parse_args(argv)
    load = os.getloadavg()
    src = ROOT / "src"
    if not (src / "privmap" / "__init__.py").is_file():
        print(f"error: no privmap package under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import privmap

    if not Path(privmap.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: privmap imported from {privmap.__file__}, not {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    toy = workloads.TOY[args.workload]
    wl = toy if args.scale == "toy" else workloads.WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    env = environment(load)
    tracer = tracing.Tracer() if args.trace else None
    run = Run(wl, toy, args.seed, out_dir, tracer)

    overhead = fit_setup = None
    try:
        setup_s = run.setup()
        overhead = run.measure(args.seconds)
        if tracer is not None:
            fit_setup = run.wl.fit_setup_s(run.inputs, args.seed)
    except Exception:
        traceback.print_exc()
        run.failed_ops += 1
    if len(run.digests) > 1:
        run.check("", {"digests_identical_across_passes": False})

    failed = run.failed_ops + sum(not ok for ok in run.checks.values())
    attempted = max(run.ops + len(run.checks), 1)
    if run.failed_ops:
        metrics = {}
    elif tracer is None:
        wall = statistics.median(run.walls)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (setup_s, "s"),
            "items_per_s": (wl.items_per_pass / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"wall_s per pass: {tail(run.walls)}")
    else:
        layers = tracing.layer_metrics(
            tracer.spans, leaves=wl.leaves, fit_setup_s=statistics.median(fit_setup) if fit_setup else None
        )
        layers["trace.overhead_s"] = overhead
        layers["pipeline.bytes_written"] = run.bytes_written
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in layers.items()}
        tracer.write(out_dir / "trace.json", {"workload": args.workload, "seed": args.seed, "env": env})
        fits = [s.duration for s in tracer.spans if s.name == "carmodel.fit"]
        if fits:
            print(f"carmodel.fit_s per fit: {tail(fits)}")
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        print("error: a metric is not a finite number", file=sys.stderr)
        failed += 1

    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({"env": env, "walls": run.walls, "cpus": run.cpus, **result}, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
