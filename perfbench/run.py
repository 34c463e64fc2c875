"""visir benchmark: one workload per run, or all of them.

    python3 perfbench/run.py --workload train_cli --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

The program is imported from ``src/`` next to this directory.  Set-up is
timed from the first line of this file.  With ``--trace 0`` the last line of
standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric.  See perfbench/README.md.
"""

import os
import sys
import time

# A fixed string-hash seed makes allocation order, and with it peak RSS,
# repeat between runs of one seed; the interpreter reads it only at start.
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train_cli", "experiment_small", "data_infer")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run that cannot reach its minimum cycles and samples stops this long
# after its deadline and reports the shortfall as a failed check.
OVERRUN_LIMIT_S = 60.0


def limit_blas_threads() -> None:
    """Set every BLAS thread-count variable to 1 before numpy loads.

    On a shared two-CPU machine a second BLAS thread made identical work
    spread about twice as wide between repeats, so every run uses one.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def probe_setup(args) -> dict:
    """Import time and one set-up of the workload, timed in a fresh interpreter.

    The child does what this process did before its loop.  Its memory does
    not count in this process's peak RSS, and this process's state is not
    touched while the loop is paused.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_facts(nproc: int) -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas_version, blas_threads = "unknown", None
    libdirs = [Path(numpy.__file__).parent.parent / "numpy.libs", Path(numpy.__file__).parent / ".libs"]
    for lib in (p for d in libdirs for p in sorted(glob.glob(str(d / "*openblas*")))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                blas_threads = get_threads()
                blas_version = get_config().decode(errors="replace")
                break
        if blas_threads is not None:
            break
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
    }


class TraceSwitch:
    """Tells workloads whether tracing is on, and can flip it for a block."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    @property
    def active(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def set(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.install() if on else self.tracer.uninstall()

    @contextlib.contextmanager
    def opposite(self, traced: bool):
        """Run the block with tracing off if `traced`, on otherwise (when a tracer exists)."""
        before = self.active
        self.set(not traced)
        try:
            yield
        finally:
            self.set(before)


def run_one(args, nproc: int) -> int:
    import numpy  # noqa: F401  (timed as part of set-up)
    import visir
    import visir.cli
    import visir.data
    import visir.metrics
    import visir.model
    import visir.training

    if Path(visir.__file__).resolve().parent != SRC / "visir":
        print(f"error: visir was imported from {visir.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS, Recorder

    import_s = time.perf_counter() - PROCESS_T0
    tracer = Tracer(visir) if args.trace else None
    switch = TraceSwitch(tracer)
    rec = Recorder()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, work, rec, switch)
        switch.set(bool(args.trace))
        if tracer is not None:
            tracer.run_id = -1
        t0 = time.perf_counter()
        wl.setup()
        setup_times = [time.perf_counter() - t0]
        import_times = [import_s]
        if args.setup_probe:
            print(json.dumps({"import_s": import_s, "setup_s": setup_times[0], "record": wl.setup_record(),
                              "recorder": rec.state()}))
            return 0

        # Measured loop.  A traced run traces its odd cycles only; the ratio
        # of traced to untraced cycle times (cycle 0, the warm-up, left out)
        # is the tracing overhead.  An untraced run pauses the loop at evenly
        # spaced points to import and set up again in a fresh interpreter,
        # and then runs that much longer: the host's speed drifts over tens
        # of seconds, so set-ups spread over the run vary more independently
        # than back-to-back ones.
        repeats = 1 if args.trace else wl.setup_repeats
        start = time.perf_counter()
        deadline = start + args.seconds
        plain, traced = [], []
        i = 0
        while True:
            now = time.perf_counter()
            if len(setup_times) < repeats and now - start >= len(setup_times) * args.seconds / repeats:
                ok, probe, dt = rec.timed("set-up in a fresh interpreter", probe_setup, args)
                if not ok:
                    repeats = len(setup_times)  # counted as failed; the run goes on without more probes
                    continue
                setup_times.append(probe["setup_s"])
                import_times.append(probe["import_s"])
                wl.merge_setup(probe["record"])
                rec.merge(probe["recorder"])
                deadline += dt
                continue
            done = (now >= deadline and len(setup_times) == repeats and i >= wl.min_cycles and wl.enough()
                    and (traced or not args.trace))
            if done or now >= deadline + OVERRUN_LIMIT_S:
                break
            on = bool(args.trace) and i % 2 == 1
            switch.set(on)
            if tracer is not None:
                tracer.run_id = i if on else -3
            t0 = time.perf_counter()
            wl.cycle(i)
            (traced if on else plain).append(time.perf_counter() - t0)
            i += 1
        rec.check(i >= wl.min_cycles and wl.enough(), f"run reached {wl.min_cycles} cycles and enough samples")

        if tracer is not None:
            tracer.run_id = -2
        switch.set(bool(args.trace))
        wl.finish()
        switch.set(False)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        ratio = statistics.median(traced) / statistics.median(plain[1:]) if traced and plain[1:] else float("nan")
        values = tracer.per_layer(wl.unit_span, ratio)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        spans = tracer.write(OUT / f"spans-{tag}.npz")
        report = {"spans": spans, "span_file": f".perfbench_out/spans-{tag}.npz"}
    else:
        values = wl.metrics()
        import_s = statistics.median(import_times)
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
        extras = {name: {"value": v, "unit": u} for name, (v, u) in wl.extras().items()}
        extras["failed_share"] = {"value": rec.failed / max(rec.attempted, 1), "unit": "ratio"}
        report = {"extras": extras, "import_runs_s": import_times, "setup_runs_s": setup_times,
                  "samples": wl.samples()}
        for name, m in {**metrics, **extras}.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    facts = machine_facts(nproc)
    print("machine: " + json.dumps(facts))
    print(f"cycles: {len(plain) + len(traced)} ({len(traced)} traced)")
    for error in rec.errors:
        print(f"failure: {error}")
    result = {"correct": rec.failed == 0, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, **report, "machine": facts}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            print(f"== {name} (trace {trace})", flush=True)
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and set up, then print those times as JSON (used by a measuring run)")
    args = parser.parse_args()

    if not (SRC / "visir" / "__init__.py").is_file():
        print(f"error: no visir sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    nproc = len(os.sched_getaffinity(0))
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    return run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
