"""Run one benchmark workload; print its metrics, the last line as JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: the
next op starts when the previous one returns.  Set-up (import, input
documents, one untimed warm-up op) is repeated ``SETUP_REPEATS`` times and
its median reported as ``setup_s``.  Every op is checked outside its timed
region, and once per run the op is rerun and must give identical output.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half with spans and counters installed from
``tracing.py``, and reports the per-layer metrics plus the tracing
overhead.  A run record goes to ``.perfbench_out/`` in the checkout.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

#: BLAS threads for the float32 matmul branch.  At most nproc, and the same
#: on both sides of every comparison; set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3

#: Seconds the calibration kernel takes at the reference speed.  Every timed
#: interval is scaled by CAL_REF_S over the kernel's time measured next to it.
CAL_REF_S = 0.002
_CAL_WORDS = np.arange(1 << 16, dtype=np.uint64)

#: A tail percentile needs at least this many ops beyond it.
TAIL_OPS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

OUT_DIR = workloads.ROOT / ".perfbench_out"
WORK_DIR = workloads.ROOT / ".perfbench_work"


def _python_kernel():
    acc = 0
    for i in range(48_000):
        acc += i & 7
    return acc


def _numpy_kernel():
    acc = 0
    for _ in range(24):
        acc += int((((_CAL_WORDS * np.uint64(2654435761)) >> np.uint64(7)) & np.uint64(1023)).sum())
    return acc


#: calibration kernel per kind of op: interpreter-bound or array-bound
KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def calibrate(kind: str | None) -> float:
    """Seconds a fixed kernel, independent of the program, takes now.

    On a host whose cores are shared, CPU speed drifts from minute to minute,
    so each op's wall time is scaled by this kernel's time, measured between
    ops, to the speed at which the kernel takes CAL_REF_S.  Kind None means
    no kernel tracks the op's slowdowns, and its wall time is kept as is.
    """
    if kind is None:
        return CAL_REF_S
    times = []
    for _ in range(3):  # the median shrugs off one interrupted sample
        start = time.perf_counter()
        KERNELS[kind]()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(durations: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_OPS ops beyond it.

    Never below the median: with 2 * TAIL_OPS ops or fewer no percentile
    above it qualifies, and the (lower) median is reported.
    """
    ordered = sorted(durations)
    n = len(ordered)
    index = max(n - 1 - TAIL_OPS, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n


def timed_loop(wl, seconds: float, tracer=None):
    """Run ops until their summed wall time reaches ``seconds``.

    Returns each op's wall time, the same scaled to the reference speed by
    the calibrations on either side of it, the failures, and the first
    output's text.
    """
    wall, failures, first_text = [], [], None
    cal = [calibrate(wl.kernel)]
    while sum(wall) < seconds:
        index = len(wall)
        scope = tracer.op(index) if tracer is not None else nullcontext()
        error = None
        start = time.perf_counter()
        try:
            with scope:
                out = wl.op()
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        wall.append(time.perf_counter() - start)
        cal.append(calibrate(wl.kernel))
        problems = [error] if error else wl.check(out)
        if problems:
            failures.append({"op": index, "problems": problems})
        if first_text is None and error is None:
            first_text = out.text
    scaled = [w * 2 * CAL_REF_S / (a + b) for w, a, b in zip(wall, cal, cal[1:])]
    return wall, scaled, failures, first_text


def run_workload(jg, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", import_s: float = 0.0) -> dict:
    """Set up, warm up, time and check one workload in the current directory."""
    wl = workloads.WORKLOADS[name](jg, seed, size)
    cal = [calibrate(wl.kernel)]
    setup_wall = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        wl.setup()
        warm = wl.op()
        setup_wall.append(time.perf_counter() - start)
        cal.append(calibrate(wl.kernel))
    # the import ran just before the first calibration
    setups = [import_s * CAL_REF_S / cal[0] + w * 2 * CAL_REF_S / (a + b)
              for w, a, b in zip(setup_wall, cal, cal[1:])]
    start = time.perf_counter()
    wl.prepare_checks()
    warm_problems = wl.check(warm)
    check_prep_s = time.perf_counter() - start
    wl.expected_text = warm.text

    tracer = None
    if trace:
        wall, durations, failures, first_text = timed_loop(wl, seconds / 2)
        with tracing.installed(jg) as tracer:
            traced_wall, traced, traced_failures, _ = timed_loop(wl, seconds / 2, tracer)
        failures += [dict(f, traced=True) for f in traced_failures]
    else:
        wall, durations, failures, first_text = timed_loop(wl, seconds)
        traced_wall = traced = []
    rerun_identical = first_text is not None and wl.op().text == first_text

    if trace:
        metrics = tracer.per_op()
        untraced_p50 = statistics.median(durations)
        traced_p50 = statistics.median(traced)
        metrics.update({
            "trace.untraced_op_s_p50": untraced_p50,
            "trace.traced_op_s_p50": traced_p50,
            "trace.overhead_s": traced_p50 - untraced_p50,
        })
        units = tracing.metric_units()
    else:
        tail_s, tail_pct = tail(durations)
        metrics = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(durations),
            "op_s_tail": tail_s,
            "ops_per_s": len(durations) / sum(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    attempted = len(durations) + len(traced)
    return {
        "workload": name,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": len(durations),
        "traced_ops": len(traced),
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:5],
        "warmup_problems": warm_problems,
        "rerun_identical": rerun_identical,
        "correct": not failures and not warm_problems and rerun_identical,
        "op_s_tail_percentile": None if trace else tail_pct,
        "import_s": import_s,
        "setup_samples_s": setups,
        "setup_wall_s": setup_wall,
        "wall_op_s_p50": statistics.median(wall),
        "check_prep_s": check_prep_s,
        "reference_checked": wl.reference is not None,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "durations_s": durations,
        "wall_durations_s": wall,
        "traced_durations_s": traced,
        "traced_wall_durations_s": traced_wall,
        "tracer": tracer,
    }


def _git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    jg = workloads.import_program()
    import_s = time.perf_counter() - PROCESS_START
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    previous = os.getcwd()
    os.chdir(work)
    try:
        result = run_workload(jg, args.workload, args.seed, args.seconds,
                              bool(args.trace), import_s=import_s)
    finally:
        os.chdir(previous)
        shutil.rmtree(work)

    tracer = result.pop("tracer")
    result["machine"] = machine()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.jsonl")

    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} fail_frac = {result['fail_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} ops)")
    if not args.trace:
        print(f"{args.workload} op_s_tail is p{result['op_s_tail_percentile']:.1f} "
              f"of {result['ops']} ops")
    print("record " + json.dumps({k: v for k, v in result.items()
                                  if not k.endswith("durations_s")}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
