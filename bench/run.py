"""Benchmark for spanmeta: three workloads driven from outside the program.

Run from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``):

    python3 bench/run.py --workload reproduce --seed 1 --seconds 25 --trace 0

Workloads (see NOTES.md for why each exists):

  reproduce    ``spanmeta reproduce`` on the bundled tables, BLAS at 1 thread;
               the same at 2 threads in a child process; ``spanmeta meta cv``.
  train        ``spanmeta train`` for the CRF and the baseline on a seeded
               corpus; ``spanmeta eval`` of the CRF's held-out predictions.
  tag_profile  tagging a 10x corpus with each pre-trained labeler through
               ``spanmeta eval``; ``spanmeta profile`` on that corpus.

Ops run in rounds, one or more of each kind per round, until ``--seconds``
have passed. Every op's output is checked; an op that raises or fails its
check counts as failed. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from ``layers.py``. The line before it is a record of the environment,
sample counts, medians, percentiles and the named per-workload rates.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("reproduce", "train", "tag_profile")

# End-to-end slots: mean seconds per op of each workload's three op kinds.
SLOTS = {
    "reproduce": ("reproduce", "reproduce_2t", "meta_cv"),
    "train": ("train_crf", "train_baseline", "eval"),
    "tag_profile": ("tag_crf", "tag_baseline", "profile"),
}
# The per-workload rates, by the names they are discussed under.
RATES = {
    "train_crf_tok_s": "train_crf",
    "train_baseline_tok_s": "train_baseline",
    "eval_tok_s": "eval",
    "tag_crf_tok_s": "tag_crf",
    "tag_baseline_tok_s": "tag_baseline",
    "profile_tok_s": "profile",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # this process plus two set-up-only children
# Share of --seconds for the in-process ops of reproduce; the 2-thread child,
# whose ops take about five times as long, gets the rest.
IN_PROCESS_SHARE = 0.4
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
CHILD_TIMEOUT_S = 120
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_LISTED_PROBLEMS = 20


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: how this script runs its own child processes.
    p.add_argument("--role", choices=("main", "setup", "reproduce"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--blas-threads", type=int, default=1, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Timing loop


@dataclass
class Samples:
    times: dict = field(default_factory=lambda: defaultdict(list))  # kind -> s per op
    failed_times: dict = field(default_factory=lambda: defaultdict(list))
    tokens: dict = field(default_factory=lambda: defaultdict(int))  # kind -> tokens in all ops
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    problems: list = field(default_factory=list)

    def add_counts(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems += other["problems"]


def _run_op(kind, tracer):
    """Time one op and check it; returns (seconds, problems, tokens)."""
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    try:
        out = kind.run()
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        return time.perf_counter() - t0, [f"{kind.name} raised {exc!r}"], 0
    finally:
        if tracer is not None:
            tracer.enabled = False
            tracer.end_op()
    seconds = time.perf_counter() - t0
    try:
        problems, tokens = kind.check(out)
    except Exception as exc:
        problems, tokens = [f"checking {kind.name} raised {exc!r}"], 0
    return seconds, problems, tokens


def run_round(kinds, s: Samples, tracer=None) -> None:
    """One round: each op kind ``repeat`` times. Only ops that pass their
    check become timed samples."""
    for kind in kinds:
        for _ in range(kind.repeat):
            s.attempted += 1
            seconds, problems, tokens = _run_op(kind, tracer)
            if problems:
                s.failed += 1
                s.failed_times[kind.name].append(seconds)
                for problem in problems:
                    print(f"bench: {problem}", file=sys.stderr)
                s.problems += problems
                continue
            s.times[kind.name].append(seconds)
            s.tokens[kind.name] += tokens
    s.rounds += 1


def _another_round(start: float, rounds: int, min_rounds: int, budget_s: float) -> bool:
    """True while under ``min_rounds``, or while one more round of the
    mean length so far would still end within ``budget_s``."""
    if rounds < min_rounds:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / rounds <= budget_s


def run_rounds(kinds, budget_s: float, min_rounds: int, tracer=None) -> Samples:
    s = Samples()
    start = time.perf_counter()
    while _another_round(start, s.rounds, min_rounds, budget_s):
        run_round(kinds, s, tracer)
    return s


def summary(values: list) -> dict:
    """Sample count, mean, median, and the highest percentile with at least
    ten samples beyond it (nearest rank), where one exists."""
    n = len(values)
    out = {
        "n": n,
        "mean": statistics.fmean(values) if values else None,
        "median": statistics.median(values) if values else None,
        "tail": None,
        "values": values,
    }
    ordered = sorted(values)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out["tail"] = {"percentile": p, "value": ordered[math.ceil(p / 100 * n) - 1]}
            break
    return out


def op_times(samples: Samples, kind: str) -> list:
    """Times of the ops that passed; of those that failed if none passed,
    so a run whose every op fails still reports, with ``correct`` false."""
    return samples.times[kind] or samples.failed_times[kind]


# ---------------------------------------------------------------------------
# Environment


def _openblas(package) -> dict | None:
    """Thread count and build string of the OpenBLAS a package bundles."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for suffix in ("64_", ""):
            threads = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(handle, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"threads": threads(), "config": config().decode()}
    return None


def _cpu_model() -> str | None:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or None


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "seed": args.seed,
        "blas_threads": args.blas_threads,
        "blas_pinned_by": "setting " + ", ".join(BLAS_ENV) + " before numpy is imported",
        "blas_runtime": {"numpy": _openblas(numpy), "scipy": _openblas(scipy)},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


# ---------------------------------------------------------------------------
# Child processes


def spawn(args, role: str, seconds: float = 0.0, trace: int = 0, blas_threads: int = 1) -> dict:
    """Run this script in another role and return its last stdout line."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--blas-threads", str(blas_threads),
    ]  # fmt: skip
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def role_setup(args, workdir: Path) -> int:
    from workloads import WORKLOADS

    WORKLOADS[args.workload](workdir, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
    return 0


def role_reproduce(args, workdir: Path) -> int:
    """``spanmeta reproduce`` ops at ``--blas-threads``; with ``--trace 1``
    also the process CPU time per wall second inside ``meta.fit_ols``."""
    import layers
    from workloads import Reproduce

    work = Reproduce(workdir, args.seed)
    kinds = [k for k in work.kinds if k.name == "reproduce"]
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    s = run_rounds(kinds, args.seconds, 1 if args.trace else MIN_ROUNDS, tracer)
    out = {
        "times": op_times(s, "reproduce"),
        "attempted": s.attempted,
        "failed": s.failed,
        "problems": s.problems,
        "environment": environment(args),
    }
    if tracer is not None:
        tracer.uninstall()
        fit = tracer.stats["meta.fit_ols"]
        out["fit_ols"] = {"calls": fit.calls, "cpu_s": fit.cpu_s, "wall_s": fit.total_s}
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# The measured run


def _total_time(samples: Samples) -> float:
    return sum(map(sum, samples.times.values())) + sum(map(sum, samples.failed_times.values()))


def measure(args, work, record: dict) -> tuple[Samples, dict, dict]:
    """The end-to-end run: rounds in this process with BLAS at 1 thread,
    then, on ``reproduce``, the 2-thread ops in a child process."""
    reproduce = args.workload == "reproduce"
    in_process_s = args.seconds * (IN_PROCESS_SHARE if reproduce else 1.0)
    samples = run_rounds(work.kinds, in_process_s, MIN_ROUNDS)
    if reproduce:
        child = spawn(args, "reproduce", args.seconds - in_process_s, blas_threads=2)
        samples.times["reproduce_2t"] = child["times"]
        samples.add_counts(child)
        record["environment_2t"] = child["environment"]
    # Mean seconds per op: the run's op time over its op count, the inverse
    # of throughput. On a host whose speed flips between two levels, the
    # median of a few long ops jumps between them; the mean moves smoothly.
    slots = dict(zip(("op1_s", "op2_s", "op3_s"), SLOTS[args.workload]))
    metrics = {name: statistics.fmean(op_times(samples, kind)) for name, kind in slots.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    units = {"setup_s": "s", "peak_rss_mb": "MB", "op1_s": "s", "op2_s": "s", "op3_s": "s"}

    named = {name: samples.tokens[kind] / sum(samples.times[kind])
             for name, kind in RATES.items() if samples.tokens[kind]}  # fmt: skip
    if reproduce:
        named.update(reproduce_s=metrics["op1_s"], reproduce_2t_s=metrics["op2_s"],
                     meta_cv_s=metrics["op3_s"])  # fmt: skip
    named["op_fail_ratio"] = samples.failed / samples.attempted
    named["peak_rss_mb"] = metrics["peak_rss_mb"]
    record.update(
        slots=slots,
        rounds=samples.rounds,
        ops={kind: summary(times) for kind, times in samples.times.items()},
        named_metrics=named,
    )
    return samples, metrics, units


def measure_traced(args, work, record: dict) -> tuple[Samples, dict, dict]:
    """The per-layer run: untraced and traced rounds alternate, so the gap
    between their total op times is the tracing overhead; on ``reproduce``
    one traced 2-thread op in a child gives ``meta.fit_ols.cpu_per_wall``."""
    import layers

    reproduce = args.workload == "reproduce"
    in_process_s = args.seconds * (IN_PROCESS_SHARE if reproduce else 1.0)
    untraced, samples = Samples(), Samples()
    tracer = layers.Tracer()
    start = time.perf_counter()
    while _another_round(start, samples.rounds, MIN_TRACED_ROUNDS, in_process_s):
        run_round(work.kinds, untraced)
        tracer.install()
        try:
            run_round(work.kinds, samples, tracer)
        finally:
            tracer.uninstall()
    metrics = layers.layer_metrics(tracer, samples.rounds)
    metrics["trace.overhead_ratio"] = _total_time(samples) / _total_time(untraced) - 1.0
    metrics["meta.fit_ols.cpu_per_wall"] = 0.0
    if reproduce:
        child = spawn(args, "reproduce", 0.0, trace=1, blas_threads=2)
        samples.add_counts(child)
        fit = child["fit_ols"]
        metrics["meta.fit_ols.cpu_per_wall"] = fit["cpu_s"] / fit["wall_s"]
        record["fit_ols_2t"] = fit
    samples.add_counts(vars(untraced))
    problems = layers.layer_problems(tracer, args.workload)
    for problem in problems:
        print(f"bench: {problem}", file=sys.stderr)
    record["layer_problems"] = problems  # a layer gone missing or astray fails the run
    units = {name: unit for name, unit, _ in layers.metric_names()}
    if units.keys() != metrics.keys():
        raise RuntimeError("per-layer metrics do not match layers.metric_names()")
    record["traced_rounds"] = samples.rounds
    return samples, metrics, units


def role_main(args, workdir: Path) -> int:
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](workdir, args.seed)
    setup_samples = [time.perf_counter() - STARTED]
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "environment": environment(args)}  # fmt: skip
    if args.trace:
        samples, metrics, units = measure_traced(args, work, record)
    else:
        setup_samples += [spawn(args, "setup")["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        samples, metrics, units = measure(args, work, record)
        metrics["setup_s"] = statistics.median(setup_samples)
        record["setup_samples_s"] = setup_samples
    declared = Path("BENCHMARK.json")
    if declared.is_file():
        section = json.loads(declared.read_text(encoding="utf-8"))
        names = {m["name"] for m in section["per_layer" if args.trace else "end_to_end"]}
        if names != units.keys():
            raise RuntimeError("metrics differ from those BENCHMARK.json declares")
    record["problems"] = samples.problems[:MAX_LISTED_PROBLEMS]
    print(json.dumps({"record": record}))
    result = {
        "correct": samples.failed == 0 and not record.get("layer_problems"),
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


ROLES = {"main": role_main, "setup": role_setup, "reproduce": role_reproduce}


def main() -> int:
    args = parse_args()
    root = Path.cwd()
    if not (root / "src" / "spanmeta" / "__init__.py").is_file():
        print("bench: run from the root of a spanmeta checkout (no src/spanmeta here)",
              file=sys.stderr)  # fmt: skip
        return 2
    for var in BLAS_ENV:  # before anything imports numpy
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        return ROLES[args.role](args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()


if __name__ == "__main__":
    sys.exit(main())
