#!/usr/bin/env python3
"""Closed-loop CLI benchmark of metricregions.

    python3 bench/run.py --workload predict_bulk --seed 1 --seconds 25 --trace 0

Runs one workload in this process with one caller.  Set-up (timed as
``setup_s``, repeated ``SETUP_REPEATS`` times) ends with one warm-up call;
after it, each op is one in-process call to
``metricregions.cli.main(argv)`` on fresh inputs drawn from the seed and
the op index.  Ops repeat until their timed total reaches ``--seconds``
(and at least ``MIN_OPS`` have run).  Each op's output is checked outside
the timed interval; a non-zero exit code, an exception or a failed check
counts the op as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the layers are wrapped (see ``tracing.py``) and it
reports the per-layer metrics instead.  Spans and a full ``result.json``
go under ``.bench_runs/`` at the repository root; the run's input and
output files are deleted when it ends.

The BLAS thread count is pinned before NumPy loads: an unpinned BLAS
moves op times between runs far more than a single thread does.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"

DEFAULT_SEED = 1
# a seed kept out of tuning, for re-checking a claim made on other seeds
HELDOUT_SEED = 1009
SETUP_REPEATS = 3
# every run makes at least this many ops; per-layer counts come from them
MIN_OPS = 3
# no new op starts after this much wall time, so a run ends well within 180 s
WALL_BUDGET_S = 140.0

# the tracer's layers, then the traced and untraced throughput of the same
# run and the tracing overhead as a share of the untraced throughput
PER_LAYER = list(tracing.LAYER_METRICS) + [
    ("trace.ops_per_s", "1/s", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_share", "ratio", "lower"),
]

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class OpRecord:
    op: int
    seed: int
    seconds: float
    ok: bool
    sha256: str | None
    problems: list = field(default_factory=list)


def op_tail(times: list) -> tuple:
    """(time, percentile, ops beyond it) of the highest nearest-rank
    percentile with at least ten ops beyond it; with ten ops or fewer,
    the fastest op."""
    ordered = sorted(times)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_op(workload, op: int, tracer=None) -> OpRecord:
    """Prepare, time and check one op; every failure is recorded, not raised."""
    from metricregions import cli

    argv = workload.prepare(op)
    workload.output_path.unlink(missing_ok=True)
    problems = []
    # garbage left by the previous op's check is not this op's work
    gc.collect()
    if tracer is not None:
        tracer.op = op
    start = perf_counter()
    try:
        code = cli.main(argv)
    except Exception:
        code = None
        problems.append(traceback.format_exc())
    finally:
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.op = None
    if code != 0:
        problems.append(f"exit code {code}")
    else:
        try:
            problems += workload.check(op)
        except Exception:
            problems.append("check raised:\n" + traceback.format_exc())
    digest = _sha256(workload.output_path) if workload.output_path.exists() else None
    return OpRecord(op, workload.seed_of(op), seconds, not problems, digest, problems)


def run_ops(workload, seconds: float, tracer=None, deadline: float = float("inf")) -> list:
    """Closed loop with one caller until the timed total reaches ``seconds``.

    With a tracer, even ops are traced and odd ops are not, so the two
    halves see the same machine conditions and their times give the
    tracing overhead.
    """
    min_ops = MIN_OPS if tracer is None else 2 * MIN_OPS
    records = []
    busy = 0.0
    while len(records) < min_ops or (busy < seconds and perf_counter() < deadline):
        op = len(records)
        record = run_op(workload, op, tracer if op % 2 == 0 else None)
        records.append(record)
        busy += record.seconds
    return records


def end_to_end_metrics(records: list, setup_times: list) -> dict:
    times = [r.seconds for r in records]
    tail, _, _ = op_tail(times)
    return {
        "ops_per_s": len(times) / sum(times),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# ---------------------------------------------------------------------------
# environment block


def _git_commit(root: Path):
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def _tree_sha256(root: Path) -> str:
    """Digest of the program's sources; names the code where no commit can."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "git_commit": _git_commit(ROOT),
        "src_sha256": _tree_sha256(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_repeats": SETUP_REPEATS,
        "min_ops": MIN_OPS,
    }


# ---------------------------------------------------------------------------
# entry point


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("predict_bulk", "fit_tuned_w2", "replicate_global"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import metricregions from this checkout's sources, or exit with status 1."""
    if not (SRC / "metricregions" / "__init__.py").is_file():
        sys.exit(f"bench: no metricregions package under {SRC}")
    sys.path.insert(0, str(SRC))
    import metricregions

    if Path(metricregions.__file__).resolve().parent != (SRC / "metricregions").resolve():
        sys.exit(f"bench: imported metricregions from {metricregions.__file__}, not {SRC}")


def main(argv=None) -> int:
    started = perf_counter()
    args = _parse(argv)
    _import_program()
    import workloads

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = run_dir / "work"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)

        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records = run_ops(workload, args.seconds, tracer, deadline=started + WALL_BUDGET_S)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not r.ok for r in records)
    times = [r.seconds for r in records]
    if tracer is None:
        values = end_to_end_metrics(records, setup_times)
        units = dict(END_TO_END)
    else:
        tracer.write_spans(run_dir / "spans.jsonl")
        traced = [r.seconds for r in records[0::2]]
        untraced = [r.seconds for r in records[1::2]]
        values = tracer.layer_metrics(len(traced), [r.op for r in records[0:2 * MIN_OPS:2]])
        values["trace.ops_per_s"] = len(traced) / sum(traced)
        values["trace.untraced_ops_per_s"] = len(untraced) / sum(untraced)
        values["trace.overhead_share"] = 1.0 - values["trace.ops_per_s"] / values["trace.untraced_ops_per_s"]
        units = {name: unit for name, unit, _ in PER_LAYER}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    tail, percentile, beyond = op_tail(times)
    env = environment(args)
    summary = {
        "failed_ops_share": failed / len(records),
        "op_tail": {"seconds": tail, "percentile": percentile, "ops_beyond": beyond, "ops": len(times)},
        "setup_times_s": setup_times,
    }

    print("env " + json.dumps(env, sort_keys=True))
    for r in records:
        state = "ok" if r.ok else "FAILED"
        print(f"op {r.op} seed {r.seed} {r.seconds:.4f} s {state} sha256 {r.sha256}")
        for problem in r.problems:
            print("  " + problem.rstrip().replace("\n", "\n  "))
    print(f"failed_ops_share {summary['failed_ops_share']} share ({failed} of {len(records)} ops)")
    print(f"op_tail_s is the p{percentile:.1f} of {len(times)} ops, {beyond} ops beyond it")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**result, "env": env, "summary": summary,
                   "ops": [asdict(r) for r in records]}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
