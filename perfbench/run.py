"""Benchmark of the multinoise package: one workload per run.

    python3 perfbench/run.py --workload design|certify|verify \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Set-up (a fresh interpreter importing the package, then building the
workload from the seed and warming it up) is repeated SETUP_REPEATS times
and its median reported. Then whole passes over the workload run back to
back, one caller in one process, until the next pass would end after
``--seconds`` (at least one pass). The outputs of the first pass are checked for correctness, and every later
pass must reproduce them bit for bit.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the first half of the time runs
untraced passes and the second half traced ones; the JSON object then holds
the per-layer metrics of the traced passes (medians over passes), and the
spans are written once, at the end, to ``perfbench/out/``. The lines before
the JSON object repeat every metric by name with its unit.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import enum  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5


def _fingerprint(obj):
    """Bit-exact, comparable summary of an output."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, obj.tobytes())
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            _fingerprint(getattr(obj, f.name))
            for f in dataclasses.fields(obj))
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(x) for x in obj)
    if isinstance(obj, BaseException):
        return (type(obj).__name__, str(obj))
    return obj


class Tally:
    """Operations attempted, failed and ended in a domain outcome, and the
    outputs of the first pass, which every later pass must reproduce."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[tuple[int, str]] = set()
        self.domain: Counter = Counter()
        self.first: dict | None = None
        self._reference: dict = {}

    def keep(self, index: int, outputs: dict) -> None:
        """Keep the first pass's outputs; compare later passes with them."""
        if self.first is None:
            self.first = outputs
            self._reference = {label: _fingerprint(out)
                               for label, out in outputs.items()}
            return
        for label, out in outputs.items():
            if out is not None and _fingerprint(out) != self._reference[label]:
                print(f"check failed: pass {index} {label} differs from "
                      "pass 0", file=sys.stderr)
                self.failed.add((index, label))


def run_pass(workload, index: int, tally: Tally, domain_errors):
    """Run every step once; return per-operation times and outputs."""
    times, outputs = {}, {}
    for step in workload.steps:
        t0 = perf_counter()
        try:
            out = step.run()
        except domain_errors as exc:
            out = exc
            if step.is_op:
                tally.domain[type(exc).__name__] += 1
        except Exception:  # noqa: BLE001 - one failed step must not stop the run
            out = None
            print(f"pass {index} step {step.label} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            if step.is_op:
                tally.failed.add((index, step.label))
        elapsed = perf_counter() - t0
        if step.is_op:
            tally.attempted += 1
            times[step.label] = elapsed
            outputs[step.label] = out
    return times, outputs


def measure(workload, budget: float, tally: Tally, domain_errors,
            tracer=None, first_index: int = 0):
    """Run passes until the next one would end after ``budget`` seconds.
    Returns the pass times, the operation times of each pass and, when
    traced, the per-layer metrics of each pass."""
    walls, op_times, layers = [], [], []
    start = perf_counter()
    while True:
        index = first_index + len(walls)
        t0 = perf_counter()
        times, outputs = run_pass(workload, index, tally, domain_errors)
        walls.append(perf_counter() - t0)
        op_times.append(times)
        if tracer is not None:
            layers.append(tracer.end_pass())
        tally.keep(index, outputs)
        if perf_counter() - start + walls[-1] > budget:
            return walls, op_times, layers


def check_outputs(workload, tally: Tally, domain_errors) -> None:
    """Check the outputs of the first pass."""
    for label, out in tally.first.items():
        if out is None or isinstance(out, domain_errors):
            continue
        reason = workload.check(label, out)
        if reason is not None:
            print(f"check failed: {label}: {reason}", file=sys.stderr)
            tally.failed.add((0, label))


def _quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles (q in 1..99)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(ROOT),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own git directory, read from its files; a
    checkout that is not a git repository reports ``unknown``."""
    git = root / ".git"
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
    return "unknown"


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter that imports the package."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import multinoise.cli"], env=env,
                   cwd=src, check=True)
    return perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["design", "certify", "verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "multinoise" / "__init__.py").is_file():
        print(f"error: no multinoise package under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import multinoise
    import tracing
    import workloads

    domain_errors = (multinoise.UnstabilizableError,
                     multinoise.NotMeanSquareStableError)
    setups = []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds(src)
        t0 = perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.warm_up()
        setups.append((import_s, perf_counter() - t0))
    setup_s = statistics.median(a + b for a, b in setups)

    tally = Tally()
    if args.trace:
        walls, passes, _ = measure(workload, args.seconds / 2, tally,
                                   domain_errors)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_walls, traced, layers = measure(
                workload, args.seconds / 2, tally, domain_errors, tracer,
                first_index=len(walls))
        finally:
            tracer.uninstall()
        passes += traced
        spans_file = (HERE / "out" /
                      f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(spans_file)
    else:
        walls, passes, _ = measure(workload, args.seconds, tally,
                                   domain_errors)
    check_outputs(workload, tally, domain_errors)

    op_times = [t for times in passes for t in times.values()]
    failed = len(tally.failed)
    e2e = [
        ("setup_s", setup_s, "s"),
        ("wall_s", statistics.median(walls), "s"),
        ("op_p50_s", statistics.median(op_times), "s"),
        ("op_p90_s", _quantile(op_times, 90), "s"),
        ("peak_rss_mb",
         resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    ]
    extras = [("fail_ratio", failed / tally.attempted, "ratio")]
    op_median = {label: statistics.median(times[label] for times in passes)
                 for label in passes[0]}
    extras += workload.extra(tally.first, op_median)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}"
          f"  operations/pass {len(passes[0])}  op samples {len(op_times)}"
          f"  redraws {sum(p.redraws for p in workload.plants)}")
    print("environment " + json.dumps(environment(args.seed)))
    print("set-ups (import + instances and warm-up): " + ", ".join(
        f"{a:.4f} + {b:.4f} s" for a, b in setups))
    print("pass times " + ", ".join(f"{w:.4f}" for w in walls) + " s")
    print("domain outcomes " + json.dumps(dict(tally.domain)))
    for name, value, unit in e2e + extras:
        print(f"{name:<16} {value:.6g} {unit}")

    if args.trace:
        per_layer = {}
        for name in layers[0]:
            values = [m[name] for m in layers]
            # counts repeat exactly between passes; keep them whole numbers
            per_layer[name] = (values[0] if len(set(values)) == 1
                               else statistics.median(values))
        per_layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        print(f"traced passes {len(traced_walls)}, wall "
              f"{statistics.median(traced_walls):.6g} s; spans written to "
              f"{spans_file.relative_to(ROOT)}")
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            value = per_layer[name]
            print(f"{name:<52} {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit in e2e}
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
