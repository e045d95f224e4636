#!/usr/bin/env python3
"""Benchmark for unitpoly, standard library only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``solve``, ``canon``, ``quasigroup``, ``cli``.
One process, one thread, one caller waiting for each result (closed loop).
Set-up runs several times, each from cold program caches, and
``setup_s`` is the median of the time spent in the program's set-up calls.
Then rounds of timed calls, one call of each kind per round, run until
``--seconds`` have passed; every result is checked outside the timed call.
Gated times are normalized to host speed by an interleaved reference
kernel (hostspeed.py); raw medians and tails are printed beside them.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json. With ``--trace 1`` the loop
runs untraced for half the time and traced for the other half, and the
metrics are the per-layer metrics (spans.py), including the tracing
overhead. The lines above it name every per-kind latency, the output
digest and the run record written under perfbench/results/.

``--size tiny`` shrinks every modulus so each workload runs in seconds;
the self-tests use it.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "p50_geomean_ms": "ms",
    "peak_rss_mb": "MiB",
}

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
from hostspeed import Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_program():
    """Import unitpoly from this checkout's src/, never from elsewhere."""
    package_dir = SRC / "unitpoly"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no unitpoly sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import unitpoly
    import unitpoly.cli  # noqa: F401  (reached as unitpoly.cli by the cli workload)

    if Path(unitpoly.__file__).resolve().parent != package_dir.resolve():
        raise SystemExit(f"error: imported unitpoly from {unitpoly.__file__}, not {package_dir}")
    return unitpoly


def clear_program_caches(up) -> None:
    """Forget memoised tables so each set-up repetition starts cold."""
    for module in spans.package_modules(up):
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class SetupClock:
    """Runs set-up calls of the program and sums the time they take, raw
    and normalized to host speed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ns = 0
        self.calls = []  # (raw ns, calibration batch)
        self.calibrator = Calibrator()

    def __call__(self, fn, *args):
        start = time.perf_counter_ns()
        result = self.tracer.request("setup", fn, *args) if self.tracer else fn(*args)
        elapsed = time.perf_counter_ns() - start
        self.ns += elapsed
        self.calls.append((elapsed, self.calibrator.next_batch))
        self.calibrator.after(elapsed)
        return result

    @property
    def normalized_ns(self) -> float:
        return sum(ns * self.calibrator.scale(b) for ns, b in self.calls)


def output_key(result):
    """The part of a result that two correct commits must agree on."""
    if isinstance(result, BaseException):
        return ("raised", type(result).__name__)
    if isinstance(result, list):
        return [output_key(r) for r in result]
    coeffs = getattr(result, "coeffs", None)
    return tuple(coeffs) if coeffs is not None else result


class Loop:
    """Samples and verdicts of one closed-loop measurement."""

    def __init__(self, workload):
        # compact arrays, so the harness's own memory hardly depends on speed
        self.samples = {kind: array.array("q") for kind in workload.kinds}
        self.batches = {kind: array.array("q") for kind in workload.kinds}
        self.calibrator = Calibrator()
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0
        self.rounds = 0
        self.outputs = hashlib.sha256()
        self.inputs = hashlib.sha256()

    @property
    def ops_per_s(self) -> float:
        return self.attempted / (self.busy_ns / 1e9)


def measure(workload, seconds: float, tracer=None) -> Loop:
    rng = workload.stream("rounds")
    loop = Loop(workload)
    clock = time.perf_counter_ns
    deadline = time.perf_counter() + seconds
    while loop.rounds < workload.digest_rounds or time.perf_counter() < deadline:
        hashed = loop.rounds < workload.digest_rounds
        for op in workload.round(rng, loop.rounds):
            start = clock()
            try:
                result = tracer.request(op.kind, op.call) if tracer else op.call()
            except Exception as exc:  # a failed call is counted, the loop goes on
                elapsed = clock() - start
                result, ok = exc, False
                traceback.print_exc(file=sys.stderr)
            else:
                elapsed = clock() - start
                try:
                    ok = bool(op.check(result))
                except Exception:
                    ok = False
                    traceback.print_exc(file=sys.stderr)
            loop.attempted += 1
            loop.failed += not ok
            loop.busy_ns += elapsed
            loop.samples[op.kind].append(elapsed)
            loop.batches[op.kind].append(loop.calibrator.next_batch)
            loop.calibrator.after(elapsed)
            if hashed:
                loop.inputs.update(repr(op.raw).encode())
                loop.outputs.update(repr((op.kind, output_key(result))).encode())
        loop.rounds += 1
    return loop


def tail(sorted_ns):
    """p99 when at least ten samples lie beyond it, else the highest
    percentile that has ten beyond it (nearest rank): (pct, value, beyond)."""
    count = len(sorted_ns)
    if count < 20:
        return None
    rank = math.ceil(0.99 * count) if count >= 1000 else count - 10
    pct = 99.0 if count >= 1000 else 100.0 * rank / count
    return pct, sorted_ns[rank - 1], count - rank


def normalized_p50_ns(loop) -> dict[str, float]:
    """Per kind, the median of its calls scaled to the nominal host speed."""
    scale = loop.calibrator.scale
    return {
        kind: statistics.median(ns * scale(b) for ns, b in zip(samples, loop.batches[kind]))
        for kind, samples in loop.samples.items()
    }


def round_ops_per_s(loop) -> float:
    """Calls per second over one call of each kind, at normalized p50."""
    p50 = normalized_p50_ns(loop).values()
    return len(p50) / (sum(p50) / 1e9)


def kind_stats(loop, unit):
    """Raw median and tail, and the normalized median, of every kind."""
    scale = {"ms": 1e6, "us": 1e3}[unit]
    normalized = normalized_p50_ns(loop)
    out = {}
    for kind, samples in loop.samples.items():
        ordered = sorted(samples)
        entry = {"unit": unit, "samples": len(ordered),
                 "p50": statistics.median(ordered) / scale,
                 "p50_normalized": normalized[kind] / scale}
        found = tail(ordered)
        if found:
            entry["tail_pct"], entry["tail"], entry["tail_beyond"] = found
            entry["tail"] /= scale
        out[kind] = entry
    return out


def end_to_end(loop, setup_normalized_ns) -> dict[str, float]:
    """The gated metrics. Times are normalized to host speed (hostspeed.py)."""
    p50 = normalized_p50_ns(loop).values()
    return {
        "setup_s": statistics.median(setup_normalized_ns) / 1e9,
        "ops_per_s": round_ops_per_s(loop),
        "p50_geomean_ms": math.exp(sum(math.log(v / 1e6) for v in p50) / len(p50)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "unitpoly").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run(up, name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    workload = WORKLOADS[name](up, seed, tiny)
    workload.work_dir = RESULTS / f"work-{os.getpid()}"
    tracer = spans.Tracer() if trace else None
    setup_ns = []
    setup_normalized_ns = []
    try:
        if tracer:
            tracer.install(up)
        for _ in range(workload.setup_reps):
            clear_program_caches(up)
            gc.collect()
            clock = SetupClock(tracer)
            workload.setup(clock)
            setup_ns.append(clock.ns)
            setup_normalized_ns.append(clock.normalized_ns)
        if tracer:
            tracer.restore()
        workload.prepare()
        gc.collect()
        loop = measure(workload, seconds / 2 if trace else seconds)
        if tracer:
            tracer.install(up)
            tracer.phase = "loop"
            traced = measure(workload, seconds / 2, tracer)
    finally:
        if tracer:
            tracer.restore()
        if workload.work_dir.exists():
            shutil.rmtree(workload.work_dir)

    inputs = hashlib.sha256(repr(workload.setup_inputs()).encode())
    inputs.update(loop.inputs.digest())
    attempted, failed = loop.attempted, loop.failed
    if tracer:
        metrics = tracer.metrics(round_ops_per_s(loop) / round_ops_per_s(traced))
        units = dict(spans.per_layer_metrics())
        attempted += traced.attempted
        failed += traced.failed
    else:
        metrics = end_to_end(loop, setup_normalized_ns)
        units = END_TO_END
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "input_sha256": inputs.hexdigest(),
        "output_digest": loop.outputs.hexdigest(),
        "git_sha": git_sha(ROOT), "source_sha256": source_sha256(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "setup_runs_s": [ns / 1e9 for ns in setup_ns],
        "setup_runs_normalized_s": [ns / 1e9 for ns in setup_normalized_ns],
        "rounds": loop.rounds,
        "measured_ops_per_s": loop.ops_per_s,
        "host_kernel_ns_median": statistics.median(loop.calibrator.batches),
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted,
        "kinds": kind_stats(loop, workload.unit),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    if tracer:
        record["traced_kinds"] = kind_stats(traced, workload.unit)
        record["absent"] = tracer.absent
        record["unit_inverse_us_per_call"] = tracer.unit_inverse_us()
        RESULTS.mkdir(parents=True, exist_ok=True)
        spans_path = RESULTS / f"{record_stem(record)}.spans.csv.gz"
        tracer.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    return record


def summary_lines(record) -> list[str]:
    """Human-readable lines: every per-kind latency under its own name."""
    lines = [f"# unitpoly benchmark: workload={record['workload']} seed={record['seed']} "
             f"seconds={record['seconds']} trace={record['trace']} size={record['size']}"]
    kinds = record["kinds"]
    if record["workload"] == "cli":
        lines.append(f"cli_cmds_per_s {record['measured_ops_per_s']:.6g} 1/s "
                     f"({len(kinds)} script entries, per-entry latencies in the record)")
    else:
        for kind, entry in kinds.items():
            unit = entry["unit"]
            line = (f"{kind}_p50_{unit} {entry['p50']:.6g} {unit} ({entry['samples']} samples, "
                    f"normalized {entry['p50_normalized']:.6g} {unit})")
            if "tail" in entry:
                label = f"p{entry['tail_pct']:.4g}".replace(".", "_")
                line += (f"; {kind}_{label}_{unit} {entry['tail']:.6g} {unit} "
                         f"({entry['tail_beyond']} samples beyond)")
            lines.append(line)
    for key, metric in record["metrics"].items():
        lines.append(f"{key} {metric['value']:.6g} {metric['unit']}")
    lines.append(f"failed_ratio {record['failed_ratio']:.6g} ratio "
                 f"({record['failed']}/{record['attempted']})")
    if record.get("absent"):
        lines.append("absent (not wrapped, reported as 0): " + ", ".join(record["absent"]))
    lines.append(f"output_digest {record['output_digest']}")
    lines.append(f"input_sha256 {record['input_sha256']}")
    return lines


def record_stem(record) -> str:
    return f"BENCH_{record['workload']}_seed{record['seed']}_trace{record['trace']}"


def write_record(record) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{record_stem(record)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    up = load_program()
    record = run(up, args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size == "tiny")
    lines = summary_lines(record)
    path = write_record(record)
    print("\n".join(lines))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
