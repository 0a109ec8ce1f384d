"""Closed loop: operations, their checks, and the reported metrics.

One operation is one evolution run: one problem instance x one GEP seed,
written as an input file and run in this process through
`gepcirc.cli.parse_input` and `gepcirc.cli.run`. Operations run back to
back on one thread. Each one is checked against independent references
(workloads.check_outputs) and fingerprinted; an instance that runs twice
must give the same fingerprint.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy

import gepcirc.cli as cli
import tracing
import workloads

HERE = Path(__file__).resolve().parent

# end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "run_rel": "gauge",
    "best_fitness": "fitness",
    "peak_rss_mb": "MB",
}
# figures printed beside the metrics; run_s and run_s_pNN are in seconds
EXTRA_UNITS = {"gauge_us": "us", "samples": "count", "solved": "count",
               "failed_frac": "ratio"}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_at_start": os.getloadavg(),
    }


class HostGauge:
    """A fixed piece of benchmark-owned numpy work, timed around operations.

    The host's speed drifts by tens of percent over minutes (other tenants
    share its cores and caches) and a whole run can be slow. Dividing the
    operations' wall time by this gauge's time cancels that drift. A pass
    applies a fixed 2x2 matrix to every qubit of a state of the workload's
    width in the idiom of the program's kernel as written when the
    benchmark was defined (`moveaxis`, `reshape`, `matmul`), so contention
    slows it about as much as it slows the program, while no change to the
    program moves it.
    """

    MAT = numpy.array([[0.8, -0.6], [0.6, 0.8]], dtype=complex)
    SAMPLE_S = 0.03     # about 2% of an operation

    def __init__(self, n_bits: int):
        self.n_bits = n_bits
        self.psi = numpy.full(1 << n_bits, 2.0 ** (-n_bits / 2), dtype=complex)
        self.passes = 1
        self.passes = max(1, round(self.SAMPLE_S / self.sample()))

    def _pass(self) -> None:
        n, psi = self.n_bits, self.psi
        for axis in range(n):
            t = numpy.moveaxis(psi.reshape([2] * n), axis, 0)
            t = (self.MAT @ t.reshape(2, -1)).reshape(t.shape)
            psi = numpy.moveaxis(t, 0, axis).reshape(-1)

    def sample(self) -> float:
        """Seconds per pass, over enough passes to take about SAMPLE_S."""
        start = time.perf_counter()
        for _ in range(self.passes):
            self._pass()
        return (time.perf_counter() - start) / self.passes


class Bench:
    """Runs operations; keeps every record and each instance's fingerprint."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.counters = tracing.Counters()
        self.instances: dict[int, workloads.Instance] = {}
        self.fingerprints: dict[str, dict] = {}
        self.records: list[dict] = []

    def instance(self, k: int) -> workloads.Instance:
        if k not in self.instances:
            self.instances[k] = workloads.make_instance(
                self.workload, self.seed, k, self.workdir)
        return self.instances[k]

    def run_op(self, k: int, tracer: tracing.Tracer | None = None) -> dict:
        """One evolution run of instance k: timed, checked, fingerprinted.

        Set-up runs from reading the input file to the first generation;
        the run from there until the artifacts are written.
        """
        inst = self.instance(k)
        record = {"instance": inst.name, "traced": tracer is not None}

        def execute() -> tuple[int, float, float]:
            start = time.perf_counter()
            code = cli.run(cli.parse_input(inst.input_path))
            return code, start, time.perf_counter()

        try:
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer.installed())
                    execute = tracer.wrap("op", execute)
                stack.enter_context(self.counters.installed())
                stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
                code, start, end = execute()
            record["setup_s"] = self.counters.evolution_start - start
            record["run_s"] = end - self.counters.evolution_start
            outcome = workloads.check_outputs(inst, code)
            fingerprint = {"generations": outcome.generations,
                           **self.counters.fingerprint_counts(),
                           "digest": outcome.digest}
            record.update(exit_code=code, best_fitness=outcome.best_fitness,
                          solved=outcome.solved, fingerprint=fingerprint,
                          errors=outcome.errors)
            first = self.fingerprints.setdefault(inst.name, fingerprint)
            if first != fingerprint:
                record["errors"].append(
                    f"fingerprint {fingerprint} differs from repeat {first}")
        except Exception:
            record["errors"] = [traceback.format_exc(limit=4)]
        record["failed"] = bool(record["errors"])
        for error in record["errors"]:
            print(f"FAILED {inst.name}: {error}", file=sys.stderr)
        self.records.append(record)
        return record


def closed_loop(bench: Bench, seconds: float, tracer: tracing.Tracer | None,
                gauge: HostGauge) -> tuple[list[dict], list[dict]]:
    """Operations back to back until the next one would overrun `seconds`.

    Operation k takes instance k. Instance 0 first runs once as a warm-up,
    so it is also a repeat. Untraced operations are bracketed by gauge
    samples; an operation's `gauge_s` is the mean of the two around it.
    With a tracer, every instance runs untraced and traced, alternating
    which goes first. Returns (untraced, traced) records.
    """
    bench.run_op(0)
    plain: list[dict] = []
    spanned: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    before = gauge.sample()
    k = 0
    while not durations or (time.perf_counter() - start
                            + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        if tracer is None:
            record = bench.run_op(k)
            after = gauge.sample()
            record["gauge_s"] = (before + after) / 2
            before = after
            plain.append(record)
        else:
            tracer.op = k
            for t in ((None, tracer) if k % 2 == 0 else (tracer, None)):
                (plain if t is None else spanned).append(bench.run_op(k, t))
        durations.append(time.perf_counter() - began)
        k += 1
    return plain, spanned


def upper_percentile(values: list[float]) -> tuple[float, float]:
    """(q, value): the highest sample with ten samples above it and the
    share q of samples at or below it; the median below 21 samples."""
    ordered = sorted(values)
    if len(ordered) < 21:
        return 0.5, statistics.median(ordered)
    index = len(ordered) - 11
    return (index + 1) / len(ordered), ordered[index]


def end_to_end(records: list[dict]) -> tuple[dict, dict]:
    """The bounded metrics, plus figures printed alongside them."""
    ok = [r for r in records if not r["failed"]]
    run_s = [r["run_s"] for r in ok] or [0.0]
    metrics = {
        "setup_s": statistics.median([r["setup_s"] for r in ok] or [0.0]),
        "run_rel": statistics.fmean(run_s) / statistics.fmean(
            [r["gauge_s"] for r in ok] or [1.0]),
        "best_fitness": statistics.fmean(
            [r["best_fitness"] for r in ok] or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    q, upper = upper_percentile(run_s)
    extra = {"run_s": statistics.median(run_s),
             f"run_s_p{round(100 * q)}": upper,
             "gauge_us": 1e6 * statistics.median(
                 [r["gauge_s"] for r in ok] or [0.0]),
             "samples": len(ok), "solved": sum(r["solved"] for r in ok)}
    return metrics, extra


def per_layer(plain: list[dict], spanned: list[dict], tracer: tracing.Tracer,
              n_bits: int) -> dict:
    """Span-derived metrics plus the tracing overhead: the median over
    instances of traced minus untraced `run_s` of the same instance."""
    metrics = tracing.layer_metrics(tracer, n_bits)
    untraced = {r["instance"]: r["run_s"] for r in plain if not r["failed"]}
    pairs = [(untraced[r["instance"]], r["run_s"]) for r in spanned
             if not r["failed"] and r["instance"] in untraced]
    metrics["trace.overhead_s"] = statistics.median(
        [t - u for u, t in pairs] or [0.0])
    metrics["trace.overhead_frac"] = statistics.median(
        [t / u - 1.0 for u, t in pairs] or [0.0])
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    n_bits = workloads.WORKLOADS[args.workload][1]
    machine = machine_info()
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=HERE / "_work"))
    tracer = tracing.Tracer() if args.trace else None
    try:
        probe = tracing.kernel_probe(n_bits) if tracer else {}
        bench = Bench(args.workload, args.seed, workdir)
        plain, spanned = closed_loop(bench, args.seconds, tracer,
                                     HostGauge(n_bits))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = {**per_layer(plain, spanned, tracer, n_bits), **probe}
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        extra = {}
        tracer.write(results / f"{tag}.spans.csv.gz")
    else:
        metrics, extra = end_to_end(plain)
        units = END_TO_END
    records = bench.records
    failed = sum(r["failed"] for r in records)
    extra["failed_frac"] = failed / len(records)

    print("machine " + json.dumps(machine))
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for name, fingerprint in bench.fingerprints.items():
        print(f"fingerprint {name} {json.dumps(fingerprint)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value in extra.items():
        print(f"{name} {value!r} {EXTRA_UNITS.get(name, 's')}")
    with open(results / f"{tag}.json", "w") as fh:
        json.dump({"args": vars(args), "machine": machine, "metrics": metrics,
                   "extra": extra, "fingerprints": bench.fingerprints,
                   "operations": records}, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
