#!/usr/bin/env python3
"""xpointsim benchmark: run one workload for one seed and print the metrics.

Run from the repository root:

    python3 bench/run.py --workload read_scan --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: the
workload's fixed operation list (pass 0), then more of its seeded stream
until ``--seconds`` have passed. ``--trace 1`` runs pass 0 once untraced
and once traced and prints the per-layer metrics. Either way the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.

All numbers are host time from this one process with one closed-loop
caller: the next operation starts only when the previous one returned.
Times are calibrated against fixed kernels (see ``calibrate.py``). The
program is imported from ``src/`` next to this directory and from nowhere
else; without it the benchmark exits with status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import calibrate
import stats
import workloads
from tracer import Tracer, self_times, span_totals
from workloads import READ, WRITE

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_SAMPLES = 7
MAX_REPORTED_FAILURES = 5


# -- set-up ----------------------------------------------------------------------


def import_program():
    """Import xpointsim from this checkout's ``src/``, or stop with status 1."""
    if not (SRC / "xpointsim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no xpointsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xpointsim

    if not Path(xpointsim.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: xpointsim imported from {xpointsim.__file__}")
    return xpointsim


def build(program, wl):
    """Parse the generated INI, build the array and store every word."""
    cfg = program.config.parse_config(wl.ini)
    arr = program.config.build_array(cfg)
    for word, bits in enumerate(wl.contents()):
        arr.set_word(word, bits)
    return cfg, arr


def timed_setup(wl):
    """Calibrated set-up time: ``import xpointsim`` plus :func:`build`.

    Only the first call in a process pays the import. Calibration uses the
    Python kernel alone, because the BLAS kernel would import numpy first.
    """
    before = calibrate.steady_slowdown(blas=False)
    start = time.perf_counter()
    program = import_program()
    cfg, arr = build(program, wl)
    raw = time.perf_counter() - start
    after = calibrate.steady_slowdown(blas=False)
    return calibrate.scale(raw, before, after), program, cfg, arr


def setup_probe_seconds(wl):
    """Set-up time in a fresh interpreter, which pays the import again."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", wl.name, "--seed", str(wl.seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


# -- operations -------------------------------------------------------------------


class Outcome:
    """What one run over the operation stream did."""

    def __init__(self):
        self.latency = {READ: [], WRITE: []}  # calibrated seconds
        self.raw_s = 0.0  # uncalibrated time inside successful operations
        self.slowdown = []
        self.attempted = 0
        self.failures = []
        self.reads = []  # (word, SenseResult) of pass 0
        self.traces = []  # OperationTrace of pass 0 writes
        self.wall_s = 0.0

    def fail(self, op, reason):
        self.failures.append(f"{op}: {reason}")

    def all_latency(self):
        return self.latency[READ] + self.latency[WRITE]

    def calibrated_s(self):
        """Calibrated time inside successful operations."""
        return sum(self.all_latency())

    def factor(self):
        """Calibrated over raw time inside operations, for whole-run figures."""
        return self.calibrated_s() / self.raw_s if self.raw_s else 1.0


def check(program, arr, op, result):
    """Return why ``result`` is wrong, or None."""
    stored = arr.get_word(op.word)
    if op.kind == READ:
        if result.bits != stored:
            return f"read {result.bits!r}, stored {stored!r}"
        return None
    if stored != op.data:
        return f"read-back {stored!r}, wrote {op.data!r}"
    energy = program.perf.dynamic_energy(result, arr.v_dd)
    if not math.isclose(energy, result.total_energy, rel_tol=1e-9, abs_tol=0.0):
        return f"dynamic_energy {energy!r} J, trace total {result.total_energy!r} J"
    return None


def execute(program, arr, drive, op):
    ops = program.ops
    if op.kind == READ:
        return ops.read_word(arr, op.word, drive)
    request = ops.WriteRequest(op.word, op.data, ops.WriteMode(op.mode))
    return ops.write_word(arr, request, drive)


def run_ops(program, cfg, arr, wl, seconds, tracer=None):
    """Run pass 0, then the rest of the stream until ``seconds`` have passed.

    Each operation is timed alone, between two calibrations, and checked
    right after it returns. An exception or a wrong result counts as a
    failure and the run goes on.
    """
    drive = program.config.build_drive(cfg)
    out = Outcome()
    start = time.perf_counter()
    before = calibrate.slowdown()
    for index, op in wl.stream():
        if index > 0 and time.perf_counter() - start >= seconds:
            break
        out.attempted += 1
        if tracer is not None:
            tracer.op_kind = op.kind
        try:
            t0 = time.perf_counter()
            try:
                result = execute(program, arr, drive, op)
            finally:
                if tracer is not None:
                    tracer.op_kind = None
            elapsed = time.perf_counter() - t0
            problem = check(program, arr, op, result)
        except Exception:  # noqa: BLE001 - a failed operation must not end the run
            problem = traceback.format_exc(limit=4).strip()
        after = calibrate.slowdown()
        out.slowdown.append(after)
        if problem is not None:
            out.fail(op, problem)
        else:
            out.raw_s += elapsed
            out.latency[op.kind].append(calibrate.scale(elapsed, before, after))
            if index == 0 and op.kind == READ:
                out.reads.append((op.word, result))
            if index == 0 and op.kind == WRITE:
                out.traces.append(result)
        before = after
    out.wall_s = time.perf_counter() - start
    return out


# -- simulated statistics and report emission ----------------------------------------


def sim_stats(out):
    """Simulated statistics of pass 0; exact, so a speed-only change keeps them."""
    traces = out.traces
    events = [e for t in traces for e in t.events]
    margins = [abs(m) for _w, r in out.reads for m in r.per_bit_margin]
    return {
        "ops.sim_switches": (sum(t.switch_count() for t in traces), "count"),
        "ops.sim_disturbs": (
            sum(1 for e in events if e.kind in ("disturb", "disturb-switch")), "count"
        ),
        "ops.sim_write_energy_pj": (sum(t.total_energy for t in traces) * 1e12, "pJ"),
        "ops.sim_write_time_ns": (sum(t.total_time for t in traces) * 1e9, "ns"),
        "ops.sim_sneak_overhead_max": (
            max((ph.sneak_overhead for t in traces for ph in t.phases), default=0.0),
            "ratio",
        ),
        "ops.sim_read_margin_min_ohm": (min(margins, default=0.0), "ohm"),
    }


def emit(program, cfg, out):
    """Emit pass 0's CSVs and manifest as the CLI does; return (sha256, bytes).

    Nothing is written to disk. The digest and the byte count cover the
    CSVs only, because the manifest carries the wall-clock time.
    """
    report = program.report
    outputs = {}
    if out.reads:
        outputs["reads.csv"] = report.reads_to_csv(out.reads)
    for i, trace in enumerate(out.traces):
        outputs[f"phases-{i:03d}.csv"] = report.phases_to_csv(trace)
        outputs[f"waveform-{i:03d}.csv"] = program.ops.trace_to_csv(trace)
    report.make_manifest(cfg, program.__version__, outputs, out.wall_s).to_text()
    digest = hashlib.sha256()
    for name in sorted(outputs):
        digest.update(name.encode() + b"\0" + outputs[name].encode() + b"\0")
    return digest.hexdigest(), sum(len(t.encode()) for t in outputs.values())


# -- end-to-end metrics ------------------------------------------------------------------


def end_to_end(out, setup_samples):
    """Metrics a user of the simulator sees, measured with tracing off."""
    latency = out.all_latency()
    ms = [s * 1e3 for s in latency]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(latency) / sum(latency) if latency else None, "1/s"),
        "op_ms_p50": (stats.median(ms), "ms"),
        "op_ms_p90": (stats.percentile(ms, 90), "ms"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_ok_ratio": (len(latency) / out.attempted, "ratio"),
    }


def describe(out):
    """Per-kind figures for people, where the workload has that kind."""
    lines = []
    for kind, q in ((READ, 95), (WRITE, 90)):
        ms = [s * 1e3 for s in out.latency[kind]]
        if ms:
            tail = stats.percentile(ms, q)
            tail = "n/a (under 10 samples beyond)" if tail is None else f"{tail:.4f} ms"
            lines.append(
                f"{kind}_ms_p50 = {stats.median(ms):.4f} ms, {kind}_ms_p{q} = {tail} "
                f"(n = {len(ms)}, calibrated)"
            )
    done = len(out.all_latency())
    lines.append(
        f"ops_failed_ratio = {len(out.failures) / out.attempted:.6f} "
        f"({len(out.failures)} of {out.attempted})"
    )
    lines.append(
        f"uncalibrated: {done / out.raw_s if out.raw_s else 0.0:.3f} ops/s inside "
        f"operations, {done / out.wall_s:.3f} ops/s over {out.wall_s:.3f} s wall; "
        f"median host slowdown {statistics.median(out.slowdown):.3f}x"
    )
    return lines


# -- the traced run -------------------------------------------------------------------------

# Wrapped where the caller looks the name up. ``span`` records an interval;
# otherwise only calls are counted.
TARGETS = (
    ("xpointsim.config:parse_config", "config.parse_config", True),
    ("xpointsim.config:build_array", "config.build_array", True),
    ("xpointsim.ops:read_word", "ops.read_word", True),
    ("xpointsim.ops:write_word", "ops.write_word", True),
    ("xpointsim.array:CrossbarArray.to_network", "array.to_network", True),
    ("xpointsim.ops:solve_network", "network.solve_network", True),
    ("xpointsim.network:build_network", "network.build_network", True),
    ("xpointsim.perf:dynamic_energy", "perf.dynamic_energy", True),
    ("xpointsim.device:mtj_resistance", "device.mtj_resistance", False),
    ("xpointsim.ops:switching_step", "device.switching_step", False),
    ("xpointsim.device:critical_current", "device.critical_current", False),
    ("xpointsim.ops:critical_current", "device.critical_current", False),
    ("xpointsim.array:critical_current", "device.critical_current", False),
)

# Result fields observed after each call of a wrapped name.
OBSERVED = {
    "network.build_network": ("unknown_count",),
    "network.solve_network": ("kcl_residual", "clamped"),
    "ops.read_word": ("bits",),
}


def install(tracer):
    """Wrap every target; return the result fields their calls feed."""
    seen = defaultdict(list)

    def observer(fields):
        def observe(result):
            for field in fields:
                seen[field].append(getattr(result, field, None))
        return observe

    for target, name, span in TARGETS:
        fields = OBSERVED.get(name)
        tracer.wrap(target, name, span=span, observe=fields and observer(fields))
    return seen


def layer_metrics(tracer, seen, out, emitted_bytes):
    """Per-layer metrics of the traced pass, keyed by name: (value, unit).

    Times are scaled by the pass's calibration factor. A metric whose
    wrapped name is gone from the program has the value None.
    """
    reads, writes = len(out.reads), len(out.traces)
    ops = reads + writes
    factor = out.factor()
    spans = defaultdict(float, {k: v * factor for k, v in span_totals(tracer.spans).items()})
    own = defaultdict(float, {k: v * factor for k, v in self_times(tracer.spans).items()})

    def per(name, kinds, base):
        return sum(tracer.total(name, k) for k in kinds) / base if base else 0.0

    def observed(field, reduce):
        values = seen.get(field, [])
        if any(v is None for v in values):
            return None  # the result no longer carries this field
        return reduce(values) if values else 0.0

    both = (READ, WRITE)
    table = {
        "config.parse_s": ("config.parse_config", "s", lambda: spans["config.parse_config"]),
        "config.build_array_s": ("config.build_array", "s", lambda: spans["config.build_array"]),
        "device.resistance_evals_per_op": (
            "device.mtj_resistance", "count/op",
            lambda: per("device.mtj_resistance", both, ops)),
        "device.switching_steps_per_write": (
            "device.switching_step", "count/write",
            lambda: per("device.switching_step", (WRITE,), writes)),
        "device.critical_current_evals_per_op": (
            "device.critical_current", "count/op",
            lambda: per("device.critical_current", both, ops)),
        "array.to_network_s": ("array.to_network", "s", lambda: spans["array.to_network"]),
        "array.to_network_calls": (
            "array.to_network", "count", lambda: tracer.total("array.to_network")),
        "network.build_s": (
            "network.build_network", "s", lambda: spans["network.build_network"]),
        "network.solve_self_s": (
            "network.solve_network", "s", lambda: own["network.solve_network"]),
        "network.solves_per_read": (
            "network.solve_network", "count/read",
            lambda: per("network.solve_network", (READ,), reads)),
        "network.solves_per_write": (
            "network.solve_network", "count/write",
            lambda: per("network.solve_network", (WRITE,), writes)),
        "network.unknowns_mean": (
            "network.build_network", "count",
            lambda: observed("unknown_count", statistics.fmean)),
        "network.kcl_residual_max": (
            "network.solve_network", "ratio", lambda: observed("kcl_residual", max)),
        "network.clamped_rows_max": (
            "network.solve_network", "count",
            lambda: observed("clamped", lambda v: max(map(len, v)))),
        "ops.read_self_s": ("ops.read_word", "s", lambda: own["ops.read_word"]),
        "ops.write_self_s": ("ops.write_word", "s", lambda: own["ops.write_word"]),
        "ops.sense_bits": (
            "ops.read_word", "count", lambda: observed("bits", lambda v: sum(map(len, v)))),
        "perf.dynamic_energy_s": (
            "perf.dynamic_energy", "s", lambda: spans["perf.dynamic_energy"]),
        "report.emit_s": (None, "s", lambda: spans["report.emit"]),
        "report.bytes": (None, "bytes", lambda: emitted_bytes),
    }
    return {
        metric: (None if needs in tracer.missing else value(), unit)
        for metric, (needs, unit, value) in table.items()
    }


def traced_run(program, wl):
    """Pass 0 on a fresh array with every target wrapped."""
    tracer = Tracer()
    seen = install(tracer)
    try:
        cfg, arr = build(program, wl)
        out = run_ops(program, cfg, arr, wl, seconds=0.0, tracer=tracer)
        with tracer.span("report.emit"):
            digest, nbytes = emit(program, cfg, out)
    finally:
        tracer.restore()
    return out, layer_metrics(tracer, seen, out, nbytes), digest, tracer.missing


# -- entry point -----------------------------------------------------------------------------


def environment():
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    blas = ", ".join(
        f"{k}={os.environ.get(k, 'unset')}"
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    )
    return (
        f"python {platform.python_version()}, numpy {version('numpy')}, "
        f"scipy {version('scipy')}, nproc {os.cpu_count()}, BLAS threads: {blas}"
    )


def loadavg():
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def print_result(correct, attempted, failed, metrics):
    """One line per metric for people, then the JSON result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name} = {'MISSING' if value is None else f'{value!r} {unit}'}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if value is not None
        },
    }))


def main(argv=None):
    args = parse_args(argv)
    wl = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        print(repr(timed_setup(wl)[0]))
        return 0

    print(f"environment: {environment()}")
    print(f"loadavg at start: {loadavg()}")
    setup_s, program, cfg, arr = timed_setup(wl)
    spec = wl.spec
    print(f"workload {wl.name}, seed {wl.seed}: {spec.n_bits}x{spec.m_words}, "
          f"line resistance {spec.line_resistance!r} ohm/segment")

    seconds = args.seconds if args.trace == 0 else 0.0
    out = run_ops(program, cfg, arr, wl, seconds)
    digest, _bytes = emit(program, cfg, out)
    sims = sim_stats(out)
    print(f"untraced run: {out.attempted} ops, {len(out.reads) + len(out.traces)} "
          f"of them in pass 0, {out.wall_s:.3f} s")
    for line in describe(out):
        print(line)
    print("simulated (pass 0): " + ", ".join(f"{k} = {v!r}" for k, (v, _u) in sims.items()))
    print(f"csv sha256 (pass 0): {digest}")

    runs = [out]
    correct = True
    if args.trace == 0:
        samples = [setup_s] + [setup_probe_seconds(wl) for _ in range(SETUP_SAMPLES - 1)]
        metrics = end_to_end(out, samples)
    else:
        traced_out, metrics, traced_digest, missing = traced_run(program, wl)
        runs.append(traced_out)
        traced_sims = sim_stats(traced_out)
        if traced_sims != sims or traced_digest != digest:
            correct = False
            print(f"MISMATCH: the traced run gives {traced_sims}, csv sha256 {traced_digest}")
        metrics.update(traced_sims)
        metrics["trace.overhead_s"] = (traced_out.calibrated_s() - out.calibrated_s(), "s")
        for name in sorted(missing):
            print(f"missing: {name} is gone from the program; its metrics are not reported")

    failures = [f for run in runs for f in run.failures]
    for failure in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"loadavg at end: {loadavg()}")
    print_result(
        correct and not failures,
        sum(run.attempted for run in runs),
        len(failures),
        metrics,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
