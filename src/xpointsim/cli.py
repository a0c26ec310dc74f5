"""Command-line driver.

Four subcommands share the ``--config``, ``--out`` and ``--seed`` flags:

* ``simulate`` runs the configured scenario (``demo``, ``write``,
  ``read``, or ``sweep``) and writes its output files;
* ``sweep`` forces the design-space sweep regardless of the configured
  scenario;
* ``analyze`` evaluates the closed-form models for the configured design
  point and prints them, writing nothing;
* ``validate`` parses and validates the configuration, then stops.

When ``--config`` is omitted, the directories named by the
``XPOINTSIM_CONFIG_PATH`` environment variable (separated like PATH
entries) are searched for ``xpointsim.ini``; if none is found the
built-in defaults apply.

``--seed N`` scrambles the initial array state reproducibly and feeds the
``data = random`` generator; without it the array starts all parallel
(every bit '0') and random data falls back to seed 0. Identical
invocations produce byte-identical output files; the run manifest
(``manifest.txt``) records a checksum per output so reruns can be
compared at a glance.

Exit codes: 0 success, 1 configuration or parameter error, 2 simulation
error, 3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    build_architecture,
    build_array,
    build_device,
    build_drive,
    build_dynamics,
    build_transistor,
    default_config,
    parse_config,
)
from .device import MtjState, _write_current, critical_current, mtj_resistance, switching_delay
from .errors import (
    ConfigError,
    InvariantError,
    ParameterError,
    SimulationError,
)
from .ops import (
    WriteRequest,
    read_word,
    trace_to_csv,
    write_word,
)
from .perf import dynamic_power, sweep_area, sweep_to_csv
from .report import (
    fmt6,
    make_manifest,
    phases_to_csv,
    reads_to_csv,
    summarize_architecture,
    summarize_reads,
    summarize_sweep,
    summarize_write,
)

CONFIG_ENV = "XPOINTSIM_CONFIG_PATH"
CONFIG_FILENAME = "xpointsim.ini"


def _read_config(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"config file {path}: {reason}"]) from None
    return parse_config(text)


def _load_config(path_arg):
    if path_arg is not None:
        return _read_config(path_arg)
    for entry in os.environ.get(CONFIG_ENV, "").split(os.pathsep):
        candidate = Path(entry) / CONFIG_FILENAME
        if entry and candidate.is_file():
            return _read_config(candidate)
    return default_config()


def _rng_for(args):
    return random.Random(args.seed if args.seed is not None else 0)


def _prepare_array(cfg, args):
    """Build the array; with --seed, scramble every word reproducibly."""
    arr = build_array(cfg)
    rng = _rng_for(args)
    if args.seed is not None:
        cells = arr.m_words * arr.n_bits
        arr.store(np.arange(cells), [rng.getrandbits(1) for _ in range(cells)])
    return arr, rng


def _finish(cfg, args, outputs, wall_s, summary):
    """Write all outputs plus the manifest, echo the summary, exit clean."""
    manifest = make_manifest(cfg, __version__, outputs, wall_s)
    out_dir = Path(args.out)
    ordered = dict(sorted(outputs.items()))
    ordered["manifest.txt"] = manifest.to_text()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in ordered.items():
            with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        raise ParameterError(f"--out: {exc}") from None
    print(summary, end="" if summary.endswith("\n") else "\n")
    print(f"outputs ({out_dir}): {', '.join(ordered)}")
    return 0


def _with_context(context, exc):
    return type(exc)(f"{context}: {exc}")


def _run_array(cfg, args):
    """Demo, write or read: an optional write, then an optional scan.

    The demo writes all ones to the last word and then reads every word
    back; the write scenario runs the configured write alone and the read
    scenario the scan alone.
    """
    op = cfg.operation
    arr, rng = _prepare_array(cfg, args)
    drive = build_drive(cfg)
    if op.scenario == "demo":
        addr, data = arr.m_words - 1, "1" * arr.n_bits
    elif op.scenario == "write":
        addr, data = op.word_addr, op.data
        if data == "random":
            data = "".join("01"[rng.getrandbits(1)] for _ in range(arr.n_bits))
    else:
        addr = data = None
    context = f"{op.scenario} scenario"
    trace = reads = None
    t0 = time.perf_counter()
    try:
        if data is not None:
            step = f"{context}, write word {addr}"
            trace = write_word(arr, WriteRequest(addr, data, op.mode), drive)
        if op.scenario != "write":
            step = context if data is None else f"{context}, read scan"
            reads = [(w, read_word(arr, w, drive)) for w in range(arr.m_words)]
    except SimulationError as exc:
        raise _with_context(step, exc) from exc
    wall = time.perf_counter() - t0
    blocks = [
        f"scenario: {op.scenario} ({arr.n_bits} bits x {arr.m_words} words)",
        summarize_architecture(build_architecture(cfg)),
    ]
    outputs = {}
    if trace is not None:
        blocks.append(
            summarize_write(
                f"write word {addr} <- '{data}' ({op.mode.value}), "
                f"{len(trace.phases)} phase(s)",
                trace,
            )
        )
        outputs["waveform.csv"] = trace_to_csv(trace)
        outputs["phases.csv"] = phases_to_csv(trace)
    if reads is not None:
        blocks.append(summarize_reads(reads, drive.setup_time_s))
        outputs["reads.csv"] = reads_to_csv(reads)
    summary = "\n".join(blocks) + "\n"
    outputs["summary.txt"] = summary
    return _finish(cfg, args, outputs, wall, summary)


def _sweep(cfg, n_range, m_range):
    """The closed-form models of the configured design over a grid of shapes."""
    return sweep_area(
        build_architecture(cfg),
        n_range,
        m_range,
        params=build_device(cfg),
        dynamics=build_dynamics(cfg),
        transistor=build_transistor(cfg),
        drive=build_drive(cfg),
        overdrive=cfg.drive.write_overdrive,
    )


def _run_sweep(cfg, args):
    op = cfg.operation
    t0 = time.perf_counter()
    rows = _sweep(cfg, op.sweep_n_bits, op.sweep_m_words)
    wall = time.perf_counter() - t0
    summary = summarize_sweep(rows) + "\n"
    outputs = {"sweep.csv": sweep_to_csv(rows), "summary.txt": summary}
    return _finish(cfg, args, outputs, wall, summary)


def _cmd_simulate(cfg, args):
    if cfg.operation.scenario == "sweep":
        return _run_sweep(cfg, args)
    return _run_array(cfg, args)


def _cmd_analyze(cfg, args):
    params = build_device(cfg)
    dynamics = build_dynamics(cfg)
    drive = build_drive(cfg)
    n, m = cfg.array.n_bits, cfg.array.m_words
    i_write = _write_current(params, cfg.drive.write_overdrive)
    tau = switching_delay(i_write, params, dynamics)
    (row,) = _sweep(cfg, [n], [m])
    setup = drive.setup_time_s
    lines = (
        f"device: R_P {fmt6(mtj_resistance(MtjState.P, params))} ohm, "
        f"R_AP {fmt6(mtj_resistance(MtjState.AP, params))} ohm, "
        f"threshold current {fmt6(critical_current(params) * 1e6)} uA",
        summarize_architecture(build_architecture(cfg)),
        f"write: current {fmt6(i_write * 1e6)} uA, switching delay "
        f"{fmt6(tau * 1e9)} ns, parallel word {fmt6((2 * tau + setup) * 1e9)} ns, "
        f"serial word {fmt6(n * (tau + setup) * 1e9)} ns",
        f"read: cycle {fmt6(row.read_time_s * 1e9)} ns, full scan "
        f"{fmt6(m * (setup + row.read_time_s) * 1e9)} ns",
        f"energy: full-word write {fmt6(row.write_energy_j * 1e12)} pJ "
        f"({fmt6(row.write_energy_j / n * 1e12)} pJ/bit), full-word read "
        f"{fmt6(row.read_energy_j * 1e12)} pJ, sustained write power "
        f"{fmt6(dynamic_power(row.write_energy_j, cfg.architecture.f_data_hz) * 1e3)}"
        f" mW at {fmt6(cfg.architecture.f_data_hz / 1e6)} MHz",
    )
    print("\n".join(lines))
    return 0


def _cmd_validate(cfg, args):
    from .report import config_digest

    print(f"configuration OK (sha256 {config_digest(cfg)})")
    return 0


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--config", metavar="PATH", default=None, help="scenario file (INI)"
    )
    shared.add_argument(
        "--out", metavar="DIR", default="out", help="output directory"
    )
    shared.add_argument(
        "--seed",
        metavar="N",
        type=int,
        default=None,
        help="scramble the initial array state and seed random data",
    )
    parser = argparse.ArgumentParser(
        prog="xpointsim",
        description="Cross-point memory array simulator and performance model",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, text in (
        ("simulate", _cmd_simulate, "run the configured scenario"),
        ("sweep", _run_sweep, "run the design-space sweep"),
        ("analyze", _cmd_analyze, "print closed-form figures, write nothing"),
        ("validate", _cmd_validate, "check the configuration and stop"),
    ):
        cmd = sub.add_parser(name, parents=[shared], help=text)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        status = args.func(cfg, args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # standard output was closed early (``| head -1``): the outputs are
        # written, so end quietly, and send the interpreter's last flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except SimulationError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
