"""Deterministic result emission: CSV files, summaries, run manifest.

Two output registers with different precision rules:

* machine outputs (CSV) carry floats at ``repr`` precision after unit
  conversion, so reruns of the same configuration are byte-identical and
  golden-file comparisons are exact;
* the human summary rounds everything to 6 significant digits.

The manifest records the configuration digest, the tool version, a
checksum per output file and the wall-clock time of the run. Since the
wall clock is the one non-reproducible quantity, it lives only in the
manifest, never in a checksummed output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .config import serialize_config
from .perf import cell_area, cell_area_asymptotic, cell_area_physical_floor

READS_CSV_HEADER = "word_addr,bit,value,margin_ohm,i_data_ua,i_ref_ua,delay_ns"
PHASES_CSV_HEADER = "phase,start_ns,end_ns,energy_pj,supply_ua,sneak_overhead_pct"


def fmt6(value):
    """Render a number with 6 significant digits."""
    return f"{value:.6g}"


def digest_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_digest(cfg):
    """Digest of the canonical serialization, stable across key order."""
    return digest_text(serialize_config(cfg))


@dataclass(frozen=True)
class RunManifest:
    config_sha256: str
    tool_version: str
    outputs: tuple  # (filename, sha256) pairs, sorted by filename
    wall_clock_s: float

    def to_text(self):
        lines = [
            f"tool_version: {self.tool_version}",
            f"config_sha256: {self.config_sha256}",
            f"wall_clock_s: {fmt6(self.wall_clock_s)}",
        ]
        lines.extend(f"output {name}: {sha}" for name, sha in self.outputs)
        return "\n".join(lines) + "\n"


def make_manifest(cfg, version, outputs, wall_clock_s):
    """Checksum every output text and assemble the manifest record."""
    digested = tuple(
        (name, digest_text(text)) for name, text in sorted(outputs.items())
    )
    return RunManifest(
        config_sha256=config_digest(cfg),
        tool_version=version,
        outputs=digested,
        wall_clock_s=wall_clock_s,
    )


# -- machine outputs ---------------------------------------------------------


def _csv(header, rows):
    """``header``, then one line per row; floats at ``repr`` precision."""
    return "\n".join([header, *(",".join(map(str, row)) for row in rows)]) + "\n"


def reads_to_csv(results):
    """Per-bit sense outcome table for ``(word_addr, SenseResult)`` pairs."""
    return _csv(READS_CSV_HEADER, (
        (addr, j, bit, res.per_bit_margin[j], i_data * 1e6, i_ref * 1e6, res.per_bit_delay[j] * 1e9)
        for addr, res in results
        for j, (bit, (i_data, i_ref)) in enumerate(zip(res.bits, res.branch_currents))
    ))


def phases_to_csv(trace):
    """Per-phase energy and sneak-overhead table for one write trace."""
    return _csv(PHASES_CSV_HEADER, (
        (ph.label, ph.t_start * 1e9, ph.t_end * 1e9, ph.energy_j * 1e12, ph.supply_a * 1e6,
         ph.sneak_overhead * 100.0)
        for ph in trace.phases
    ))


# -- human summary blocks ----------------------------------------------------


def summarize_architecture(arch):
    exact = cell_area(arch)
    asym = cell_area_asymptotic(arch.n_bits, arch.a_select_f2)
    floor = cell_area_physical_floor(arch.f_feature_nm, arch.f_memory_nm)
    return (
        f"cell area: {fmt6(exact)} F^2/bit at {arch.n_bits} bits x "
        f"{arch.m_words} words (asymptotic {fmt6(asym)} F^2/bit, "
        f"physical floor {fmt6(floor)} F^2/bit)"
    )


def summarize_write(label, trace):
    lines = [label]
    for ph in trace.phases:
        lines.append(
            f"  {ph.label}: {fmt6(ph.t_start * 1e9)} .. "
            f"{fmt6(ph.t_end * 1e9)} ns, energy {fmt6(ph.energy_j * 1e12)} pJ, "
            f"supply {fmt6(ph.supply_a * 1e6)} uA, "
            f"sneak overhead {fmt6(ph.sneak_overhead * 100.0)} %"
        )
    lines.append(
        f"  total: {fmt6(trace.total_time * 1e9)} ns, "
        f"{fmt6(trace.total_energy * 1e12)} pJ, "
        f"{trace.switch_count()} switch events"
    )
    return "\n".join(lines)


def summarize_reads(results, setup_s):
    # a read takes its setup plus its own sense delay, alike for every word
    cycle_s = setup_s + results[0][1].sense_delay
    lines = [
        f"read cycles: {len(results)} x {fmt6(cycle_s * 1e9)} ns = "
        f"{fmt6(len(results) * cycle_s * 1e9)} ns"
    ]
    lines.extend(f"  word {addr} -> '{res.bits}'" for addr, res in results)
    # the per-bit figures are in reads.csv; the summary names the closest call
    addr, res = min(results, key=lambda r: min(map(abs, r[1].per_bit_margin)))
    j = min(range(len(res.bits)), key=lambda j: abs(res.per_bit_margin[j]))
    lines.append(f"  minimum margin: {fmt6(res.per_bit_margin[j])} ohm at word {addr} bit {j}")
    return "\n".join(lines)


def summarize_sweep(rows):
    lines = ["design-space sweep (areas in F^2/bit, times in ns, energy in pJ)"]
    lines.append(
        "  n_bits  m_words  area_exact  area_asymptotic  t_wr_serial  "
        "t_wr_parallel  t_read  e_write  e_read"
    )
    for row in rows:
        lines.append(
            f"  {row.n_bits:6d}  {row.m_words:7d}  {fmt6(row.area_exact_f2):>10}  "
            f"{fmt6(row.area_asymptotic_f2):>15}  "
            f"{fmt6(row.write_time_serial_s * 1e9):>11}  "
            f"{fmt6(row.write_time_parallel_s * 1e9):>13}  "
            f"{fmt6(row.read_time_s * 1e9):>6}  "
            f"{fmt6(row.write_energy_j * 1e12):>7}  "
            f"{fmt6(row.read_energy_j * 1e12):>6}"
        )
    return "\n".join(lines)
