"""Crossbar network solver vs the independent elimination oracle.

Frozen sneak-path numbers (hand-derived):
    R_P        = 1e7 / (pi/4 * 65^2) = 3013.5847 Ohm
    3 R_P      = 9040.7541 Ohm       (2x2 single sneak path, three devices)
    0.3 V / R_P      = 99.549 uA     (addressed branch)
    0.3 V / (3 R_P)  = 33.183 uA     (sneak branch)
"""

import math
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import branch_current, solve_nodes
from xpointsim.array import CrossbarArray
from xpointsim.device import MtjParams, MtjState, TransistorModel, mtj_resistance
from xpointsim import network
from xpointsim.errors import ConvergenceError, InvariantError, ParameterError, SingularNetworkError
from xpointsim.network import (
    CrossbarNetwork,
    LineBias,
    NodalCore,
    RowDriver,
    build_network,
    equivalent_resistance,
    solve_network,
)
from xpointsim import ops
from xpointsim.ops import DriveConfig, read_word, select_word

PARAMS = MtjParams()
R_P = mtj_resistance(MtjState.P, PARAMS)
R_AP = mtj_resistance(MtjState.AP, PARAMS)


def compile_network(rows, cols, branches, bias=None, drivers=None, v_dd=1.2, line_resistance=0.0):
    """A network over ``(row, col, resistance)`` branches, in that order; the
    core gets each branch's row and column as index arrays."""
    resistance = np.array([r for _, _, r in branches], dtype=float)
    cell_row = np.array([rows.index(row) for row, _, _ in branches], dtype=int)
    cell_col = np.array([cols.index(col) for _, col, _ in branches], dtype=int)
    core = NodalCore(rows, cols, cell_row, cell_col, line_resistance, resistance)
    return CrossbarNetwork(core, resistance, drivers or {}, bias or {}, v_dd)


def grid_network(states, bias, drivers=None, v_dd=1.2, line_resistance=0.0, skip=()):
    """Full m x n grid with given device states ('P'/'AP' strings)."""
    m, n = len(states), len(states[0])
    branches = [
        (f"w{i}", f"b{j}", R_P if states[i][j] == "P" else R_AP)
        for i in range(m)
        for j in range(n)
        if (i, j) not in skip
    ]
    return compile_network(
        [f"w{i}" for i in range(m)], [f"b{j}" for j in range(n)], branches,
        bias, drivers, v_dd, line_resistance,
    )


def net_branches(net):
    """``(row, col, resistance, tag)`` of each branch, in core order."""
    core = net.core
    lines = zip(core.node_line[core.cell_row].tolist(), core.node_line[core.cell_col].tolist())
    return [
        (core.lines[i], core.lines[j], r, core.tag(k))
        for k, ((i, j), r) in enumerate(zip(lines, net.resistance.tolist()))
    ]


def column_currents(net, sol, col):
    """Current of each branch on ``col``, by its row."""
    return {row: sol.device_currents[tag] for row, c, _, tag in net_branches(net) if c == col}


def oracle_description(net):
    """Re-derive the raw component list for the oracle solver."""
    core = net.core
    resistors = []
    fixed = {}
    injected = {}
    crossings_per_row = {r: [] for r in core.rows}
    crossings_per_col = {c: [] for c in core.cols}
    for row, col, _, _ in net_branches(net):
        crossings_per_row[row].append(col)
        crossings_per_col[col].append(row)

    def node(line, other, per_line):
        if core.line_resistance == 0.0:
            return line
        return (line, per_line[line].index(other))

    if core.line_resistance > 0.0:
        for line, others in list(crossings_per_row.items()) + list(crossings_per_col.items()):
            for k in range(len(others) - 1):
                resistors.append(((line, k), (line, k + 1), core.line_resistance))

    def terminal(line):
        return line if core.line_resistance == 0.0 else (line, 0)

    for row, col, r, _ in net_branches(net):
        resistors.append(
            (node(row, col, crossings_per_row), node(col, row, crossings_per_col), r)
        )
    for row in core.rows:
        drv = net.drivers.get(row, net.idle)
        if drv is None:
            continue
        resistors.append((terminal(row), "rail_vdd", drv.model.r_on if drv.pmos_on else drv.model.r_off))
        resistors.append((terminal(row), "rail_gnd", drv.model.r_on if drv.nmos_on else drv.model.r_off))
        fixed["rail_vdd"] = net.v_dd
        fixed["rail_gnd"] = 0.0
    for line, lb in net.bias.items():
        if lb.kind == "voltage":
            fixed[terminal(line)] = lb.value
    return resistors, fixed, injected


def assert_matches_oracle(net, rel=1e-9, floor=1e-9):
    sol = solve_network(net)
    resistors, fixed, injected = oracle_description(net)
    volts = solve_nodes(resistors, fixed, injected)
    core = net.core
    crossings_per_row = {r: [] for r in core.rows}
    crossings_per_col = {c: [] for c in core.cols}
    for row, col, _, _ in net_branches(net):
        crossings_per_row[row].append(col)
        crossings_per_col[col].append(row)
    # abs floor: below ``floor`` amps both solvers are returning float noise
    scale = max(max(abs(i) for i in sol.device_currents.values()), floor)
    for row, col, r, tag in net_branches(net):
        if core.line_resistance == 0.0:
            na, nb = col, row
        else:
            na = (col, crossings_per_col[col].index(row))
            nb = (row, crossings_per_row[row].index(col))
        want = branch_current(volts, na, nb, r)
        got = sol.device_currents[tag]
        assert got == pytest.approx(want, rel=rel, abs=rel * scale), tag
    assert sol.kcl_residual < 1e-12
    return sol


def random_case(rng, wired=False, n=None):
    """A random grid with random bias and drivers; ``wired`` draws 1-50 ohm/segment.
    ``n`` fixes the column count."""
    line_resistance = rng.uniform(1.0, 50.0) if wired else 0.0
    m = rng.randint(1, 5)
    n = n or rng.randint(1, 5)
    states = [[rng.choice(["P", "AP"]) for _ in range(n)] for _ in range(m)]
    bias = {}
    fixed_any = False
    for j in range(n):
        kind = rng.random()
        if kind < 0.4:
            bias[f"b{j}"] = LineBias.voltage(rng.uniform(0.05, 1.2))
            fixed_any = True
        elif kind < 0.55:
            bias[f"b{j}"] = LineBias.voltage(0.0)
            fixed_any = True
        elif kind < 0.7:
            rng.uniform(-2e-4, 2e-4)  # a floating line keeps its draw, so the seeded cases do not shift
    drivers = {}
    use_transistors = rng.random() < 0.5
    for i in range(m):
        kind = rng.random()
        if kind < 0.25:
            bias[f"w{i}"] = LineBias.voltage(0.0)
            fixed_any = True
        elif kind < 0.35:
            bias[f"w{i}"] = LineBias.voltage(rng.uniform(0.0, 1.2))
            fixed_any = True
        elif use_transistors:
            # linear region only: oracle has no clamp model
            drivers[f"w{i}"] = RowDriver(
                model=TransistorModel(r_on=rng.uniform(500, 3000), r_off=1e9, i_sat=1.0),
                pmos_on=rng.random() < 0.3,
                nmos_on=rng.random() < 0.5,
            )
            fixed_any = True
    if not fixed_any:
        bias["b0"] = LineBias.voltage(0.3)
    return grid_network(states, bias, drivers=drivers, line_resistance=line_resistance)


class TestOracleEquivalence:
    def test_single_cell_ohms_law(self):
        net = grid_network([["P"]], {"b0": LineBias.voltage(1.0), "w0": LineBias.voltage(0.0)})
        sol = assert_matches_oracle(net)
        assert sol.device_currents["w0:b0"] == pytest.approx(1.0 / R_P, rel=1e-12)

    # without wire resistance every row node is eliminated before the
    # factorisation; with it, every other row node, on chains of odd and
    # even length, biased, driven or floating. Some wired grids have one
    # pinned line and no driver, so every current cancels to zero and both
    # solvers return ~2e-17 A of noise from potentials near the pinned
    # volts; the wired case floors its absolute tolerance at 1e-16 A
    @pytest.mark.parametrize("wired, floor", [(False, 1e-9), (True, 1e-7)], ids=["bare", "wired"])
    def test_hundred_random_grids(self, wired, floor):
        rng = random.Random(20260814)
        for _ in range(120):
            assert_matches_oracle(random_case(rng, wired), floor=floor)

    @pytest.mark.parametrize("wired, floor", [(False, 1e-9), (True, 1e-7)], ids=["bare", "wired"])
    def test_fill_formed_one_node_at_a_time(self, wired, floor):
        # one bit line: with wires its chain nodes are layers of one node
        # each, and each group of eliminated nodes is one row node; without,
        # the one layer is the line's one node
        rng = random.Random(20260815)
        for _ in range(40):
            net = random_case(rng, wired, n=1)
            core = net.core
            assert core.width == 1 and core.n_layers == len(core.kept)
            assert core.group_rows == 1 or not wired
            assert_matches_oracle(net, floor=floor)

    def test_wire_resistance_expansion(self):
        rng = random.Random(7)
        for _ in range(10):
            states = [[rng.choice(["P", "AP"]) for _ in range(3)] for _ in range(3)]
            bias = {
                "b0": LineBias.voltage(0.5),
                "b1": LineBias.voltage(0.5),
                "w0": LineBias.voltage(0.0),
            }
            net = grid_network(states, bias, line_resistance=rng.uniform(1.0, 50.0))
            assert_matches_oracle(net)

    def test_linearity_in_drive(self):
        rng = random.Random(99)
        for _ in range(20):
            net = random_case(rng)
            # transistor rails would break pure scaling
            twice = {k: LineBias(kind=v.kind, value=2.0 * v.value) for k, v in net.bias.items()}
            doubled = CrossbarNetwork(net.core, net.resistance, {}, twice, net.v_dd)
            base = CrossbarNetwork(net.core, net.resistance, {}, net.bias, net.v_dd)
            if not any(v.kind == "voltage" for v in net.bias.values()):
                continue
            a = solve_network(base)
            b = solve_network(doubled)
            for tag, i in a.device_currents.items():
                assert b.device_currents[tag] == pytest.approx(2.0 * i, rel=1e-9, abs=1e-15)


def captured_read_network(monkeypatch, arr, word, driven_bits=None):
    """The network ``ops._read_solution`` solves for one read, and its solution."""
    seen = []
    monkeypatch.setattr(ops, "solve_network", lambda net: seen.append(net) or solve_network(net))
    sol = ops._read_solution(arr, word, DriveConfig(), driven_bits)
    monkeypatch.undo()
    return seen[0], sol


def stored_array(n_bits, m_words, line_resistance, seed):
    arr = CrossbarArray(n_bits, m_words, line_resistance=line_resistance)
    rng = random.Random(seed)
    for w in range(m_words):
        arr.set_word(w, "".join(rng.choice("01") for _ in range(n_bits)))
    return arr


class TestPartialPinning:
    """Solves whose kept nodes are partly pinned and partly free.

    A read pins the terminal of every bit-line segment. Without wire
    resistance that is every kept node; with it the other column chain
    nodes and the odd row nodes stay free. A bit-serial read floats the
    other bits' segments, which stay free at any wire resistance.
    """

    @pytest.mark.parametrize("line_resistance", [0.0, 2.0], ids=["bare", "wired"])
    def test_parallel_read_matches_oracle(self, monkeypatch, line_resistance):
        arr = stored_array(4, 8, line_resistance, seed=11)
        for word in (0, 5):
            net, sol = captured_read_network(monkeypatch, arr, word)
            assert_matches_oracle(net).volts.tolist() == sol.volts.tolist()

    @pytest.mark.parametrize("line_resistance", [0.0, 2.0], ids=["bare", "wired"])
    def test_bit_serial_read_matches_oracle(self, monkeypatch, line_resistance):
        arr = stored_array(4, 8, line_resistance, seed=12)
        for word, bit in ((0, 0), (3, 2), (6, 3)):
            net, _ = captured_read_network(monkeypatch, arr, word, driven_bits={bit})
            assert_matches_oracle(net)

    def test_wired_equivalent_resistance_matches_oracle(self):
        rng = random.Random(13)
        for _ in range(10):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            states = [[rng.choice(["P", "AP"]) for _ in range(n)] for _ in range(m)]
            net = grid_network(states, {}, line_resistance=rng.uniform(1.0, 50.0))
            a, b = f"b{rng.randrange(n)}", f"w{rng.randrange(m)}"
            resistors, _, _ = oracle_description(net)
            volts = solve_nodes(resistors, {(b, 0): 0.0}, {(a, 0): 1.0})
            assert equivalent_resistance(net, a, b) == pytest.approx(volts[(a, 0)], rel=1e-9)

    @pytest.mark.parametrize("kind", ["read", "write"])
    def test_factored_block_is_the_free_nodes_and_symmetric(self, monkeypatch, kind):
        # the factored blocks span every kept node; a wired read pins the
        # 2n segment terminals, whose rows and columns turn to identity, so
        # its free block is the rest; a write pins nothing. The fill
        # products a*b/D and b*a/D may differ in the last bit only
        arr = stored_array(4, 8, 2.0, seed=15)
        core = arr.to_network({}, {}).core
        captured = []
        sweep = network._sweep
        monkeypatch.setattr(
            network, "_sweep",
            lambda *blocks: captured.append([a.copy() for a in blocks]) or sweep(*blocks),
        )
        if kind == "read":
            read_word(arr, 3)
            pinned = core.slot[core.terminal[[core.line_index[seg] for seg in arr.segments]]]
            assert len(pinned) == len(arr.segments)
        else:
            ops.write_word(arr, ops.WriteRequest(3, "1010", ops.WriteMode.PARALLEL))
            pinned = np.zeros(0, dtype=int)
        diag, lower, system = captured[0]
        n_layers, p = core.n_layers, core.width
        assert diag.shape == (n_layers, p, p) and n_layers > 1
        assert np.abs(diag - diag.transpose(0, 2, 1)).max() <= 1e-15 * np.abs(diag).max()
        # the dense S over the kept nodes, put together from its blocks
        padded = np.zeros((n_layers * p, n_layers * p))
        for layer in range(n_layers):
            here, after = slice(layer * p, (layer + 1) * p), slice((layer + 1) * p, (layer + 2) * p)
            padded[here, here] = diag[layer]
            if layer + 1 < n_layers:
                padded[here, after], padded[after, here] = system[layer, :, :p], lower[layer]
        s = padded[np.ix_(core.pack, core.pack)]
        nk = len(core.kept)
        assert np.abs(s - s.T).max() <= 1e-15 * np.abs(s).max()
        identity = np.eye(nk)
        assert np.array_equal(s[pinned], identity[pinned])
        assert np.array_equal(s[:, pinned], identity[:, pinned])
        # every other row couples its free node to a neighbour
        free = np.setdiff1d(np.arange(nk), pinned)
        assert len(free) == nk - len(pinned)
        assert all(np.count_nonzero(s[k]) > 1 for k in free)

    def test_zero_ohm_read_factors_an_empty_system(self, monkeypatch):
        # every kept node of a 0 ohm read is a bit-line segment at v_read:
        # nothing is left to factor, so nothing may be stamped or filled
        # either; the tables that place the stamps and the fill are gone
        arr = stored_array(64, 32, 0.0, seed=14)
        core = arr.to_network({}, {}).core
        core.block_index = core.fill_index = None
        calls = []
        sweep, solve = network._sweep, np.linalg.solve
        monkeypatch.setattr(network, "_sweep", lambda *a: calls.append("sweep") or sweep(*a))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append("solve") or solve(a, b))
        read_word(arr, 5)
        assert calls == []


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 6),
    n=st.integers(1, 6),
    wired=st.booleans(),
    layout=st.sampled_from(["grid", "plain", "balanced"]),
    cuts=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.booleans()), max_size=14),
)
def test_layers_hold_every_coupling_of_the_schur_complement(m, n, wired, layout, cuts):
    # grids lose the crossings in ``cuts`` (open branches, or no branch at
    # all, which can leave lines and whole components with no bit line)
    line_resistance = 2.0 if wired else 0.0
    if layout == "grid":
        branches = [
            (f"w{i}", f"b{j}", math.inf if (i, j, True) in cuts else R_P)
            for i in range(m)
            for j in range(n)
            if (i, j, False) not in cuts
        ]
        core = compile_network(
            [f"w{i}" for i in range(m)], [f"b{j}" for j in range(n)], branches,
            line_resistance=line_resistance,
        ).core
    else:
        balanced = layout == "balanced"
        core = CrossbarArray(n, 2 * m, balanced=balanced, line_resistance=line_resistance).to_network(
            {}, {}
        ).core
    layer, nk = core.layer, len(core.kept)
    # every kept node has one layer and one place in its layer's padding
    assert layer.shape == (nk,) and ((layer >= 0) & (layer < core.n_layers)).all()
    assert len(set(core.pack.tolist())) == nk
    assert np.array_equal(core.pack // max(core.width, 1), layer)
    assert np.bincount(layer, minlength=core.n_layers).max(initial=0) == core.width
    # an inner edge, and the lanes of an eliminated node, span at most two
    # adjacent layers; without wires there is one layer
    ka, kb = core.slot[core.edge_a[core.inner]], core.slot[core.edge_b[core.inner]]
    assert np.abs(layer[ka] - layer[kb]).max(initial=0) <= 1
    live = core.lane_live > 0.0
    lane_layer = layer[core.slot[core.lane_node]]
    top = np.where(live, lane_layer, -1).max(axis=1, initial=-1)
    bottom = np.where(live, lane_layer, core.n_layers).min(axis=1, initial=core.n_layers)
    assert (top[live.any(axis=1)] - bottom[live.any(axis=1)] <= 1).all()
    assert wired or core.n_layers == 1


class TestDriveTables:
    """Networks bound in turn to one core reuse its compiled tables."""

    LIGHT = TransistorModel(r_on=800.0, r_off=2e4, i_sat=1.0)  # leaky: idle rails carry current
    HEAVY = TransistorModel(r_on=2500.0, r_off=5e4, i_sat=1.0)

    def variants(self):
        idle = RowDriver(self.LIGHT)
        rows = [f"w{i}" for i in range(4)]
        yield "base", dict.fromkeys(rows, idle) | {"w1": RowDriver(self.LIGHT, nmos_on=True)}, 1.2
        yield "v_dd", dict.fromkeys(rows, idle) | {"w1": RowDriver(self.LIGHT, nmos_on=True)}, 2.0
        heavy = RowDriver(self.HEAVY)
        yield "model", dict.fromkeys(rows, heavy) | {"w1": RowDriver(self.HEAVY, nmos_on=True)}, 2.0
        yield "selected", dict.fromkeys(rows, idle) | {"w3": RowDriver(self.LIGHT, pmos_on=True)}, 2.0
        yield "distinct idle", {row: RowDriver(self.LIGHT) for row in rows} | {
            "w0": RowDriver(self.LIGHT, nmos_on=True)}, 2.0
        yield "mixed idle", {
            "w0": RowDriver(self.HEAVY), "w1": RowDriver(self.LIGHT, nmos_on=True),
            "w2": RowDriver(self.LIGHT), "w3": RowDriver(self.HEAVY)}, 2.0
        yield "fewer rows", {"w2": RowDriver(self.LIGHT, nmos_on=True), "w0": idle}, 2.0
        yield "other rows", {"w3": RowDriver(self.LIGHT, nmos_on=True), "w1": idle}, 2.0
        yield "base again", dict.fromkeys(rows, idle) | {"w1": RowDriver(self.LIGHT, nmos_on=True)}, 1.2

    @pytest.mark.parametrize("line_resistance", [0.0, 3.0], ids=["bare", "wired"])
    def test_rebinding_one_core_matches_oracle(self, line_resistance):
        states = [["P", "AP", "P"], ["AP", "AP", "P"], ["P", "P", "AP"], ["AP", "P", "P"]]
        bias = {"b0": LineBias.voltage(0.4), "b2": LineBias.voltage(0.1)}
        core_net = grid_network(states, bias, line_resistance=line_resistance)
        for label, drivers, v_dd in self.variants():
            net = CrossbarNetwork(core_net.core, core_net.resistance, drivers, bias, v_dd)
            sol = assert_matches_oracle(net)
            assert list(sol.transistor_currents) == net.core.rows, label
            for row in set(net.core.rows) - set(drivers):
                assert sol.transistor_currents[row] == 0.0, (label, row)

    def test_driver_must_name_a_row(self):
        drivers = {"b0": RowDriver(self.LIGHT, nmos_on=True)}
        net = grid_network([["P", "AP"], ["AP", "P"]], {"b0": LineBias.voltage(0.4)}, drivers=drivers)
        with pytest.raises(ParameterError, match="'b0'"):
            build_network(net)


# the single connectivity check, with and without line expansion, and with
# every row tied to the rails through switches that are off and truly open
OPEN_DRIVER = RowDriver(model=TransistorModel(r_on=1e3, r_off=math.inf, i_sat=1e-3))
connectivity_cases = pytest.mark.parametrize(
    "line_resistance, open_drivers",
    [(0.0, False), (5.0, False), (0.0, True), (5.0, True)],
    ids=["bare", "wired", "bare-open-drivers", "wired-open-drivers"],
)


def connectivity_network(bias, line_resistance, open_drivers, skip=()):
    drivers = {f"w{i}": OPEN_DRIVER for i in range(2)} if open_drivers else None
    return grid_network(
        [["P", "P"], ["P", "P"]], bias, drivers=drivers,
        line_resistance=line_resistance, skip=skip,
    )


class TestAssembly:
    def test_parallel_read_unknown_count(self):
        # 4x4, selected word grounded, every bit line driven: 3 floating words
        bias = {f"b{j}": LineBias.voltage(0.3) for j in range(4)}
        bias["w0"] = LineBias.voltage(0.0)
        net = grid_network([["P"] * 4 for _ in range(4)], bias)
        assert build_network(net).unknown_count == 3

    def test_serial_write_unknown_count(self):
        # one word selected, one bit driven, three words + three bits floating
        bias = {"b0": LineBias.voltage(1.2), "w0": LineBias.voltage(0.0)}
        net = grid_network([["P"] * 4 for _ in range(4)], bias)
        assert build_network(net).unknown_count == 6

    @connectivity_cases
    def test_all_floating_is_singular(self, line_resistance, open_drivers):
        net = connectivity_network({}, line_resistance, open_drivers)
        with pytest.raises(SingularNetworkError):
            solve_network(net)

    @connectivity_cases
    def test_isolated_line_named_in_error(self, line_resistance, open_drivers):
        net = connectivity_network(
            {"b0": LineBias.voltage(0.3)},
            line_resistance,
            open_drivers,
            skip={(0, 1), (1, 1)},
        )
        with pytest.raises(SingularNetworkError, match="no conduction path .* from: b1$"):
            solve_network(net)


class TestNonFiniteDrive:
    # a non-finite drive would solve to NaN currents with a NaN residual,
    # and NaN passes every check written as `value > limit`
    @pytest.mark.parametrize(
        "bias", [lambda: LineBias.voltage(float("nan")), lambda: LineBias.regulated(0, float("inf"))],
        ids=["nan-voltage", "inf-regulated"],
    )
    def test_non_finite_bias_is_rejected(self, bias):
        with pytest.raises(ParameterError, match="finite"):
            net = grid_network([["P", "AP"], ["AP", "P"]], {"b0": bias(), "w0": LineBias.voltage(0.0)})
            solve_network(net)

    def test_nan_past_validation_fails_the_conservation_check(self):
        drive = LineBias.voltage(0.3)
        net = grid_network([["P", "AP"], ["AP", "P"]], {"b0": drive, "w0": LineBias.voltage(0.0)})
        object.__setattr__(drive, "value", float("nan"))
        with pytest.raises(InvariantError, match="current conservation"):
            solve_network(net)


class TestBiasKinds:
    # a line the bias leaves out floats and 0 V is a voltage bias, so
    # neither has a kind of its own; current enters a line only through a
    # regulated source
    @pytest.mark.parametrize("kind", ["ground", "float", "current"])
    def test_alias_kind_is_rejected_by_name(self, kind):
        with pytest.raises(ParameterError, match=f"bias kind: unknown value '{kind}'"):
            LineBias(kind=kind)


class TestInputChecks:
    @staticmethod
    def bound(bias):
        return build_network(grid_network([["P", "AP"], ["AP", "P"]], bias))

    @pytest.mark.parametrize("build, message", [
        (lambda: compile_network(["w0"], ["w0"], []),
         "line names: rows and cols must be distinct"),
        (lambda: NodalCore(["w0"], ["b0"], [0, 1], [0, 0], 0.0, np.array([R_P, R_P])),
         "branch 1: row 1 outside 0..0"),
        (lambda: NodalCore(["w0"], ["b0"], [0, 0], [-1, 1], 0.0, np.array([R_P, R_P])),
         "branch 0: col -1 outside 0..0"),
        (lambda: compile_network(["w0"], ["b0"], [("w0", "b0", 0.0)]),
         "branch w0:b0: resistance must be positive"),
        (lambda: compile_network(["w0"], ["b0"], [("w0", "b0", math.nan)]),
         "branch w0:b0: resistance must be positive"),
        (lambda: compile_network(["w0", "w1"], ["b0", "b1"], [
            ("w0", "b0", R_P), ("w1", "b1", R_P), ("w0", "b1", R_P), ("w1", "b1", R_P), ("w0", "b0", R_P)]),
         "branch 3: crossing w1:b1 appears twice"),
        (lambda: compile_network(["w0"], ["b0", "b1", "b2"], [
            ("w0", "b0", R_P), ("w0", "b1", -R_P), ("w0", "b2", 0.0)]),
         "branch w0:b1: resistance must be positive"),
        (lambda: TestInputChecks.bound({"b9": LineBias.voltage(0.3)}),
         "bias: unknown line 'b9'"),
        (lambda: TestInputChecks.bound({"b0": LineBias.regulated(4, 1e-4)}),
         "bias 'b0': unknown cell 4"),
        (lambda: equivalent_resistance(grid_network([["P", "AP"], ["AP", "P"]], {}), "b9", "w0"),
         "equivalent_resistance: unknown line 'b9'"),
        (lambda: LineBias("voltage", 0.3, cell=0),
         "bias cell: names the branch of a regulated source only"),
        (lambda: LineBias("regulated", 1e-4),
         "bias cell: names the branch of a regulated source only"),
    ], ids=[
        "shared-line", "unknown-row", "unknown-col", "zero-resistance", "nan-resistance",
        "duplicate-tag", "first-bad-resistance", "bias-unknown-line", "regulated-unknown-cell",
        "resistance-unknown-line", "cell-on-voltage", "regulated-without-cell",
    ])
    def test_bad_input_is_named(self, build, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            build()


class TestSaturation:
    def test_clamp_to_i_sat(self):
        # infinite off-resistance keeps the single-path arithmetic exact
        drv = RowDriver(
            model=TransistorModel(r_on=1e3, r_off=math.inf, i_sat=1e-4),
            pmos_on=False,
            nmos_on=True,
        )
        net = grid_network(
            [["P"]],
            {"b0": LineBias.voltage(1.2)},
            drivers={"w0": drv},
        )
        sol = solve_network(net)
        # unclamped current would be 1.2 / (R_P + r_on) = 299 uA
        assert sol.device_currents["w0:b0"] == pytest.approx(1e-4, rel=1e-9)
        assert sol.transistor_currents["w0"] == pytest.approx(-1e-4, rel=1e-9)
        assert sol.line_voltages["w0"] == pytest.approx(1.2 - 1e-4 * R_P, rel=1e-9)
        assert "w0" in sol.clamped

    def test_no_clamp_below_limit(self):
        drv = RowDriver(
            model=TransistorModel(r_on=1e3, r_off=math.inf, i_sat=1e-2),
            pmos_on=False,
            nmos_on=True,
        )
        net = grid_network([["P"]], {"b0": LineBias.voltage(1.2)}, drivers={"w0": drv})
        sol = solve_network(net)
        assert sol.device_currents["w0:b0"] == pytest.approx(1.2 / (R_P + 1e3), rel=1e-9)
        assert not sol.clamped

    def test_settle_settles_cycles_and_stops(self, monkeypatch):
        # the one saturation iteration: a set proposed again is kept, a set
        # that flips back and forth has no consistent operating point, and a
        # binary counter over 7 rails never repeats a set in 100 steps
        def settle(n, rail_currents):
            # solve_network's loop over stand-in solves whose rail currents follow the set
            step = lambda asm, clamp, solve: (("solved", clamp), rail_currents(clamp))
            monkeypatch.setattr(network, "_solve_linear", step)
            monkeypatch.setattr(network, "_finish_solution", lambda asm, volts, sources, clamp: (volts, clamp))
            return network._settle(SimpleNamespace(rail_g=np.zeros(n), rail_isat=np.ones(n)), None)

        result, clamp = settle(3, lambda clamp: np.array([3.0, -3.0, 0.5]))
        assert result == "solved" and clamp.tolist() == [1.0, -1.0, 0.0]
        with pytest.raises(ConvergenceError, match=f"^{network._OSCILLATES}$"):
            settle(2, lambda clamp: np.where(clamp == 0.0, 2.0, 0.0))
        steps, bits = [], np.arange(7)

        def count(clamp):
            steps.append(clamp)
            n = int((clamp != 0.0) @ 2**bits) + 1
            return 2.0 * ((n >> bits) & 1)

        with pytest.raises(ConvergenceError, match="^saturation iteration exceeded the step limit$"):
            settle(7, count)
        assert len(steps) == 100


class TestSneakStructure:
    def test_two_by_two_single_sneak_path(self):
        # addressed cell plus one three-device path: I = V/R_P + V/(3 R_P)
        bias = {"b0": LineBias.voltage(0.3), "w0": LineBias.voltage(0.0)}
        net = grid_network([["P", "P"], ["P", "P"]], bias)
        sol = assert_matches_oracle(net)
        assert sol.device_currents["w0:b0"] == pytest.approx(0.3 / R_P, rel=1e-12)
        assert sol.device_currents["w1:b0"] == pytest.approx(0.3 / (3 * R_P), rel=1e-12)
        # the column's current splits into the addressed branch and the sneak
        # branches, each the first hop of one parasitic path
        through = column_currents(net, sol, "b0")
        assert through.pop("w0") == pytest.approx(0.3 / R_P, rel=1e-12)
        assert sum(through.values()) == pytest.approx(0.3 / (3 * R_P), rel=1e-12)

    def test_two_by_two_sneak_only_equivalent_resistance(self):
        net = grid_network([["P", "P"], ["P", "P"]], {}, skip={(0, 0)})
        r = equivalent_resistance(net, "b0", "w0")
        assert r == pytest.approx(3 * R_P, rel=1e-12)

    def test_large_array_has_lower_sneak_resistance(self):
        # 8x8 all-parallel mesh, addressed device removed. By symmetry the
        # 7 other rows share one potential and the 7 other cols another, so
        # the mesh collapses to three stages: R/7 + R/49 + R/7 = 15 R / 49.
        states = [["P"] * 8 for _ in range(8)]
        net = grid_network(states, {}, skip={(0, 0)})
        r = equivalent_resistance(net, "b0", "w0")
        assert r == pytest.approx(15.0 * R_P / 49.0, rel=1e-9)
        assert r < 3 * R_P  # aggregate sneak leak far below one junction
        # cross-check against the oracle: inject 1 A, read the drop
        resistors, _, _ = oracle_description(net)
        volts = solve_nodes(resistors, {"w0": 0.0}, {"b0": 1.0})
        assert r == pytest.approx(volts["b0"], rel=1e-9)

    def test_single_device_equivalent_resistance(self):
        net = grid_network([["AP"]], {})
        assert equivalent_resistance(net, "b0", "w0") == pytest.approx(R_AP, rel=1e-12)

    @pytest.mark.parametrize("line_resistance", [0.0, 5.0], ids=["bare", "wired"])
    def test_isolated_line_leaves_the_resistance_unchanged(self, line_resistance):
        # w1 crosses both columns through open branches: it sits off the
        # measured component and must be grounded for the solve to anchor it
        states = [["P", "AP"], ["AP", "P"]]
        grid = grid_network(states, {}, line_resistance=line_resistance)
        open_row = [("wx", f"b{j}", math.inf) for j in range(2)]
        net = compile_network(
            ["w0", "wx", "w1"], ["b0", "b1"], [b[:3] for b in net_branches(grid)] + open_row,
            line_resistance=line_resistance,
        )
        for a, b in (("b0", "w0"), ("b1", "w0"), ("w1", "b0")):
            assert equivalent_resistance(net, a, b) == pytest.approx(
                equivalent_resistance(grid, a, b), rel=1e-12
            )
        assert equivalent_resistance(net, "wx", "b0") == math.inf

    @connectivity_cases
    def test_disconnected_is_infinite(self, line_resistance, open_drivers):
        net = connectivity_network({}, line_resistance, open_drivers, skip={(0, 1), (1, 1)})
        assert equivalent_resistance(net, "b1", "w0") == math.inf

    @pytest.mark.parametrize("line_resistance", [0.0, 5.0], ids=["bare", "wired"])
    def test_reciprocity(self, line_resistance):
        rng = random.Random(5)
        for _ in range(20):
            m, n = rng.randint(2, 5), rng.randint(2, 5)
            states = [[rng.choice(["P", "AP"]) for _ in range(n)] for _ in range(m)]
            net = grid_network(states, {}, line_resistance=line_resistance)
            a = equivalent_resistance(net, "b0", f"w{m - 1}")
            b = equivalent_resistance(net, f"w{m - 1}", "b0")
            assert a == pytest.approx(b, rel=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), wired=st.booleans())
    def test_reciprocity_every_pair(self, seed, wired):
        net = random_case(random.Random(seed), wired)
        lines = net.core.lines
        for k, a in enumerate(lines):
            for b in lines[k + 1:]:
                ab, ba = equivalent_resistance(net, a, b), equivalent_resistance(net, b, a)
                assert ab == ba == math.inf or ab == pytest.approx(ba, rel=1e-9, abs=0.0), (a, b)

    def test_write_safety_ordering_exhaustive_2x2(self):
        # addressed resistance never exceeds any 3-device sneak path at tmr=1.5
        for code in range(16):
            states = [
                ["P" if code & 1 else "AP", "P" if code & 2 else "AP"],
                ["P" if code & 4 else "AP", "P" if code & 8 else "AP"],
            ]
            r = {"P": R_P, "AP": R_AP}
            addressed = r[states[0][0]]
            path = r[states[1][0]] + r[states[1][1]] + r[states[0][1]]
            assert addressed <= path

    def test_parallel_bias_kills_sneak(self):
        bias = {f"b{j}": LineBias.voltage(0.3) for j in range(4)}
        bias["w0"] = LineBias.voltage(0.0)
        states = [["P", "AP", "P", "AP"] for _ in range(4)]
        net = grid_network(states, bias)
        through = column_currents(net, solve_network(net), "b0")
        main = through.pop("w0")
        assert abs(sum(through.values())) < 1e-12 * abs(main)

    def test_sneak_grows_with_floating_lines(self):
        states = [["P", "AP", "P", "AP"] for _ in range(4)]
        sums = []
        for n_float in range(4):
            bias = {"w0": LineBias.voltage(0.0), "b0": LineBias.voltage(0.3)}
            for j in range(1, 4):
                if j > n_float:
                    bias[f"b{j}"] = LineBias.voltage(0.3)
            net = grid_network(states, bias)
            sol = solve_network(net)
            through = column_currents(net, sol, "b0")
            main = through.pop("w0")
            sneak = sum(through.values())
            # the addressed branch and the sneak branches carry all the
            # current the column's source supplies
            assert sol.source_currents["b0"] == pytest.approx(main + sneak, rel=1e-12, abs=1e-18)
            sums.append(sneak)
        assert sums[0] < sums[1] < sums[2] < sums[3]

    def test_uniform_array_symmetric_paths(self):
        bias = {"w0": LineBias.voltage(0.0), "b0": LineBias.voltage(0.3)}
        net = grid_network([["P"] * 4 for _ in range(4)], bias)
        through = column_currents(net, solve_network(net), "b0")
        del through["w0"]
        values = list(through.values())
        assert len(values) == 3
        assert all(v == pytest.approx(values[0], rel=1e-9) for v in values)


def power_balance(net, sol):
    """Power supplied and power dissipated at one operating point, and
    their gross scale.

    The solver forms a mesh current as a difference of two potentials, so
    its rounding follows ``(|v_a| + |v_b|) g``, not the current itself: in
    a mesh whose currents cancel they are float noise of that scale.
    """
    core, v = sol.core, sol.volts
    va, vb = v[core.edge_a], v[core.edge_b]
    g = 1.0 / np.concatenate([net.resistance, core.wire_r])
    edge_i = np.concatenate([sol.currents, ((va - vb) * g)[len(sol.currents):]])
    rail_v = np.tile([net.v_dd, 0.0], len(core.rows))
    row_v = np.repeat([sol.line_voltages[row] for row in core.rows], 2)
    sources = [sol.line_voltages[line] * i for line, i in sol.source_currents.items()]
    supplied = sum(sources) + (rail_v * sol.rail_currents).sum()
    dissipated = ((va - vb) * edge_i).sum() + ((rail_v - row_v) * sol.rail_currents).sum()
    gross = (
        ((np.abs(va) + np.abs(vb)) ** 2 * g).sum()
        + ((np.abs(rail_v) + np.abs(row_v)) * np.abs(sol.rail_currents)).sum()
        + np.abs(sources).sum()
    )
    return supplied, dissipated, gross


class TestEnergyBalance:
    """The sources and rails supply the power the branches, wires and switches dissipate."""

    @pytest.mark.parametrize("wired", [False, True], ids=["bare", "wired"])
    def test_random_grids(self, wired):
        rng = random.Random(20261018)
        for _ in range(120):
            net = random_case(rng, wired)
            supplied, dissipated, gross = power_balance(net, solve_network(net))
            assert abs(supplied - dissipated) <= 1e-9 * gross

    def test_clamped_rail(self):
        # w0's pull-down saturates; the clamped rail is a fixed injection
        clamped = TransistorModel(r_on=1e3, r_off=1e9, i_sat=1e-4)
        drivers = {"w0": RowDriver(clamped, nmos_on=True), "w1": RowDriver(clamped)}
        bias = {"b0": LineBias.voltage(1.2), "b1": LineBias.voltage(0.6)}
        net = grid_network([["P", "AP"], ["AP", "P"]], bias, drivers=drivers, line_resistance=2.0)
        sol = solve_network(net)
        assert "w0" in sol.clamped
        supplied, dissipated, gross = power_balance(net, sol)
        assert abs(supplied - dissipated) <= 1e-9 * gross


class TestRegulatedSources:
    def test_regulated_write_drive_matches_oracle(self):
        # a parallel '1' write on a wired balanced array: at the source
        # currents the solver returns, the independent elimination must see
        # every addressed cell carry the write current
        arr = CrossbarArray(4, 4, line_resistance=1.0)
        arr.set_word(0, "0110")
        arr.set_word(2, "1011")
        drivers = select_word(arr, 1, "1")
        cells = {arr.host_segment(1, j): 4 + j for j in range(4)}  # cell k = word * n_bits + bit
        bias = {seg: LineBias.regulated(k, arr.write_current) for seg, k in cells.items()}
        sol = solve_network(arr.to_network(bias, drivers))
        net = arr.to_network({}, drivers)
        resistors, fixed, injected = oracle_description(net)
        injected.update({(seg, 0): sol.source_currents[seg] for seg in cells})
        volts = solve_nodes(resistors, fixed, injected)
        crossings = {line: [] for line in net.core.lines}
        for row, col, _, _ in net_branches(net):
            crossings[row].append(col)
            crossings[col].append(row)
        for k, (row, col, r, tag) in enumerate(net_branches(net)):
            if k not in cells.values():
                continue
            col_node = (col, crossings[col].index(row))
            row_node = (row, crossings[row].index(col))
            current = branch_current(volts, col_node, row_node, r)
            assert current == pytest.approx(arr.write_current, rel=1e-10, abs=0.0), tag


class TestSourceBookkeeping:
    def test_source_current_balances_branches(self):
        rng = random.Random(3)
        for _ in range(20):
            net = random_case(rng)
            sol = solve_network(net)
            for col in net.core.cols:
                lb = net.bias.get(col)
                if lb is None:
                    continue
                through = sum(column_currents(net, sol, col).values())
                assert sol.source_currents[col] == pytest.approx(
                    through, rel=1e-9, abs=1e-15
                )

    def test_wired_voltage_source_supplies_what_its_cells_draw(self):
        # with wires a voltage-driven column's current is the sum of its
        # cells' currents, not the wire current at its terminal, which
        # differs from that sum by rounding of about 1e-11 of itself
        arr = CrossbarArray(8, 16, line_resistance=1.0)
        rng = random.Random(5)
        for w in range(arr.m_words):
            arr.set_word(w, "".join(rng.choice("01") for _ in range(arr.n_bits)))
        for bits in (None, {0, 5}):
            sol = ops._read_solution(arr, 3, DriveConfig(), driven_bits=bits)
            core = sol.core
            col = core.node_line[core.cell_col] - len(core.rows)
            for j, seg in enumerate(core.cols):
                if seg in sol.source_currents:
                    drawn = sum(sol.currents[col == j].tolist())
                    assert sol.source_currents[seg] == pytest.approx(drawn, rel=1e-15, abs=0.0), seg
