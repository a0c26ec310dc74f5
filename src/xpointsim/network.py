"""Resistive network solver for one cross-point array.

The array is described as a bipartite mesh: word lines (rows) and bit lines
(columns) joined by two-terminal device branches at the crossings. Lines
can be driven by ideal voltage sources, ideal or regulated current sources,
grounded, left floating, or (rows only) tied to the rails through a
pull-up/pull-down transistor pair. Nodal analysis (Ho, Ruehli & Brennan,
IEEE TCAS 1975) gives every line voltage and every branch current at once,
which is exactly what is needed to see where sneak currents go.

The topology is compiled once into integer index arrays, a
:class:`NodalCore`; between solves only conductances, biases and drivers
change. Row nodes at even positions along their chain (every row node
without wire resistance) touch only column nodes and the odd nodes of
their own row, so they form an independent set E and their block of the
nodal matrix is diagonal. A solve eliminates them first. A pinned
eliminated node keeps its potential, adds no fill and moves its branch
currents to the right-hand side.

The kept nodes K split into the pinned nodes P, held by a voltage or
ground bias, and the free nodes F; only F is solved for, from the one set
of eliminated-node lanes the solve forms. The Schur complement
``S_FF = G_FF - W_F^T diag(1/D) W_F`` is stamped from the inner edges and
lanes that touch F, a lane to P weighing 0. The pinned potentials reach
the right-hand side through ``G_FP``, at the far ends of the inner edges,
and through the eliminated nodes, ``W_F^T diag(1/D) W_P x_P``, where
``W_P x_P`` sums whole lane rows (free nodes sit at 0 V in ``x_P``). It
factors ``S_FF`` once and back-substitutes the eliminated potentials
``x_E = (b_E + W x_K) / D``. The scatter targets of ``S_FF`` are compiled
once per pin pattern on the core. A read without wire resistance drives
every bit-line segment, so every kept node is pinned: F is empty, the
solve is 0 x 0 and forms no fill. A write pins none, and ``S_FF`` is the
whole Schur complement.

Every row owns a pull-up and a pull-down rail at its terminal, fixed on
the core. A network names the drivers of its selected rows only; every
other row takes the network's idle driver, and with none its rails are
open (infinite resistance), so they carry no current and anchor nothing.

Transistor saturation makes the system piecewise linear. The solver
iterates on the set of saturated switches: solve, clamp any switch whose
ohmic current exceeds its saturation limit, replace it with a fixed
injection, and repeat until the saturated set is stable.

A regulated source injects whatever current makes one named device branch
carry a target current. For a fixed saturated set the network is affine in
the source currents, so unit injections at the k regulated lines, solved
as extra right-hand-side columns of the same factorisation, give the exact
transfer resistances; a k x k solve then places the operating point.

With ``line_resistance > 0`` every line is expanded into a chain of nodes,
one per crossing, joined by the per-segment wire resistance. Crossing
order along a line follows the order of branch declaration. Sources attach
at the first node of the chain.

Sign conventions: device current is positive from the bit-line side to the
word-line side; transistor current is positive from the rail into the row;
source current is positive out of the source into the line.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    InvariantError,
    ParameterError,
    SimulationError,
    SingularNetworkError,
)

__all__ = [
    "CrossbarNetwork",
    "DeviceBranch",
    "LineBias",
    "NetworkSolution",
    "NodalCore",
    "RowDriver",
    "SneakReport",
    "build_network",
    "equivalent_resistance",
    "sneak_decomposition",
    "solve_network",
]

_CLAMP_SLACK = 1.0 + 1e-12
_MAX_CLAMP_ITERATIONS = 100
_KCL_LIMIT = 1e-9
_REG_TOL = 1e-10
# fill products formed at once; an eliminated row of a w-bit word has w * w
_FILL_BLOCK = 1 << 16
# pin patterns whose free block a core keeps compiled; a read and a write
# are two, and the oldest is dropped first, so a sweep over bit-serial
# reads of a wide array holds a bounded number of lane tables
_FREE_BLOCKS_KEPT = 4


@dataclass(frozen=True)
class LineBias:
    """How one line is driven externally.

    A regulated source supplies whatever current makes the device branch
    tagged ``cell`` carry ``value`` amperes.
    """

    kind: str  # "voltage" | "current" | "regulated" | "ground" | "float"
    value: float = 0.0
    cell: str | None = None

    _KINDS = ("voltage", "current", "regulated", "ground", "float")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"bias kind: unknown value {self.kind!r}")
        if not math.isfinite(self.value):
            raise ParameterError(f"bias value: must be finite, got {self.value!r}")
        if (self.kind == "regulated") != (self.cell is not None):
            raise ParameterError("bias cell: names the branch of a regulated source only")

    @classmethod
    def voltage(cls, volts):
        return cls(kind="voltage", value=float(volts))

    @classmethod
    def current(cls, amps):
        return cls(kind="current", value=float(amps))

    @classmethod
    def regulated(cls, cell, amps):
        return cls(kind="regulated", value=float(amps), cell=cell)

    @classmethod
    def ground(cls):
        return cls(kind="ground", value=0.0)

    @classmethod
    def floating(cls):
        return cls(kind="float", value=0.0)


@dataclass(frozen=True)
class DeviceBranch:
    """One junction at a crossing, reduced to its present resistance."""

    row: str
    col: str
    resistance: float
    tag: str


@dataclass(frozen=True)
class RowDriver:
    """Pull-up/pull-down pair tying a word line to the rails."""

    model: object
    pmos_on: bool = False
    nmos_on: bool = False


def _component_labels(n_nodes, a, b):
    """Smallest node index of each node's connected component."""
    labels = np.arange(n_nodes)
    while True:
        lower = labels.copy()
        np.minimum.at(lower, a, labels[b])
        np.minimum.at(lower, b, labels[a])
        lower = lower[lower]
        if np.array_equal(lower, labels):
            return labels
        labels = lower


def _pair_index(lane_k, nk):
    """Flat targets in an nk x nk matrix of every pair of lanes of each row of ``lane_k``."""
    return (lane_k[:, :, None] * nk + lane_k[:, None, :]).ravel()


class NodalCore:
    """Integer-indexed topology of one mesh; independent of any drive.

    Line ``l`` (rows first, then columns) owns the nodes ``terminal[l]``
    onwards and is driven at ``terminal[l]``. Branch ``k`` joins node
    ``cell_col[k]`` on its column to node ``cell_row[k]`` on its row. Mesh
    edges are the branches followed by the wire segments. Branches of
    infinite resistance are open for the lifetime of the core.

    Nodes split into the eliminated block E (``elim``) and the kept block K
    (``kept``); ``slot`` numbers each node within its block. Each E node's
    edges, all to K nodes, sit in one row of the ``lane_*`` arrays.
    """

    def __init__(self, rows, cols, crossings, tags, line_resistance, resistance):
        self.rows, self.cols = list(rows), list(cols)
        self.row_set = frozenset(self.rows)
        self.lines = self.rows + self.cols
        self.line_index = {line: k for k, line in enumerate(self.lines)}
        self.crossings = list(crossings)
        self.tags = list(tags)
        self.tag_index = {tag: k for k, tag in enumerate(self.tags)}
        if not 0.0 <= line_resistance < math.inf:
            raise ParameterError("line_resistance: must be finite and non-negative")
        # a wire conductance below the float resolution of the branch
        # conductances is rounded away in the nodal sums: the lines are open
        r_min = np.min(resistance, initial=math.inf)
        if line_resistance * sys.float_info.epsilon > r_min:
            raise ParameterError(
                f"line_resistance: {line_resistance:g} ohm per segment leaves "
                f"the lines open next to {r_min:g} ohm branches"
            )
        self.line_resistance = line_resistance
        n_lines = len(self.lines)
        row_of = np.array([self.line_index[r] for r, _ in self.crossings], dtype=np.intp)
        col_of = np.array([self.line_index[c] for _, c in self.crossings], dtype=np.intp)
        if line_resistance > 0.0:
            # one node per crossing, numbered along the line in branch order
            ends = np.concatenate([row_of, col_of])
            counts = np.bincount(ends, minlength=n_lines)
            order = np.argsort(ends, kind="stable")
            position = np.empty_like(ends)
            position[order] = np.arange(len(ends)) - (np.cumsum(counts) - counts)[ends[order]]
            row_pos, col_pos = np.split(position, 2)
            sizes = np.maximum(counts, 1)
        else:
            row_pos = col_pos = 0
            sizes = np.ones(n_lines, dtype=np.intp)
        self.terminal = np.cumsum(sizes) - sizes
        self.n_nodes = n = int(sizes.sum())
        self.node_line = np.repeat(np.arange(n_lines), sizes)
        self.cell_col = self.terminal[col_of] + col_pos
        self.cell_row = self.terminal[row_of] + row_pos
        # a wire segment joins each pair of consecutive nodes on one line
        wire = np.flatnonzero(np.diff(self.node_line) == 0)
        self.wire_r = np.full(len(wire), float(line_resistance))
        a = self.edge_a = np.concatenate([self.cell_col, wire])
        b = self.edge_b = np.concatenate([self.cell_row, wire + 1])
        live = np.isfinite(np.concatenate([resistance, self.wire_r]))
        self.labels = _component_labels(n, a[live], b[live])

        # E: row nodes at even chain positions, an independent set, so
        # every edge has at most one end in E
        position = np.arange(n) - self.terminal[self.node_line]
        self.is_elim = (self.node_line < len(self.rows)) & (position % 2 == 0)
        self.elim, self.kept = np.flatnonzero(self.is_elim), np.flatnonzero(~self.is_elim)
        ne, nk = len(self.elim), len(self.kept)
        self.slot = np.empty(n, dtype=np.intp)
        self.slot[self.elim] = np.arange(ne)
        self.slot[self.kept] = np.arange(nk)
        a_elim = self.is_elim[a]
        cross = a_elim | self.is_elim[b]
        self.inner = np.flatnonzero(~cross)
        # the cross edges of each eliminated node, one lane each, padded to
        # the largest degree with lanes of zero weight that point at slot 0
        cross_e = self.slot[np.where(a_elim, a, b)[cross]]
        cross_k = self.slot[np.where(a_elim, b, a)[cross]]
        degree = np.bincount(cross_e, minlength=ne)
        order = np.argsort(cross_e, kind="stable")
        e_of = cross_e[order]
        lane = np.arange(len(order)) - (np.cumsum(degree) - degree)[e_of]
        width = int(degree.max(initial=0))
        self.lane_edge = np.zeros((ne, width), dtype=np.intp)
        self.lane_k = np.zeros((ne, width), dtype=np.intp)
        self.lane_live = np.zeros((ne, width))
        self.lane_edge[e_of, lane] = np.flatnonzero(cross)[order]
        self.lane_k[e_of, lane] = cross_k[order]
        self.lane_live[e_of, lane] = 1.0
        self.lane_node = self.kept[self.lane_k]
        self._free_blocks = {}  # pinned kept nodes -> _FreeBlock
        # the pull-up then the pull-down rail of each row, at its terminal
        self.rail_node = np.repeat(self.terminal[: len(self.rows)], 2)
        self.rail_slot = self.slot[self.rail_node]

    def solve(self, g, shunt, rhs_e, rhs_k, fixed, volts):
        """Potentials of every node, one column per right-hand side.

        ``g`` holds the edge conductances, ``shunt`` a conductance to 0 V
        at each eliminated node, ``rhs_e`` and ``rhs_k`` the currents
        injected at the eliminated and kept nodes. The ``fixed`` nodes sit
        at their ``volts`` in column 0 and at 0 V in the rest.
        """
        in_e = self.is_elim[fixed]
        pin_e, pin_k = self.slot[fixed[in_e]], fixed[~in_e]
        lanes = g[self.lane_edge] * self.lane_live
        d = lanes.sum(axis=1) + shunt
        d[pin_e] = 1.0  # a pinned node: 1/D = 0 below, so it adds no fill
        if not (d.min(initial=math.inf) > 0.0 and d.max(initial=0.0) < math.inf):
            raise SingularNetworkError("nodal matrix is singular: a row pivot is zero or not finite")
        inv_d = 1.0 / d
        inv_d[pin_e] = 0.0
        # y = b_E / D, or a pinned node's volts
        y = rhs_e * inv_d[:, None]
        y[pin_e, 0] = volts[in_e]
        x = np.zeros((self.n_nodes, y.shape[1]))
        x[pin_k, 0] = volts[~in_e]
        free = self._free_block(pin_k)
        x[free.nodes] = free.solve(g, lanes, inv_d, y, rhs_k, x[:, 0])
        # x_E = y + (W x_K) / D
        x[self.elim] = y + inv_d[:, None] * np.matmul(lanes[:, None, :], x[self.lane_node])[:, 0]
        return x

    def _free_block(self, pin_k):
        """The compiled free block for the pinned kept nodes ``pin_k``, kept for the latest patterns."""
        key = np.sort(pin_k).tobytes()
        block = self._free_blocks.get(key)
        if block is None:
            if len(self._free_blocks) >= _FREE_BLOCKS_KEPT:
                del self._free_blocks[next(iter(self._free_blocks))]
            block = self._free_blocks[key] = _FreeBlock(self, pin_k)
        return block


class _FreeBlock:
    """Scatter targets of ``S_FF`` for one set of pinned kept nodes.

    The kept nodes K split into the pinned nodes P and the free nodes F,
    numbered in ``free`` order. The block indexes the core's edges and the
    lanes the solve forms from them, and stamps only what touches F:

    * an inner edge adds its conductance to the diagonal of each free end,
      and its off-diagonal pair when both ends are free (``stamp``); the
      node at the far end of a diagonal stamp (``far``) drives the free
      end from the right-hand side, ``-G_FP x_P``, which is 0 when that
      node is free too;
    * the eliminated nodes with a lane to F (``rows``) add their lanes to
      the diagonal and form the fill ``-W_F^T D^-1 W_F``; a lane to P or
      a padding lane weighs 0 there (``live_f``). The full row passes the
      pinned potentials on to F through the eliminated node,
      ``W_F^T D^-1 W_P x_P``.

    With every kept node pinned F is empty and so is every table here:
    the solve is 0 x 0 and forms no fill. With none pinned every far node
    and every lane end is free, and ``S_FF`` is all of ``S``.
    """

    def __init__(self, core, pin_k):
        nk = len(core.kept)
        is_free = np.ones(nk, dtype=bool)
        is_free[core.slot[pin_k]] = False
        self.free = np.flatnonzero(is_free)
        self.nodes = core.kept[self.free]
        self.nf = nf = len(self.free)
        f_of = np.full(nk, -1)  # F index of each kept slot, -1 when pinned
        f_of[self.free] = np.arange(nf)
        inner = core.inner
        ka, kb = core.slot[core.edge_a[inner]], core.slot[core.edge_b[inner]]
        fa, fb = f_of[ka], f_of[kb]
        a_free, b_free = fa >= 0, fb >= 0
        both = a_free & b_free
        pair = inner[both]
        self.far = np.concatenate([core.edge_b[inner[a_free]], core.edge_a[inner[b_free]]])
        self.stamp = np.concatenate([inner[a_free], inner[b_free], pair, pair])
        self.sign = np.repeat([1.0, -1.0], [len(self.far), 2 * len(pair)])
        lane_f = f_of[core.lane_k]
        to_f = (core.lane_live > 0.0) & (lane_f >= 0)
        self.rows = rows = np.flatnonzero(to_f.any(axis=1))
        self.live_f = to_f[rows].astype(float)
        self.lane_f = np.where(to_f, lane_f, 0)[rows]
        self.lane_node = core.lane_node[rows]
        # targets in the flattened S_FF: the inner edges, then each lane's
        # diagonal, then the pairs of lanes of the first block of rows; the
        # fill goes in blocks of rows so wide words never hold all of it
        width = self.lane_f.shape[1]
        self.fill_rows = max(1, _FILL_BLOCK // max(width * width, 1))
        f = self.lane_f
        self.index = np.concatenate([
            fa[a_free] * (nf + 1), fb[b_free] * (nf + 1),
            fa[both] * nf + fb[both], fb[both] * nf + fa[both],
            (f * (nf + 1)).ravel(), _pair_index(f[: self.fill_rows], nf),
        ])
        self._rhs = {}

    def solve(self, g, lanes, inv_d, y, rhs_k, x_pinned):
        """Free potentials, one column per column of ``y``.

        ``lanes`` holds the conductance of every lane of the core, ``y``
        ``b_E / D`` (a pinned eliminated node's volts), and ``x_pinned`` the
        potential of every node at the base drive: the volts of the pinned
        kept nodes, 0 V elsewhere.
        """
        nf, rows, step = self.nf, self.rows, self.fill_rows
        lanes = lanes[rows]
        # W_P x_P: exact over the full rows, as the free nodes sit at 0 V
        to_p = (lanes * x_pinned[self.lane_node]).sum(axis=1)
        lanes *= self.live_f
        # S_FF = G_FF - W_F^T diag(1/D) W_F; the fill of one eliminated node
        # is the outer product of its lane conductances over D
        stamped = g[self.stamp] * self.sign
        inv_rows = inv_d[rows]
        scaled = lanes * -inv_rows[:, None]
        fill = scaled[:step, :, None] * lanes[:step, None, :]
        weights = np.concatenate((stamped, lanes.ravel(), fill.ravel()))
        s_ff = np.bincount(self.index, weights, nf * nf)
        for lo in range(step, len(rows), step):
            block = slice(lo, lo + step)
            fill = scaled[block, :, None] * lanes[block, None, :]
            np.add.at(s_ff, _pair_index(self.lane_f[block], nf), fill.ravel())
        # the free nodes see b_F + W_F^T (y + D^-1 W_P x_P) - G_FP x_P
        y = y[rows]
        y[:, 0] += inv_rows * to_p
        cols = y.shape[1]
        pushed = lanes[:, :, None] * y[:, None, :]
        weights = np.concatenate((pushed.ravel(), stamped[: len(self.far)] * x_pinned[self.far]))
        rhs = rhs_k[self.free] + np.bincount(
            self._rhs_index(cols), weights, nf * cols
        ).reshape(nf, cols)
        try:
            return np.linalg.solve(s_ff.reshape(nf, nf), rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularNetworkError(f"nodal matrix is singular: {exc}") from exc

    def _rhs_index(self, cols):
        """Flat targets in the free right-hand side of every lane and column,
        then of the free end of each diagonal stamp; built once per column
        count."""
        if cols not in self._rhs:
            lanes = (self.lane_f[:, :, None] * cols + np.arange(cols)).ravel()
            diagonal = self.index[: len(self.far)] // (self.nf + 1)
            self._rhs[cols] = np.concatenate([lanes, diagonal * cols])
        return self._rhs[cols]


class CrossbarNetwork:
    """Lines, device branches, drivers and bias of one mesh.

    ``drivers`` maps a row to its :class:`RowDriver`; every row it leaves
    out takes ``idle``, and with ``idle`` None its rails are open.
    :meth:`on_core` binds resistances (in branch order), drivers, bias and
    the idle driver to a core compiled earlier instead of compiling one
    from branches.
    """

    def __init__(
        self, rows, cols, branches, drivers=None, bias=None, v_dd=1.2, line_resistance=0.0
    ):
        rows, cols, branches = list(rows), list(cols), list(branches)
        row_set, col_set = set(rows), set(cols)
        if len(row_set | col_set) != len(rows) + len(cols):
            raise ParameterError("line names: rows and cols must be distinct")
        tags = set()
        for b in branches:
            if b.row not in row_set:
                raise ParameterError(f"branch {b.tag}: unknown row {b.row!r}")
            if b.col not in col_set:
                raise ParameterError(f"branch {b.tag}: unknown col {b.col!r}")
            if not b.resistance > 0.0:
                raise ParameterError(f"branch {b.tag}: resistance must be positive")
            if b.tag in tags:
                raise ParameterError(f"branch tag {b.tag!r} appears twice")
            tags.add(b.tag)
        resistance = np.array([b.resistance for b in branches], dtype=float)
        core = NodalCore(
            rows, cols, [(b.row, b.col) for b in branches], [b.tag for b in branches],
            line_resistance, resistance,
        )
        self._bind(core, resistance, drivers or {}, bias or {}, v_dd, None)
        self._branches = branches

    @classmethod
    def on_core(cls, core, resistance, drivers, bias, v_dd, idle=None):
        net = cls.__new__(cls)
        net._bind(core, resistance, drivers, bias, v_dd, idle)
        return net

    def _bind(self, core, resistance, drivers, bias, v_dd, idle):
        for line, lb in bias.items():
            if line not in core.line_index:
                raise ParameterError(f"bias: unknown line {line!r}")
            if lb.kind == "regulated" and lb.cell not in core.tag_index:
                raise ParameterError(f"bias {line!r}: unknown cell {lb.cell!r}")
        for row in drivers:
            if row not in core.row_set:
                raise ParameterError(f"driver: {row!r} is not a row")
        self.core = core
        self.resistance = resistance
        self.drivers = drivers
        self.idle = idle
        self.bias = bias
        self.v_dd = v_dd
        self._branches = None

    rows = property(lambda self: self.core.rows)
    cols = property(lambda self: self.core.cols)
    line_resistance = property(lambda self: self.core.line_resistance)

    @property
    def branches(self):
        if self._branches is None:
            values = zip(self.core.crossings, self.resistance.tolist(), self.core.tags)
            self._branches = [DeviceBranch(row, col, r, tag) for (row, col), r, tag in values]
        return self._branches


def _rail_pair(driver):
    """Resistance and saturation current of a driver's pull-up, then its pull-down."""
    if driver is None:
        return (math.inf, math.inf), (math.inf, math.inf)
    m = driver.model
    return (
        (m.r_on if driver.pmos_on else m.r_off, m.i_sat),
        (m.r_on if driver.nmos_on else m.r_off, m.i_sat),
    )


class AssembledNetwork:
    """A network's bias and drivers bound to node indices, ready to solve.

    Rails come in pairs per row, pull-up first; they attach at row
    terminals, which are always eliminated nodes.
    """

    def __init__(self, net):
        core = self.core = net.core
        self.net = net
        fixed, volts, self.regulated, cells, targets = [], [], [], [], []
        self.fixed_lines = []  # the line of each entry of self.fixed
        self.injection = np.zeros(core.n_nodes)  # amps from plain current sources
        for line, lb in net.bias.items():
            node = core.terminal[core.line_index[line]]
            if lb.kind in ("voltage", "ground"):
                self.fixed_lines.append(line)
                fixed.append(node)
                volts.append(lb.value if lb.kind == "voltage" else 0.0)
            elif lb.kind == "current":
                self.injection[node] += lb.value
            elif lb.kind == "regulated":
                self.regulated.append(line)
                cells.append(core.tag_index[lb.cell])
                targets.append(lb.value)
        k = len(self.regulated)
        self.fixed = np.array(fixed, dtype=np.intp)
        self.fixed_volts = np.array(volts)
        self.reg_nodes = core.terminal[[core.line_index[line] for line in self.regulated]]
        self.reg_cells = np.array(cells, dtype=np.intp)
        self.reg_targets = np.array(targets)
        # column 0 is the base drive, column 1 + j a unit injection at regulated line j
        rhs = np.zeros((core.n_nodes, 1 + k))
        rhs[:, 0] = self.injection
        rhs[self.reg_nodes, 1 + np.arange(k)] = 1.0
        self.rhs_e, self.rhs_k = rhs[core.elim], rhs[core.kept]

        n_rows = len(core.rows)
        table = np.tile(_rail_pair(net.idle), (n_rows, 1))
        for row, driver in net.drivers.items():
            k = 2 * core.line_index[row]
            table[k : k + 2] = _rail_pair(driver)
        self.rail_r, self.rail_isat = table.T
        self.rail_volts = np.tile([net.v_dd, 0.0], n_rows)
        self.unknown_count = core.n_nodes - len(self.fixed)


def build_network(net):
    """Bind a network's bias and drivers to the node indices of its core."""
    return AssembledNetwork(net)


def _check_anchored(asm):
    """Every unknown node must conduct to some fixed potential."""
    core = asm.core
    anchors = np.concatenate([asm.fixed, core.rail_node[np.isfinite(asm.rail_r)]])
    anchored = np.zeros(core.n_nodes, dtype=bool)
    anchored[core.labels[anchors]] = True
    stranded = ~anchored[core.labels]
    if stranded.any():
        lines = sorted({core.lines[line] for line in core.node_line[stranded].tolist()})
        raise SingularNetworkError(
            "no conduction path to a fixed potential from: " + ", ".join(lines)
        )


def _solve_linear(asm, g, clamp, rail_g):
    """Node potentials and regulated source currents for one saturated set."""
    core = asm.core
    ne = len(core.elim)
    ohmic_g = np.where(clamp == 0.0, rail_g, 0.0)
    rhs_e = asm.rhs_e.copy()
    rhs_e[:, 0] += np.bincount(core.rail_slot, ohmic_g * asm.rail_volts + clamp, ne)
    shunt = np.bincount(core.rail_slot, ohmic_g, ne)
    x = core.solve(g, shunt, rhs_e, asm.rhs_k, asm.fixed, asm.fixed_volts)
    if not asm.regulated:
        return x[:, 0], np.zeros(0)
    # columns: target-cell currents at the base drive, then per unit injection
    cells, r = asm.reg_cells, asm.net.resistance[asm.reg_cells, None]
    per_cell = (x[core.cell_col[cells]] - x[core.cell_row[cells]]) / r
    try:
        sources = np.linalg.solve(per_cell[:, 1:], asm.reg_targets - per_cell[:, 0])
    except np.linalg.LinAlgError:
        raise ConvergenceError(
            "write-drive regulation lost authority over an addressed cell on "
            + ", ".join(asm.regulated)
        ) from None
    return x[:, 0] + x[:, 1:] @ sources, sources


# potentials that overflow float range are named by _finish_solution as a
# SimulationError, so numpy's own warnings about them stay quiet
@np.errstate(over="ignore", invalid="ignore")
def solve_network(net):
    """Solve a CrossbarNetwork, iterating transistor saturation to a fixed point."""
    asm = build_network(net)
    _check_anchored(asm)
    g = 1.0 / np.concatenate([net.resistance, net.core.wire_r])  # per mesh edge
    rail_g = 1.0 / asm.rail_r  # 0.0 for an open rail, which never saturates
    clamp = np.zeros(len(rail_g))  # clamped rail currents; 0.0 where ohmic
    seen_sets = set()
    for _ in range(_MAX_CLAMP_ITERATIONS):
        volts, sources = _solve_linear(asm, g, clamp, rail_g)
        i_lin = (asm.rail_volts - volts[net.core.rail_node]) * rail_g
        over = np.abs(i_lin) > asm.rail_isat * _CLAMP_SLACK
        proposal = np.where(over, np.copysign(asm.rail_isat, i_lin), 0.0)
        if np.array_equal(proposal, clamp):
            break
        marker = proposal.tobytes()
        if marker in seen_sets:
            raise ConvergenceError(
                "saturation assignment oscillates; no consistent operating point"
            )
        seen_sets.add(marker)
        clamp = proposal
    else:
        raise ConvergenceError("saturation iteration exceeded the step limit")

    return _finish_solution(asm, volts, sources, g, clamp, rail_g)


def _finish_solution(asm, volts, sources, g, clamp, rail_g):
    net, core = asm.net, asm.core
    n = core.n_nodes
    # a finite drive whose potentials overflow float range, as inf or as the
    # NaN of inf - inf inside the solve: no conservation check can judge
    # that solution (a NaN drive fails the check below)
    overflow = ~np.isfinite(volts)
    drive = (asm.fixed_volts, asm.injection, asm.rail_volts, asm.reg_targets)
    if overflow.any() and all(np.isfinite(x).all() for x in drive):
        lines = sorted({core.lines[line] for line in core.node_line[overflow].tolist()})
        raise SimulationError("node potentials beyond float range on: " + ", ".join(lines))
    va, vb = volts[core.edge_a], volts[core.edge_b]
    edge_i = (va - vb) * g
    ohmic = clamp == 0.0
    rail_v = volts[core.rail_node]
    rail_i = np.where(ohmic, (asm.rail_volts - rail_v) * rail_g, clamp)
    injection = asm.injection.copy()
    injection[asm.reg_nodes] += sources
    # net current into each node, over the full edge set, so the check is
    # independent of the elimination
    flow = (
        np.bincount(core.edge_b, edge_i, n)
        - np.bincount(core.edge_a, edge_i, n)
        + np.bincount(core.rail_node, rail_i, n)
        + injection
    )
    # the conservation check is normalised by the gross magnitude of the
    # stamped terms, not the (possibly cancelled) net branch currents
    gross = max(
        ((np.abs(va) + np.abs(vb)) * g).max(initial=0.0),
        ((np.abs(asm.rail_volts) + np.abs(rail_v)) * rail_g)[ohmic].max(initial=0.0),
        np.abs(rail_i).max(initial=0.0),
        np.abs(injection).max(initial=0.0),
    )
    source_flow = flow[asm.fixed]
    flow[asm.fixed] = 0.0
    kcl_residual = float(np.abs(flow).max(initial=0.0) / max(gross, 1e-12))
    # written so that a NaN fails every check
    if not kcl_residual <= _KCL_LIMIT:
        raise InvariantError(
            f"current conservation violated: relative residual {kcl_residual:.3e}"
        )

    currents = edge_i[: len(core.tags)]
    miss = np.abs(currents[asm.reg_cells] - asm.reg_targets)
    if not np.all(miss <= _REG_TOL * np.abs(asm.reg_targets)):
        # the cell furthest past its tolerance, or the first NaN
        k = int(np.argmax(miss - _REG_TOL * np.abs(asm.reg_targets)))
        raise ConvergenceError(
            f"write-drive regulation did not settle: {core.tags[asm.reg_cells[k]]} "
            f"on {asm.regulated[k]} carries {currents[asm.reg_cells[k]]:.6g} A, "
            f"{miss[k]:.2g} A off its target {asm.reg_targets[k]:.6g} A"
        )

    source_currents = dict(zip(asm.regulated, sources.tolist()))
    source_currents.update((line, lb.value) for line, lb in net.bias.items() if lb.kind == "current")
    # an ideal source supplies whatever the node fails to balance
    source_currents.update(zip(asm.fixed_lines, (-source_flow).tolist()))

    return NetworkSolution(
        core=core,
        volts=volts,
        currents=currents,
        rail_currents=rail_i,
        source_currents=source_currents,
        clamped=frozenset(core.rows[r // 2] for r in np.flatnonzero(~ohmic)),
        kcl_residual=kcl_residual,
    )


@dataclass(frozen=True, eq=False)
class NetworkSolution:
    """Operating point: node potentials and device currents in core order.

    ``rail_currents`` holds each row's pull-up then pull-down current, in
    ``driver_rows`` order: every row of the core, an open rail carrying 0.
    """

    core: NodalCore
    volts: np.ndarray
    currents: np.ndarray
    rail_currents: np.ndarray
    source_currents: dict
    clamped: frozenset
    kcl_residual: float

    driver_rows = property(lambda self: self.core.rows)

    @cached_property
    def device_currents(self):
        return dict(zip(self.core.tags, self.currents.tolist()))

    @cached_property
    def transistor_currents(self):
        per_row = self.rail_currents.reshape(-1, 2).sum(axis=1)  # pull-up plus pull-down
        return dict(zip(self.driver_rows, per_row.tolist()))

    @cached_property
    def line_voltages(self):
        return dict(zip(self.core.lines, self.volts[self.core.terminal].tolist()))


@dataclass(frozen=True)
class SneakReport:
    """Current budget of one driven column: addressed branch vs the rest."""

    main: float
    sneak_sum: float
    per_path: dict  # unselected row -> current leaving the column there


def sneak_decomposition(net, solution, row, col):
    """Split a column's current into the addressed branch and sneak branches.

    Every parasitic path out of a driven column starts at one of the
    column's own unselected crossings, so grouping by first hop is a
    complete and disjoint decomposition of the sneak current.
    """
    main = None
    per_path = {}
    for b in net.branches:
        if b.col != col:
            continue
        i = solution.device_currents[b.tag]
        if b.row == row:
            main = i
        else:
            per_path[b.row] = per_path.get(b.row, 0.0) + i
    if main is None:
        raise ParameterError(f"no branch at crossing ({row!r}, {col!r})")
    return SneakReport(main=main, sneak_sum=sum(per_path.values()), per_path=per_path)


def equivalent_resistance(net, line_a, line_b):
    """Two-terminal resistance of the bare device mesh between two lines.

    Drivers and external bias are ignored: this measures the mesh itself,
    by injecting a unit current at ``line_a`` with ``line_b`` grounded.
    Returns ``math.inf`` when no conducting path exists.
    """
    if line_a == line_b:
        return 0.0
    core = net.core
    component = dict(zip(core.lines, core.labels[core.terminal].tolist()))
    if component[line_a] != component[line_b]:
        return math.inf
    # lines off the shared component carry no current: ground them with line_b
    bias = {line: LineBias.ground() for line, c in component.items() if c != component[line_a]}
    bias[line_b] = LineBias.ground()
    bias[line_a] = LineBias.current(1.0)
    solution = solve_network(CrossbarNetwork.on_core(core, net.resistance, {}, bias, net.v_dd))
    return solution.line_voltages[line_a]
