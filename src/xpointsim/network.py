"""Resistive network solver for one cross-point array.

The array is described as a bipartite mesh: word lines (rows) and bit lines
(columns) joined by two-terminal device branches where they cross. A line
is held by an ideal voltage source, fed by an ideal or a regulated current
source, or (rows only) tied to the rails through a pull-up/pull-down
transistor pair; a line the bias does not name floats. Nodal analysis (Ho,
Ruehli & Brennan, IEEE TCAS 1975) gives every line voltage and every
branch current at once, which is exactly what is needed to see where
sneak currents go.

The topology is compiled once into integer index arrays, a
:class:`NodalCore`; between solves only conductances, biases and drivers
change. A branch is its index; its ``row:col`` tag is formatted only for
a message or ``device_currents``. Row nodes at even positions along their
chain (every row node without wire resistance) touch only column nodes
and the odd nodes of their own row, so they form an independent set E and
their block of the nodal matrix is diagonal. A solve eliminates them first; a pinned one adds
no fill and moves its branch currents to the right-hand side.

The kept nodes K carry the Schur complement ``S = G_KK - W^T diag(1/D) W``.
A kept node's layer is its BFS level in the graph of S from the column
terminals, so every coupling spans at most two adjacent layers and S is
block tridiagonal (one layer without wires). One compiled scatter table
stamps the inner edges and lanes into diagonal, upper and lower blocks
padded to the widest layer; the fill of the eliminated nodes whose lanes
start at one layer is one product of their lanes. A pinned kept node's
coupling moves to the right-hand side and its row and column turn to
identity, so S stays symmetric positive definite. Forward block
elimination and back-substitution solve it, then ``x_E = (b_E + W x_K)
/ D``. Without wires a read pins every kept node and solves nothing.

Every row owns a pull-up and a pull-down rail at its terminal, fixed on
the core. A network names the drivers of its selected rows only; every
other row takes the network's idle driver, and with none its rails are
open (infinite resistance), so they carry no current and anchor nothing.

Transistor saturation makes the system piecewise linear. The solver
iterates on the set of saturated switches (``_saturate``): solve, clamp any
switch whose ohmic current exceeds its saturation limit (``_clamps``),
replace it with a fixed injection, and repeat until the set is stable.

A regulated source injects whatever current makes one device branch (an
index) carry a target current. For a fixed saturated set the network is
affine in the source currents, so unit injections at the k regulated lines, solved
as extra right-hand-side columns of the same factorisation, give the exact
transfer resistances; a k x k solve then places the operating point.

The phases of one write select one row and drive some of one word's cells,
so they differ only at a few nodes: the write's reach, the terminals of the
driven cells' lines and, with wires, the cells' own two chain nodes. A
:class:`WriteSolver` stands in for ``NodalCore.solve`` through every solve
of one write. Its first solve is a full one that also solves a unit
injection at each reach node. A later solve whose conductances, shunts and
drive differ from that base at reach nodes only is the base's Woodbury
correction (W. W. Hager, SIAM Review 31(2), 1989): a flipped cell is a
dipole, a rail change of the selected row one place, a source a combination
of the unit columns. A change beyond the reach, such as a disturbed cell of
another word, re-bases with a full solve. A corrected solution runs the
same saturation loop, regulated transfer and checks (KCL, regulation,
overflow) as a full one; one that fails a check is solved again in full,
and that result or error stands.

With ``line_resistance > 0`` every line is expanded into a chain of nodes,
one per crossing, joined by the per-segment wire resistance. Crossing
order along a line follows the order of branch declaration. Sources attach
at the first node of the chain.

Sign conventions: device current is positive from the bit-line side to the
word-line side; transistor current is positive from the rail into the row;
source current is positive out of the source into the line. A voltage
source's current is what its line's cells and rails draw, summed over the
line: with wires, not the wire current at its terminal, a difference of
nearby potentials.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import (
    ConvergenceError,
    InvariantError,
    ParameterError,
    ReadDisturbError,
    SimulationError,
    SingularNetworkError,
)

__all__ = [
    "CrossbarNetwork",
    "LineBias",
    "NetworkSolution",
    "NodalCore",
    "ReadBase",
    "RowDriver",
    "WriteSolver",
    "build_network",
    "equivalent_resistance",
    "solve_network",
]

_CLAMP_SLACK = 1.0 + 1e-12
_MAX_CLAMP_ITERATIONS = 100
_KCL_LIMIT = 1e-9
_REG_TOL = 1e-10
_GATHER = 1 << 16  # potentials gathered per block of eliminated rows
_ROOT_MAX = math.sqrt(sys.float_info.max)  # a conductance whose square overflows
_OSCILLATES = "saturation assignment oscillates; no consistent operating point"


@dataclass(frozen=True)
class LineBias:
    """How one line is driven externally; a line with no bias floats.

    A regulated source supplies whatever current makes device branch
    ``cell`` (its index in the core) carry ``value`` amperes.
    """

    kind: str  # "voltage" | "current" | "regulated"
    value: float = 0.0
    cell: int | None = None

    _KINDS = ("voltage", "current", "regulated")

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


def _ranks(keys, n_keys):
    """Each entry's rank among the entries of its key, in order, and the count of each key."""
    counts = np.bincount(keys, minlength=n_keys)
    order = np.argsort(keys, kind="stable")
    rank = np.empty_like(keys)
    rank[order] = np.arange(len(keys)) - (np.cumsum(counts) - counts)[keys[order]]
    return rank, counts


def _levels(n_nodes, a, b, hop, seeds):
    """Steps from ``seeds`` to every node over the edges ``a``-``b``, where
    entering a ``hop`` node is free; -1 where no seed reaches."""
    ends, other = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.argsort(ends, kind="stable")
    start = np.searchsorted(ends[order], np.arange(n_nodes + 1))
    level, claim = np.full(n_nodes, -1), np.full(n_nodes, -1)

    def step(nodes, hops):
        """The unvisited neighbours of ``nodes`` that are ``hops`` or not, once each."""
        counts = start[nodes + 1] - start[nodes]
        reach = other[order[np.arange(counts.sum()) + np.repeat(start[nodes] - np.cumsum(counts) + counts, counts)]]
        reach = reach[(level[reach] < 0) & (hop[reach] == hops)]
        claim[reach] = np.arange(len(reach))  # one copy of each node keeps its claim
        return reach[claim[reach] == np.arange(len(reach))]

    frontier, depth = seeds, 0
    level[seeds] = 0
    while frontier.size:
        via = step(frontier, True)
        level[via] = depth
        frontier, depth = step(np.concatenate([frontier, via]), False), depth + 1
        level[frontier] = depth
    return level


def _check_wires(line_resistance, resistance):
    """Refuse a ``line_resistance`` per segment the nodal sums cannot resolve next to ``resistance``."""
    if not 0.0 <= line_resistance < math.inf:
        raise ParameterError("line_resistance: must be finite and non-negative")
    # a wire conductance below the float resolution of the branch
    # conductances is rounded away in the nodal sums: the lines are open
    r_min = np.min(resistance, initial=math.inf)
    if line_resistance * sys.float_info.epsilon > r_min:
        raise ParameterError(f"line_resistance: {line_resistance:g} ohm per segment leaves the lines "
                             f"open next to {r_min:g} ohm branches")
    # a wire conductance so large that the branch conductances drop
    # below the rounding error of the chain sums loses the branch
    # currents: the answer would be wrong with no sign of it
    r_max = np.max(resistance[np.isfinite(resistance)], initial=0.0)
    floor = r_max * sys.float_info.epsilon / _KCL_LIMIT
    if 0.0 < line_resistance < floor:
        raise ParameterError(f"line_resistance: {line_resistance:g} ohm per segment is below the {floor:g} "
                             f"ohm floor next to {r_max:g} ohm branches; 0 means ideal wires")


class NodalCore:
    """Integer-indexed topology of one mesh; independent of any drive.

    The only place a mesh is compiled and checked. Branch ``k``, alone at its
    crossing, joins ``rows[cell_row[k]]`` to ``cols[cell_col[k]]`` and has the
    positive ``resistance[k]`` when compiled; :meth:`tag` names it.

    Line ``l`` (rows first, then columns) owns the nodes ``terminal[l]``
    onwards; its bias and a row's rails attach at ``terminal[l]``. Compiled,
    branch ``k`` joins node ``cell_col[k]`` on its column to node
    ``cell_row[k]`` on its row. Mesh edges are the branches followed by the
    wire segments. Branches of infinite resistance are open for the lifetime
    of the core.

    Nodes split into the eliminated block E (``elim``) and the kept block K
    (``kept``); ``slot`` numbers each node within its block. Each E node's
    edges, all to K nodes, sit in one row of the ``lane_*`` arrays. Kept
    node k is at ``pack[k]`` in ``n_layers`` layers of ``width`` places;
    ``block_index`` places the edge and lane stamps of S in its blocks and
    ``fill_index`` each lane in its group's rows of ``span`` places.
    """

    def __init__(self, rows, cols, cell_row, cell_col, line_resistance, resistance):
        self.rows, self.cols = list(rows), list(cols)
        self.row_set = frozenset(self.rows)
        self.lines = self.rows + self.cols
        self.line_index = {line: k for k, line in enumerate(self.lines)}
        if len(self.line_index) != len(self.lines):
            raise ParameterError("line names: rows and cols must be distinct")
        n_rows, n_cols, n_lines = len(self.rows), len(self.cols), len(self.lines)
        row_of, col_of = np.asarray(cell_row, dtype=np.intp), np.asarray(cell_col, dtype=np.intp)
        for name, index, n in (("row", row_of, n_rows), ("col", col_of, n_cols)):
            for k in np.flatnonzero((index < 0) | (index >= n))[:1]:
                raise ParameterError(f"branch {k}: {name} {index[k]} outside 0..{n - 1}")
        self.line_resistance = line_resistance
        if line_resistance > 0.0:
            # one node per crossing, numbered along the line in branch order
            position, counts = _ranks(np.concatenate([row_of, n_rows + col_of]), n_lines)
            row_pos, col_pos = np.split(position, 2)
            sizes = np.maximum(counts, 1)
        else:
            row_pos = col_pos = 0
            sizes = np.ones(n_lines, dtype=np.intp)
        self.terminal = np.cumsum(sizes) - sizes
        self.n_nodes = n = int(sizes.sum())
        self.node_line = np.repeat(np.arange(n_lines), sizes)
        self.cell_col = self.terminal[n_rows + col_of] + col_pos
        self.cell_row = self.terminal[row_of] + row_pos
        for k in np.flatnonzero(~(resistance > 0.0))[:1]:
            raise ParameterError(f"branch {self.tag(k)}: resistance must be positive")
        crossing = row_of * n_cols + col_of
        order = np.argsort(crossing, kind="stable")  # the first branch at a crossing first
        crossing = crossing[order]
        for k in np.sort(order[1:][crossing[1:] == crossing[:-1]])[:1]:
            raise ParameterError(f"branch {k}: crossing {self.tag(k)} appears twice")
        _check_wires(line_resistance, resistance)
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
        lane, degree = _ranks(cross_e, ne)
        width = int(degree.max(initial=0))
        self.lane_edge = np.zeros((ne, width), dtype=np.intp)
        lane_k = np.zeros((ne, width), dtype=np.intp)
        self.lane_live = np.zeros((ne, width))
        self.lane_edge[cross_e, lane] = np.flatnonzero(cross)
        lane_k[cross_e, lane] = self.slot[np.where(a_elim, b, a)[cross]]
        self.lane_live[cross_e, lane] = 1.0
        self.lane_node = self.kept[lane_k]

        # a kept node's layer is its BFS level from the column terminals; a
        # component no bit line reaches stays whole in layer 0. Without
        # wires every kept node is a column terminal: one layer, no walk.
        # An eliminated node's level is the first layer of its lanes
        cols = self.terminal[len(self.rows):]
        levels = _levels(n, a, b, self.is_elim, cols) if len(cols) < nk else np.zeros(n, dtype=int)
        levels = np.maximum(levels, 0)
        self.layer = layer = levels[self.kept]
        self.n_layers = n_layers = int(layer.max(initial=0)) + 1
        pos, sizes = _ranks(layer, n_layers)
        self.width = p = int(sizes.max(initial=0))
        self.pack = layer * p + pos  # each kept node's place in the padded layers
        pads = np.flatnonzero(np.bincount(self.pack, minlength=n_layers * p) == 0)
        self.pads = pads * p + pads % p  # the padding's diagonal, identity in every solve

        def place(i, j):  # of S[i, j] among the diagonal, then upper, then lower blocks
            li, lj = layer[i], layer[j]
            block = np.array([0, n_layers, 2 * n_layers - 1])[(lj - li) % 3] + np.minimum(li, lj)
            return (block * p + pos[i]) * p + pos[j]

        # each inner edge on the diagonal at both ends, then off it both
        # ways; each lane on the diagonal at its kept end
        ka, kb, diagonal = self.slot[a[self.inner]], self.slot[b[self.inner]], self.pack * p + pos
        self.block_index = np.concatenate(
            [diagonal[ka], diagonal[kb], place(ka, kb), place(kb, ka), diagonal[lane_k].ravel()]
        )
        # the eliminated nodes whose lanes start at layer l are group l; each
        # has a row of the group, its lanes at their place in layers l, l + 1
        group = levels[self.elim]
        row, counts = _ranks(group, n_layers)
        self.group_rows, self.span = int(counts.max(initial=0)), p * min(n_layers, 2)
        self.e_pack = group * self.group_rows + row
        lane_place = np.where(self.lane_live > 0.0, (layer[lane_k] - group[:, None]) * p + pos[lane_k], 0)
        self.fill_index = (self.e_pack[:, None] * self.span + lane_place).ravel()
        # the pull-up then the pull-down rail of each row, at its terminal
        self.rail_node = np.repeat(self.terminal[: len(self.rows)], 2)
        self.rail_slot = self.slot[self.rail_node]

    def tag(self, k):
        """Branch ``k``'s name in messages: ``row:col``."""
        return f"{self.lines[self.node_line[self.cell_row[k]]]}:{self.lines[self.node_line[self.cell_col[k]]]}"

    def solve(self, g, shunt, rhs_e, rhs_k, fixed, volts):
        """Potentials of every node, one column per right-hand side.

        ``g`` holds the edge conductances, ``shunt`` a conductance to 0 V
        at each eliminated node, ``rhs_e`` and ``rhs_k`` the currents
        injected at the eliminated and kept nodes. The ``fixed`` nodes sit
        at their ``volts`` in column 0 and at 0 V in the rest.
        """
        in_e = self.is_elim[fixed]
        pin_e, pin_k = self.slot[fixed[in_e]], self.slot[fixed[~in_e]]
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
        x[self.kept[pin_k], 0] = volts[~in_e]
        if len(pin_k) < len(self.kept):  # some kept node is free
            x[self.kept] = self._solve_kept(g, lanes, inv_d, y, rhs_k, x[self.kept, 0], pin_k)
        # x_E = y + (W x_K) / D, a block of rows at a time so that the gather of
        # their lanes' potentials stays in cache (np.take: a fraction of the cost of x[lane_node])
        step = max(1, _GATHER // max(1, lanes.shape[1] * y.shape[1]))
        for rows in (slice(s, s + step) for s in range(0, len(self.elim), step)):
            fill = np.matmul(lanes[rows, None, :], np.take(x, self.lane_node[rows], axis=0))[:, 0]
            x[self.elim[rows]] = y[rows] + inv_d[rows, None] * fill
        return x

    def _solve_kept(self, g, lanes, inv_d, y, rhs_k, x_pinned, pin_k):
        """Kept potentials, one column per column of ``y`` (``b_E / D``, or a
        pinned eliminated node's volts); the kept slots ``pin_k`` are held at
        ``x_pinned``, which is 0 V at the free nodes."""
        n_layers, p, q, span, cols = self.n_layers, self.width, self.group_rows, self.span, y.shape[1]
        g_inner = g[self.inner]
        weights = np.concatenate((g_inner, g_inner, -g_inner, -g_inner, lanes.ravel()))
        blocks = np.bincount(self.block_index, weights, (3 * n_layers - 2) * p * p).reshape(-1, p, p)
        blocks.reshape(-1)[self.pads] = 1.0
        diag, upper, lower = blocks[:n_layers], blocks[n_layers : 2 * n_layers - 1], blocks[2 * n_layers - 1 :]
        # each layer's upper block, then its right-hand side
        system = np.zeros((n_layers, p, p + cols))
        system[:-1, :, :p] = upper
        upper, b = system[:-1, :, :p], system[:, :, p:]
        # S = G_KK - W^T diag(1/D) W, and the kept nodes see b_K + W^T y:
        # both are products of each group's lanes with that group's rows
        # of -1/D and y. The columns of y past its last nonzero one (unit
        # injections at kept nodes, which callers put last) add nothing
        nonzero = np.flatnonzero(y.any(axis=0))
        live = nonzero[-1] + 1 if len(nonzero) else 0
        b_live = b[:, :, :live]
        w = np.bincount(self.fill_index, lanes.ravel(), n_layers * q * span).reshape(n_layers, q, span)
        rows = np.zeros((n_layers * q, 1 + live))
        rows[self.e_pack, 0], rows[self.e_pack, 1:] = -inv_d, y[:, :live]
        rows = rows.reshape(n_layers, q, 1 + live)
        w_t, w_d = w.transpose(0, 2, 1), w * rows[:, :, :1]
        diag += w_t[:, :p] @ w_d[:, :, :p]
        b_live[:] = w_t[:, :p] @ rows[:, :, 1:]
        if n_layers > 1:  # a group's lanes into the next layer
            diag[1:] += w_t[:-1, p:] @ w_d[:-1, :, p:]
            upper += w_t[:-1, :p] @ w_d[:-1, :, p:]
            lower += w_t[:-1, p:] @ w_d[:-1, :, :p]
            b_live[1:] += w_t[:-1, p:] @ rows[:-1, :, 1:]
        b.reshape(-1, cols)[self.pack] += rhs_k
        if len(pin_k):
            # a pinned node is a symmetric Dirichlet row: its coupling
            # -S_KP x_P goes to the right-hand side (x_P is 0 V at the
            # free nodes), and its row and column turn to identity
            x_p, free = np.zeros(n_layers * p), np.ones(n_layers * p)
            x_p[self.pack], free[self.pack[pin_k]] = x_pinned, 0.0
            x_p, free = x_p.reshape(n_layers, p, 1), free.reshape(n_layers, p, 1)
            b[:, :, :1] -= diag @ x_p
            b[:-1, :, :1] -= upper @ x_p[1:]
            b[1:, :, :1] -= lower @ x_p[:-1]
            diag *= free * free.transpose(0, 2, 1)
            upper *= free[:-1] * free[1:].transpose(0, 2, 1)
            lower *= free[1:] * free[:-1].transpose(0, 2, 1)
            diag.reshape(n_layers, -1)[:, :: p + 1] += 1.0 - free[:, :, 0]
            b *= free
            b[:, :, :1] += x_p
        try:
            return _sweep(diag, lower, system).reshape(-1, cols)[self.pack]
        except np.linalg.LinAlgError as exc:
            # every node is anchored (the callers check), so a singular block
            # rounded its anchors away; when conductances whose products leave
            # float range did that, the error names their lines as an overflow
            hot = np.abs(g) > _ROOT_MAX
            if hot.any():
                nodes = np.concatenate([self.edge_a[hot], self.edge_b[hot]])
                raise _overflowed(self, nodes, "conductance products") from exc
            raise SingularNetworkError(f"nodal matrix is singular: {exc}") from exc


def _sweep(diag, lower, system):
    """Solve in place the block tridiagonal system of ``diag``, ``lower[l]`` (layer l + 1
    to l) and ``system[l]``, layer l's block to l + 1 then its right-hand side: S is
    positive definite, so forward block elimination and back-substitution (Golub & Van
    Loan, *Matrix Computations*) need no pivoting across blocks."""
    p, last = diag.shape[1], len(diag) - 1
    for l in range(last + 1):
        a = diag[l]
        if l:
            done = lower[l - 1] @ system[l - 1]
            a = a - done[:, :p]
            system[l, :, p:] -= done[:, p:]
        start = p if l == last else 0  # no upper block past the last layer
        system[l, :, start:] = np.linalg.solve(a, system[l, :, start:])
    x = system[:, :, p:]
    for l in range(last - 1, -1, -1):
        x[l] -= system[l, :, :p] @ x[l + 1]
    return x


class WriteSolver:
    """:meth:`NodalCore.solve` for the phases of one write of branches ``cells``.

    The write's reach is the terminals of the cells' lines and the cells'
    own two nodes (the terminals themselves without wires). A call that
    finds no base solves its drive and a unit injection at each reach node
    in full, and that is the base. A later call whose ``g``, ``shunt`` and
    drive differ from the base's at reach nodes only is the base's Woodbury
    correction (W. W. Hager, SIAM Review 31(2), 1989): a flipped cell is a
    dipole, a rail change of the selected row one place. Every further
    right-hand side, a source's unit injection at a reach node, is a
    combination of the base's columns. Any other change, or a singular
    correction, re-bases. A call that pins nodes or injects beyond the reach
    is solved by ``core.solve``. A correction sets ``corrected``, which
    :func:`solve_network` clears.
    """

    def __init__(self, core, cells):
        nodes = np.concatenate([core.cell_row[cells], core.cell_col[cells]])
        self.core, self.place = core, np.full(core.n_nodes, -1)  # each node's place in the reach, or -1
        self.place[core.terminal[core.node_line[nodes]]] = self.place[nodes] = 0
        reach = np.flatnonzero(self.place == 0)
        # eliminated nodes first: the kept ones' unit columns, last, cost the fill nothing
        self.reach = np.concatenate([reach[core.is_elim[reach]], reach[~core.is_elim[reach]]])
        self.place[self.reach] = np.arange(len(self.reach))
        self.base, self.corrected = None, False

    def __call__(self, g, shunt, rhs_e, rhs_k, fixed, volts):
        core, reach = self.core, self.reach
        rhs = np.zeros((core.n_nodes, rhs_e.shape[1]))
        rhs[core.elim], rhs[core.kept] = rhs_e, rhs_k
        if len(fixed) or (self.place[np.flatnonzero(rhs[:, 1:].any(axis=1))] < 0).any():
            return core.solve(g, shunt, rhs_e, rhs_k, fixed, volts)
        coef = None if self.base is None else self._corrected(g, shunt, rhs)
        if coef is None:
            both = np.zeros((core.n_nodes, 1 + len(reach)))
            both[:, 0], both[reach, 1 + np.arange(len(reach))] = rhs[:, 0], 1.0
            self.base = (g, shunt, rhs[:, 0], core.solve(g, shunt, both[core.elim], both[core.kept], fixed, volts))
            coef = rhs[reach]
            coef[:, 0] = 0.0  # the base's own drive
        # the base's drive plus its unit responses weighted by coef
        base = self.base[-1]
        x = base[:, 1:] @ coef
        x[:, 0] += base[:, 0]
        return x

    def _corrected(self, g, shunt, rhs):
        """The weights of the base's unit responses that solve ``rhs`` as the
        base's correction, or None where a change leaves the reach or the
        correction is singular."""
        core, place, reach = self.core, self.place, self.reach
        g0, shunt0, drive0, base = self.base
        edges, shunts = np.flatnonzero(g != g0), np.flatnonzero(shunt != shunt0)
        moved = np.flatnonzero(rhs[:, 0] != drive0)
        if (place[np.concatenate([core.edge_a[edges], core.edge_b[edges], core.elim[shunts], moved])] < 0).any():
            return None
        coef = rhs[reach]
        coef[:, 0] -= drive0[reach]
        if len(edges) or len(shunts):
            # the change C of the nodal matrix within the reach moves the
            # solution by -Z (I + C Z_U)^-1 C x_U, x_U the reach's potentials
            # of the base's solution for rhs
            m, a, b, dg = len(reach), place[core.edge_a[edges]], place[core.edge_b[edges]], g[edges] - g0[edges]
            s, ds = place[core.elim[shunts]], shunt[shunts] - shunt0[shunts]
            c = np.bincount(np.concatenate([a * m + a, b * m + b, a * m + b, b * m + a, s * (m + 1)]),
                            np.concatenate([dg, dg, -dg, -dg, ds]), m * m).reshape(m, m)
            z = base[reach, 1:]
            x_u = z @ coef
            x_u[:, 0] += base[reach, 0]
            try:
                coef -= np.linalg.solve(np.eye(m) + c @ z, c @ x_u)
            except np.linalg.LinAlgError:
                return None
        self.corrected = True
        return coef


@dataclass(frozen=True, eq=False)
class CrossbarNetwork:
    """One drive of a compiled mesh: branch resistances, drivers and bias.

    ``resistance`` follows the core's branch order. ``drivers`` maps a row
    to its :class:`RowDriver`; every row it leaves out takes ``idle``, and
    with ``idle`` None its rails are open.
    """

    core: NodalCore
    resistance: np.ndarray
    drivers: dict
    bias: dict
    v_dd: float
    idle: RowDriver | None = None


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
        fixed, volts, self.regulated, reg_nodes, cells, targets = [], [], [], [], [], []
        self.fixed_lines = []  # the line of each entry of self.fixed
        self.injection = np.zeros(core.n_nodes)  # amps from plain current sources
        for line, lb in net.bias.items():
            index = core.line_index.get(line)
            if index is None:
                raise ParameterError(f"bias: unknown line {line!r}")
            node = core.terminal[index]
            if lb.kind == "voltage":
                self.fixed_lines.append(line)
                fixed.append(node)
                volts.append(lb.value)
            elif lb.kind == "current":
                self.injection[node] += lb.value
            elif lb.kind == "regulated":
                if not 0 <= lb.cell < len(core.cell_row):
                    raise ParameterError(f"bias {line!r}: unknown cell {lb.cell!r}")
                self.regulated.append(line)
                reg_nodes.append(node)
                cells.append(lb.cell)
                targets.append(lb.value)
        k = len(self.regulated)
        self.fixed = np.array(fixed, dtype=np.intp)
        self.fixed_volts = np.array(volts)
        self.reg_nodes = np.array(reg_nodes, dtype=np.intp)
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
            if row not in core.row_set:
                raise ParameterError(f"driver: {row!r} is not a row")
            k = 2 * core.line_index[row]
            table[k : k + 2] = _rail_pair(driver)
        self.rail_r, self.rail_isat = table.T
        self.rail_volts = np.tile([net.v_dd, 0.0], n_rows)
        self.free = np.ones(core.n_nodes, dtype=bool)  # the nodes KCL is checked at
        self.free[self.fixed] = False
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


def _solve_linear(asm, g, clamp, rail_g, solve):
    """Node potentials and regulated source currents for one saturated set, and each rail's
    ohmic current; ``solve`` has the contract of :meth:`NodalCore.solve`."""
    core = asm.core
    ne = len(core.elim)
    ohmic_g = np.where(clamp == 0.0, rail_g, 0.0)
    rhs_e = asm.rhs_e.copy()
    rhs_e[:, 0] += np.bincount(core.rail_slot, ohmic_g * asm.rail_volts + clamp, ne)
    shunt = np.bincount(core.rail_slot, ohmic_g, ne)
    x = solve(g, shunt, rhs_e, asm.rhs_k, asm.fixed, asm.fixed_volts)
    volts, sources = x[:, 0], np.zeros(0)
    if asm.regulated:
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
        volts = volts + x[:, 1:] @ sources
    return (volts, sources), (asm.rail_volts - volts[core.rail_node]) * rail_g


def _clamps(i_lin, isat):
    """The saturation rule: ``isat`` in the sign of an ohmic current ``i_lin`` past it, else 0.0 (ohmic)."""
    return np.where(np.abs(i_lin) > isat * _CLAMP_SLACK, np.copysign(isat, i_lin), 0.0)


def _saturate(clamp, step, isat):
    """The result of ``step`` and the saturated set it settles at, from ``clamp`` on: ``step(clamp)``
    solves one set, returning its result and each rail's ohmic current for :func:`_clamps`."""
    seen = set()
    for _ in range(_MAX_CLAMP_ITERATIONS):
        result, i_lin = step(clamp)
        proposal = _clamps(i_lin, isat)
        if np.array_equal(proposal, clamp):
            return result, clamp
        if proposal.tobytes() in seen:
            raise ConvergenceError(_OSCILLATES)
        seen.add(proposal.tobytes())
        clamp = proposal
    raise ConvergenceError("saturation iteration exceeded the step limit")


# potentials that overflow float range are named by _finish_solution as a
# SimulationError, so numpy's own warnings about them stay quiet
@np.errstate(over="ignore", invalid="ignore")
def solve_network(net, solve=None):
    """Solve a CrossbarNetwork, iterating transistor saturation to a fixed point.

    ``solve``, a :class:`WriteSolver`, stands in for ``net.core.solve``; when
    a solution it corrected fails a check, the network is solved again with
    ``net.core.solve``, whose result or error stands, and it re-bases next.
    """
    asm = build_network(net)
    _check_anchored(asm)
    g = 1.0 / np.concatenate([net.resistance, net.core.wire_r])  # per mesh edge
    rail_g = 1.0 / asm.rail_r  # 0.0 for an open rail, which never saturates
    if solve is not None:
        solve.corrected = False
        try:
            return _settle(asm, g, rail_g, solve)
        except (SimulationError, InvariantError):
            if not solve.corrected:
                raise
            solve.base = None
    return _settle(asm, g, rail_g, net.core.solve)


def _settle(asm, g, rail_g, solve):
    """The checked solution at the saturated set the solves of ``solve`` settle at."""
    step = partial(_solve_linear, asm, g, rail_g=rail_g, solve=solve)
    (volts, sources), clamp = _saturate(np.zeros(len(rail_g)), step, asm.rail_isat)
    return _finish_solution(asm, volts, sources, g, clamp, rail_g)


def _balance(core, x, edges, g, rails, rail_volts, rail_g, clamp, nodes, injection=None):
    """Currents of ``edges`` and ``rails`` at ``x``, and the largest
    imbalance of the net current into ``nodes``: relative to the gross
    magnitude of the stamped terms, not the (possibly cancelled) net
    currents, and checked so that a NaN fails."""
    xa, xb, rail_v = x[core.edge_a[edges]], x[core.edge_b[edges]], x[core.rail_node[rails]]
    i, ohmic, n = (xa - xb) * g, clamp == 0.0, core.n_nodes
    rail_i = np.where(ohmic, (rail_volts - rail_v) * rail_g, clamp)
    flow = np.bincount(core.edge_b[edges], i, n) - np.bincount(core.edge_a[edges], i, n)
    flow += np.bincount(core.rail_node[rails], rail_i, n)
    gross = [((np.abs(xa) + np.abs(xb)) * g).max(initial=0.0), np.abs(rail_i).max(initial=0.0),
             ((np.abs(rail_volts) + np.abs(rail_v)) * rail_g)[ohmic].max(initial=0.0)]
    if injection is not None:
        flow += injection
        gross.append(np.abs(injection).max(initial=0.0))
    residual = float(np.abs(flow[nodes]).max(initial=0.0) / max(*gross, 1e-12))
    if not residual <= _KCL_LIMIT:
        raise InvariantError(f"current conservation violated: relative residual {residual:.3e}")
    return i, rail_i, residual


def _overflowed(core, nodes, what="node potentials"):
    """The error naming the lines of ``nodes``, whose ``what`` left float range."""
    lines = sorted({core.lines[line] for line in core.node_line[nodes].tolist()})
    return SimulationError(f"{what} beyond float range on: " + ", ".join(lines))


def _finish_solution(asm, volts, sources, g, clamp, rail_g):
    net, core = asm.net, asm.core
    # a finite drive whose potentials overflow float range, as inf or as the
    # NaN of inf - inf inside the solve: no conservation check can judge
    # that solution (a NaN drive fails the check below)
    overflow = ~np.isfinite(volts)
    drive = (asm.fixed_volts, asm.injection, asm.rail_volts, asm.reg_targets)
    if overflow.any() and all(np.isfinite(x).all() for x in drive):
        raise _overflowed(core, overflow)
    injection = asm.injection.copy()
    injection[asm.reg_nodes] += sources
    # net current into each node, over the full edge set, so the check is
    # independent of the elimination
    every = slice(None)
    edge_i, rail_i, kcl_residual = _balance(core, volts, every, g, every, asm.rail_volts,
                                            rail_g, clamp, asm.free, injection)

    currents = edge_i[: len(core.cell_row)]
    miss = np.abs(currents[asm.reg_cells] - asm.reg_targets)
    if not np.all(miss <= _REG_TOL * np.abs(asm.reg_targets)):
        # the cell furthest past its tolerance, or the first NaN
        k = int(np.argmax(miss - _REG_TOL * np.abs(asm.reg_targets)))
        raise ConvergenceError(
            f"write-drive regulation did not settle: {core.tag(asm.reg_cells[k])} "
            f"on {asm.regulated[k]} carries {currents[asm.reg_cells[k]]:.6g} A, "
            f"{miss[k]:.2g} A off its target {asm.reg_targets[k]:.6g} A"
        )

    source_currents = dict(zip(asm.regulated, sources.tolist()))
    source_currents.update((line, lb.value) for line, lb in net.bias.items() if lb.kind == "current")
    if asm.fixed_lines:
        # an ideal source supplies what its line's cells and rails draw (see the module docstring)
        line, n = core.node_line, len(core.lines)
        drawn = (np.bincount(line[core.cell_col], currents, n) - np.bincount(line[core.cell_row], currents, n)
                 - np.bincount(line[core.rail_node], rail_i, n))
        source_currents.update(zip(asm.fixed_lines, drawn[line[asm.fixed]].tolist()))

    return NetworkSolution(
        core=core,
        volts=volts,
        currents=currents,
        rail_currents=rail_i,
        source_currents=source_currents,
        clamped=frozenset(core.rows[r // 2] for r in np.flatnonzero(clamp)),
        kcl_residual=kcl_residual,
    )


@dataclass(frozen=True, eq=False)
class NetworkSolution:
    """Operating point: node potentials and device currents in core order.

    ``rail_currents`` holds each row's pull-up then pull-down current, in
    the core's row order: every row, an open rail carrying 0.
    """

    core: NodalCore
    volts: np.ndarray
    currents: np.ndarray
    rail_currents: np.ndarray
    source_currents: dict
    clamped: frozenset
    kcl_residual: float

    @cached_property
    def device_currents(self):
        return {self.core.tag(k): i for k, i in enumerate(self.currents.tolist())}

    @cached_property
    def transistor_currents(self):
        per_row = self.rail_currents.reshape(-1, 2).sum(axis=1)  # pull-up plus pull-down
        return dict(zip(self.core.rows, per_row.tolist()))

    @cached_property
    def line_voltages(self):
        return dict(zip(self.core.lines, self.volts[self.core.terminal].tolist()))


class ReadBase:
    """``net`` (every column at a voltage, every row idle) solved once, and
    reads as corrections of it at the rows whose selectors differ (W. W.
    Hager, SIAM Review 31(2), 1989). An injection at row terminal r moves
    every node by ``resp[:, r]`` with wires. Without, only its own, by
    ``z[r]``: a read is its rows read alone, and the first read after a full
    solve enters every row in ``table``; a row re-solved in place is entered
    again when read. ``solve`` is :func:`solve_network`; a column's current is
    what its cells draw, as a voltage source's there. No current may reach ``limits``."""

    def __init__(self, net, limits, solve=solve_network):
        asm = self.asm = build_network(net)
        _check_anchored(asm)
        core = self.core = net.core
        self.net, self.limits, self.full_solve = net, limits, solve
        n_rows = len(core.rows)
        self.rails = np.arange(2 * n_rows).reshape(n_rows, 2)
        self.rail_g = 1.0 / asm.rail_r
        # no potential leaves the span of the drives, nor a rail current its reach
        span = np.ptp(np.concatenate([asm.rail_volts, asm.fixed_volts]))
        self.settled = bool((span * self.rail_g <= asm.rail_isat * _CLAMP_SLACK).all())
        self.wired = len(asm.fixed) < len(core.kept)  # some kept node is free
        self.free = np.flatnonzero(asm.free)
        self.edges = np.arange(len(core.edge_a))
        # each row's cells in cell order, and the column of every cell
        self.row_cells = core.node_line[core.cell_row].argsort(kind="stable").reshape(n_rows, -1)
        self.cell_col = core.node_line[core.cell_col] - n_rows
        # a row read alone through ``selector``: terminal potential, cell currents
        # less the base's, rail clamps, a cycling saturated set, ok: fresh, passes _checked
        self.entry = np.dtype([("v", float), ("delta", float, self.row_cells.shape[1:]), ("clamp", float, (2,)),
                               ("unsettled", bool), ("ok", bool)])
        self.selector, self.table = None, np.zeros(n_rows, self.entry)
        self.solve(net.resistance)

    @np.errstate(over="ignore", invalid="ignore")  # overflow is named by _checked
    def solve(self, resistance, rows=None):
        """The base for branch ``resistance``; without wires only ``rows``, whose
        branches changed, are re-solved, in place, where they are named."""
        core, asm = self.core, self.asm
        if rows is not None and self.settled and not self.wired:
            edges, rails = self.row_cells[rows].ravel(), self.rails[rows].ravel()
            self.g[edges] = 1.0 / resistance[edges]
            self.z[rows], self.volts[core.terminal[rows]] = self._rows(rows, self.volts)
            args = (edges, core.terminal[rows], rails, self.rail_g[rails], self.clamp[rails])
            self.edge_i[edges] = self._checked(self.volts, *args)
            self.sources = np.bincount(self.cell_col, self.edge_i[: len(core.cell_row)], len(core.cols))
            self.table["ok"][rows] = False  # entered again when read
            return
        self.selector = None  # the next read enters every row
        self.g = 1.0 / np.concatenate([resistance, core.wire_r])
        clamp = np.zeros(len(self.rail_g))
        if not (self.wired and self.settled):
            volts = self.full_solve(replace(self.net, resistance=resistance)).volts
            clamp = _clamps((asm.rail_volts - volts[core.rail_node]) * self.rail_g, asm.rail_isat)
        self.clamp, self.ohmic_g = clamp, np.where(clamp == 0.0, self.rail_g, 0.0)
        ne, terminals = len(core.elim), core.terminal[: len(core.rows)]
        self.shunt = np.bincount(core.rail_slot, self.ohmic_g, ne)
        self.rhs = np.bincount(core.rail_slot, self.ohmic_g * asm.rail_volts + clamp, ne)
        if self.wired:
            rhs_e = np.zeros((ne, 1 + len(terminals)))  # then a unit injection per row terminal
            rhs_e[:, 0], rhs_e[core.slot[terminals], 1 + np.arange(len(terminals))] = self.rhs, 1.0
            x = core.solve(self.g, self.shunt, rhs_e, 0.0, asm.fixed, asm.fixed_volts)
            volts, self.resp = x[:, 0], x[:, 1:]
            self.z = self.resp[terminals]  # row terminal by row terminal
        else:
            self.z = self._rows(np.arange(len(terminals)), volts)[0]
        self.volts, rails = volts, self.rails.ravel()
        self.edge_i = self._checked(volts, self.edges, self.free, rails, self.rail_g, clamp)
        self.sources = np.bincount(self.cell_col, self.edge_i[: len(core.cell_row)], len(core.cols))

    def _rows(self, rows, volts):
        """``1/D`` and potential of ``rows``, kept nodes at ``volts``, as NodalCore.solve."""
        core = self.core
        e = core.slot[core.terminal[rows]]
        lanes = self.g[core.lane_edge[e]] * core.lane_live[e]
        inv_d = 1.0 / (lanes.sum(axis=1) + self.shunt[e])
        fill = np.matmul(lanes[:, None, :], volts[core.lane_node[e]][:, :, None])[:, 0, 0]
        return inv_d, self.rhs[e] * inv_d + inv_d * fill

    def _checked(self, x, edges, nodes, rails, rail_g, clamp):
        """Currents of ``edges`` (cells first) at ``x``, checked for KCL at ``nodes``."""
        core = self.core
        overflow = nodes[~np.isfinite(x[nodes])]
        if overflow.size:
            raise _overflowed(core, overflow)
        volts = self.asm.rail_volts[rails]
        i = _balance(core, x, edges, self.g[edges], rails, volts, rail_g, clamp, nodes)[0]
        cells = edges[: len(core.cell_row)]
        for k in np.flatnonzero(np.abs(i[: len(cells)]) >= self.limits[cells])[:1].tolist():
            raise ReadDisturbError(
                f"read current {abs(i[k]) * 1e6:.1f} uA reaches the switching "
                f"threshold of {core.tag(cells[k])}"
            )
        return i

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow is named
    def read(self, drivers):
        """Column currents of the read of ``drivers``, and each driver's cells' columns."""
        core, asm = self.core, self.asm
        rows = np.array([core.line_index[row] for row in drivers])
        pairs = np.array([_rail_pair(d) for d in drivers.values()])  # row, rail, (r, i_sat)
        if not self.wired:
            return self._look_up(rows, pairs)
        # every row terminal may leave the base
        sel, rails = self.rails[rows].ravel(), self.rails.ravel()
        g, isat = self.rail_g.copy(), asm.rail_isat.copy()
        g[sel], isat[sel] = 1.0 / pairs[..., 0].ravel(), pairs[..., 1].ravel()
        base_g, base_c, volts, z = self.ohmic_g, self.clamp, asm.rail_volts, self.z
        v0, clamp = self.volts[core.terminal[: len(core.rows)]], base_c.copy()
        clamp[sel] = 0.0

        def step(clamp):
            # a row stamping dg, dc over the base injects u = alpha - beta v, v = v0 + z u
            dg, dc = np.where(clamp == 0.0, g, 0.0) - base_g, clamp - base_c
            alpha, beta = (dg * volts + dc).reshape(-1, 2).sum(axis=1), dg.reshape(-1, 2).sum(axis=1)
            act = np.flatnonzero((alpha != 0.0) | (beta != 0.0))
            lhs = np.eye(len(act)) + beta[act, None] * z[act][:, act]
            u = np.linalg.solve(lhs, alpha[act] - beta[act] * v0[act])
            return (act, u), (volts - np.repeat(v0 + z[:, act] @ u, 2)) * g

        (act, u), clamp = _saturate(clamp, step, isat)
        i = self._checked(self.volts + self.resp[:, act] @ u, self.edges, self.free, rails, g, clamp)
        cells = self.edges[: len(core.cell_row)]
        delta = i[: len(cells)] - self.edge_i[cells]
        sources = self.sources + np.bincount(self.cell_col[cells], delta, len(self.sources))
        return sources, self.cell_col[self.row_cells[rows]]

    def _look_up(self, rows, pairs):
        """The read of ``rows`` without wires, from their entries in ``table``."""
        if self.selector is None:  # after a full solve: every row, through this read's selector
            self.selector = np.broadcast_to(pairs[0], (len(self.table), 2, 2)).copy()
            self.table = self._entries(np.arange(len(self.table)), self.selector)
        e = self.table[rows]
        if not (e["ok"].all() and (self.selector[rows] == pairs).all()):  # marked, at fault or reselected
            redo = rows[~e["ok"] | (self.selector[rows] != pairs).any(axis=(1, 2))]
            self.selector[rows] = pairs
            self.table[redo] = self._entries(redo, self.selector[redo])
            e = self.table[rows]
        if not e["ok"].all():  # the base's checks at these rows name the fault
            if e["unsettled"].any():
                raise ConvergenceError(_OSCILLATES)
            x, nodes, g = self.volts.copy(), self.core.terminal[rows], (1.0 / pairs[..., 0]).ravel()
            x[nodes] = e["v"]
            self._checked(x, self.row_cells[rows].ravel(), nodes, self.rails[rows].ravel(), g, e["clamp"].ravel())
        cols = self.cell_col[self.row_cells[rows]]
        return self.sources + np.bincount(cols.ravel(), e["delta"].ravel(), len(self.sources)), cols

    def _entries(self, rows, pairs):
        """Each of ``rows`` read alone through its selector's rail ``pairs`` (resistance,
        saturation current) of the pull-up then the pull-down, vectorised over rows."""
        core, rails, cells = self.core, self.rails[rows], self.row_cells[rows]
        g, isat = 1.0 / pairs[..., 0], pairs[..., 1]
        base_g, base_c, volts = self.ohmic_g[rails], self.clamp[rails], self.asm.rail_volts[rails]
        z, v0, clamp = self.z[rows], self.volts[core.terminal[rows]], np.zeros(rails.shape)
        for _ in range(_MAX_CLAMP_ITERATIONS):  # a row not settled by now cycles
            dg, dc = np.where(clamp == 0.0, g, 0.0) - base_g, clamp - base_c
            alpha, beta = (dg * volts + dc).sum(axis=1), dg.sum(axis=1)
            v = v0 + z * (alpha - beta * v0) / (1.0 + beta * z)
            i_lin = (volts - v[:, None]) * g
            proposal = _clamps(i_lin, isat)
            unsettled = (proposal != clamp).any(axis=1)
            if not unsettled.any():
                break
            clamp = proposal
        e, x_col, g_cell = np.empty(len(rows), self.entry), self.volts[core.cell_col[cells]], self.g[cells]
        i = (x_col - v[:, None]) * g_cell
        e["v"], e["clamp"], e["unsettled"], e["delta"] = v, clamp, unsettled, i - self.edge_i[cells]
        # _checked's terms; a read of rows that each pass alone passes
        rail_i = np.where(clamp == 0.0, i_lin, clamp)
        flow = np.cumsum(i, axis=1)[:, -1] + rail_i.sum(axis=1)
        gross = np.concatenate([(np.abs(x_col) + np.abs(v[:, None])) * g_cell, np.abs(rail_i),
                                np.where(clamp == 0.0, (np.abs(volts) + np.abs(v[:, None])) * g, 0.0)], axis=1)
        kcl = np.abs(flow) / np.maximum(gross.max(axis=1), 1e-12) <= _KCL_LIMIT
        e["ok"] = ~unsettled & np.isfinite(v) & kcl & (np.abs(i) < self.limits[cells]).all(axis=1)
        return e


def equivalent_resistance(net, line_a, line_b):
    """Two-terminal resistance of the bare device mesh between two lines.

    Drivers and external bias are ignored: this measures the mesh itself,
    by injecting a unit current at ``line_a`` with ``line_b`` grounded.
    Returns ``math.inf`` when no conducting path exists.
    """
    core = net.core
    for line in (line_a, line_b):
        if line not in core.line_index:
            raise ParameterError(f"equivalent_resistance: unknown line {line!r}")
    if line_a == line_b:
        return 0.0
    component = dict(zip(core.lines, core.labels[core.terminal].tolist()))
    if component[line_a] != component[line_b]:
        return math.inf
    # lines off the shared component carry no current: ground them with line_b
    ground = LineBias.voltage(0.0)
    bias = {line: ground for line, c in component.items() if c != component[line_a]}
    bias[line_b] = ground
    bias[line_a] = LineBias.current(1.0)
    solution = solve_network(CrossbarNetwork(core, net.resistance, {}, bias, net.v_dd))
    return solution.line_voltages[line_a]
