"""Resistive network solver for one cross-point array.

The array is described as a bipartite mesh: word lines (rows) and bit lines
(columns) joined by two-terminal device branches where they cross. A line
is held by an ideal voltage source, fed by a regulated current source,
or (rows only) tied to the rails through a pull-up/pull-down
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
iterates on the set of saturated switches (``_settle``): solve, clamp any
switch whose ohmic current exceeds its saturation limit (``_clamps``),
replace it with a fixed injection, and repeat until the set is stable.

A regulated source injects whatever current makes one device branch (an
index) carry a target current. For a fixed saturated set the network is
affine in the source currents, so unit injections at the k regulated lines, solved
as extra right-hand-side columns of the same factorisation, give the exact
transfer resistances; a k x k solve then places the operating point.

A write binds its drive once (:func:`build_network`): the idle rails, the
rail potentials, the anchoring check and the nodes KCL is checked at hold
for the whole write. A phase changes only its selected row's rail pair
(:meth:`AssembledNetwork.select`) and its regulated sources
(:meth:`AssembledNetwork.regulate`), and a step drops the sources whose
cells its flips released (:meth:`AssembledNetwork.keep`). The drive solves
the array's live conductances, which the array's one writer updates in
place at the cells it changes.

Successive drives of one array differ at a few nodes: a write's phases at
the terminals of its cells' lines and, with wires, the cells' own two chain
nodes; a wired read at its two rows' terminals. A :class:`BaseSolver`
keeps a factored base: one drive solved in full with a unit injection at
each node it was asked for, and the factor of its block elimination
(:meth:`NodalCore.solve`), through which a unit column at any other node is
one more sweep with matrix products only (:meth:`NodalCore.units`). A run of
drives, such as one write's phases or the reads of one stored state, starts
from the factored base corrected for the run's first drive: the cells that
flipped since it was factored and the rows whose rails changed are a change
V diag(d) V^T of the nodal matrix, one column of V per changed edge or
shunt, and the Woodbury identity (W. W. Hager, SIAM Review 31(2), 1989)
turns its drive and unit columns into the run's, one r x r solve for a
change of rank r. Each later drive of the run with the same pins is the
run's base corrected in the same form, for the cells flipped and the shunts
changed since the run's first drive, with the unit columns of its sources.
A place the run's base lacks, such as a cell of another word that a write
disturbed, joins it first, its factored column corrected alike. So
the array keeps one solver for its writes and its wired read base keeps its
own across stored states, and a base is factored again only when the pins
differ, a correction fails, the rank of the change since it was factored
passes a bound, r^3 beyond the (n_layers - 1) width^3 of the elimination
across the layers, or its unit columns would pass 32 MB. A core of one
layer has no such elimination: its base serves one run and is dropped
with it, and the next run factors again. A corrected solution runs the same
saturation loop, regulated transfer and checks (KCL over every edge and
node, regulation, overflow) as a full one; one that fails a check is solved
again in full, and that result or error stands.

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
from functools import cached_property

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
    "BaseSolver",
    "CrossbarNetwork",
    "LineBias",
    "NetworkSolution",
    "NodalCore",
    "ReadBase",
    "RowDriver",
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
_BOUND = 1.0  # the cube of a factored base's correction's rank may reach this many (n_layers - 1) width^3
_COLUMNS = 1 << 22  # the most floats (32 MB) a factored base's columns grow to


@dataclass(frozen=True)
class LineBias:
    """How one line is driven externally; a line with no bias floats.

    A regulated source supplies whatever current makes device branch
    ``cell`` (its index in the core) carry ``value`` amperes.
    """

    kind: str  # "voltage" | "regulated"
    value: float = 0.0
    cell: int | None = None

    _KINDS = ("voltage", "regulated")

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
    wire segments; ``ends`` holds the incidence, each edge's node ``edge_a``
    over its node ``edge_b``. Branches of infinite resistance are open for
    the lifetime of the core.

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
        self.ends = np.stack([np.concatenate([self.cell_col, wire]), np.concatenate([self.cell_row, wire + 1])])
        a, b = self.edge_a, self.edge_b = self.ends
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
        """Potentials of every node, one column per right-hand side, and the
        :class:`_Factor` that solves further unit injections (:meth:`units`).

        ``g`` holds the edge conductances, ``shunt`` a conductance to 0 V
        at each eliminated node, ``rhs_e`` and ``rhs_k`` the currents
        injected at the eliminated and kept nodes; the solve overwrites
        ``rhs_e``, and ``rhs_k`` may hold fewer columns, the rest injecting
        no kept node. The ``fixed`` nodes sit at their ``volts`` in column 0
        and at 0 V in the rest.
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
        # y = b_E / D, or a pinned node's volts, in the place of rhs_e
        y = np.multiply(rhs_e, inv_d[:, None], out=rhs_e)
        y[pin_e, 0] = volts[in_e]
        factor = _Factor(inv_d, lanes, self.n_layers)
        x_k = np.zeros((len(self.kept), 1))
        x_k[pin_k, 0] = volts[~in_e]
        if len(pin_k) < len(self.kept):  # some kept node is free
            x_k = self._solve_kept(g, lanes, inv_d, y, rhs_k, x_k[:, 0], pin_k, factor)
        # each column a row of one array, so that a column is contiguous
        x = np.zeros((y.shape[1], self.n_nodes)).T
        x[self.kept, : x_k.shape[1]] = x_k
        return self._fill(x, y, lanes, inv_d), factor

    def units(self, factor, nodes):
        """Potentials of a unit injection at each of ``nodes``, one column each, through
        the ``factor`` a :meth:`solve` kept: its sweep with matrix products only."""
        k, in_e = len(nodes), self.is_elim[nodes]
        at, e = np.arange(k), self.slot[nodes[in_e]]
        y = np.zeros((len(self.elim), k))
        y[e, at[in_e]] = factor.inv_d[e]
        x = np.zeros((k, self.n_nodes)).T
        if factor.blocks is not None:
            # b_K + W^T y: an eliminated node's lanes carry its y to their kept ends
            n_layers, p = self.n_layers, self.width
            ends = np.concatenate([self.pack[self.slot[nodes[~in_e]]] * k + at[~in_e],
                                   (self.pack[self.slot[self.lane_node[e]]] * k + at[in_e, None]).ravel()])
            weights = np.concatenate([np.ones(k - len(e)), (factor.lanes[e] * factor.inv_d[e, None]).ravel()])
            b = np.bincount(ends, weights, n_layers * p * k).reshape(n_layers, p, k)
            if factor.free is not None:
                b *= factor.free
            diag, upper = factor.inverse()
            x[self.kept] = _sweep(diag, None, b, upper).reshape(-1, k)[self.pack]
        return self._fill(x, y, factor.lanes, factor.inv_d)

    def _fill(self, x, y, lanes, inv_d):
        """``x`` with its eliminated rows set to ``y + (W x_K) / D``, a block of rows at a
        time so that the gather of their lanes' potentials stays in cache."""
        step = max(1, _GATHER // max(1, lanes.shape[1] * y.shape[1]))
        for rows in (slice(s, s + step) for s in range(0, len(self.elim), step)):
            fill = np.matmul(lanes[rows, None, :], x[self.lane_node[rows]])[:, 0]
            x[self.elim[rows]] = y[rows] + inv_d[rows, None] * fill
        return x

    def _solve_kept(self, g, lanes, inv_d, y, rhs_k, x_pinned, pin_k, factor):
        """Kept potentials, one column per column of ``y`` (``b_E / D``, or a
        pinned eliminated node's volts); the kept slots ``pin_k`` are held at
        ``x_pinned``, which is 0 V at the free nodes. ``factor`` keeps the blocks."""
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
        # a few layers at a time, so that no product is a copy of a whole block array
        w_t, w_d = w.transpose(0, 2, 1), w * rows[:, :, :1]
        step = max(1, _GATHER // (p * max(p, live)))
        for at in (slice(l, l + step) for l in range(0, n_layers, step)):
            diag[at] += w_t[at, :p] @ w_d[at, :, :p]
            b_live[at] = w_t[at, :p] @ rows[at, :, 1:]
        # a group's lanes into the next layer
        for at in (slice(l, min(l + step, n_layers - 1)) for l in range(0, n_layers - 1, step)):
            nxt = slice(at.start + 1, at.stop + 1)
            diag[nxt] += w_t[at, p:] @ w_d[at, :, p:]
            upper[at] += w_t[at, :p] @ w_d[at, :, p:]
            lower[at] += w_t[at, p:] @ w_d[at, :, :p]
            b_live[nxt] += w_t[at, p:] @ rows[at, :, 1:]
        del w, w_t, w_d, rows  # before the sweep, which allocates the kept potentials
        b.reshape(-1, cols)[self.pack, : rhs_k.shape[1]] += rhs_k
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
            factor.free = free
        try:
            x = _sweep(diag, lower, system).reshape(-1, cols)[self.pack]
        except np.linalg.LinAlgError as exc:
            # every node is anchored (the callers check), so a singular block
            # rounded its anchors away; when conductances whose products leave
            # float range did that, the error names their lines as an overflow
            hot = np.abs(g) > _ROOT_MAX
            if hot.any():
                nodes = np.concatenate([self.edge_a[hot], self.edge_b[hot]])
                raise _overflowed(self, nodes, "conductance products") from exc
            raise SingularNetworkError(f"nodal matrix is singular: {exc}") from exc
        # the pivot blocks the sweep left in diag, then the upper blocks it solved
        blocks[n_layers : 2 * n_layers - 1] = system[:-1, :, :p]
        factor.blocks = blocks
        return x


class _Factor:
    """What :meth:`NodalCore.solve` keeps of one elimination to solve unit injections
    later (:meth:`NodalCore.units`): each eliminated node's ``1/D`` and lanes, and with
    a free kept node the ``blocks`` of the Schur complement's block LU, each layer's
    pivot block, then the upper blocks solved against them, and the mask of ``free``
    kept places when some are pinned. S is symmetric, so the lower blocks are the
    transposed upper ones and a sweep of right-hand sides needs none of its own."""

    def __init__(self, inv_d, lanes, n_layers):
        self.inv_d, self.lanes, self.n_layers = inv_d, lanes, n_layers
        self.blocks = self.free = None
        self.inverted = False

    def keep(self):
        """Drop the lower blocks, which the elimination needed, to keep the rest."""
        if self.blocks is not None:
            self.blocks = self.blocks[: 2 * self.n_layers - 1].copy()

    def inverse(self):
        """Each layer's inverted pivot block and solved upper block, for :func:`_sweep`;
        the pivot blocks turn to their inverses the first time."""
        diag = self.blocks[: self.n_layers]
        if not self.inverted:
            diag[:] = np.linalg.inv(diag)
            self.inverted = True
        return diag, self.blocks[self.n_layers : 2 * self.n_layers - 1]


def _sweep(diag, lower, system, upper=None):
    """Solve in place the block tridiagonal system of ``diag``, ``lower[l]`` (layer l + 1
    to l) and ``system[l]``, layer l's block to l + 1 then its right-hand side: S is
    positive definite, so forward block elimination and back-substitution (Golub & Van
    Loan, *Matrix Computations*) need no pivoting across blocks. Each layer's pivot
    block, its diagonal block less what the layer before eliminated, overwrites
    ``diag``. Given the ``upper`` blocks U such a sweep solved and ``diag`` the inverse
    of each of its pivot blocks P, ``system`` holds right-hand sides only, which the
    sweep solves with products alone: as S is symmetric, the lower block into layer l
    times P_{l-1}^-1 is U_{l-1}^T, so layer l's right-hand side, less what the layer
    before eliminated, is b_l - U_{l-1}^T b_{l-1}, with b_{l-1} reduced the same way."""
    p, last = diag.shape[1], len(diag) - 1
    if upper is None:
        x = system[:, :, p:]
        for l in range(last + 1):
            if l:
                done = lower[l - 1] @ system[l - 1]
                diag[l] -= done[:, :p]
                x[l] -= done[:, p:]
            start = p if l == last else 0  # no upper block past the last layer
            system[l, :, start:] = np.linalg.solve(diag[l], system[l, :, start:])
        upper = system[:-1, :, :p]
    else:
        for l in range(1, last + 1):
            system[l] -= upper[l - 1].T.dot(system[l - 1])
        x = diag @ system
    for l in range(last - 1, -1, -1):
        x[l] -= upper[l].dot(x[l + 1])
    return x


class BaseSolver:
    """:func:`_solve_full` for runs of drives of ``core``, as the module docstring sets
    out. The factored base ``root``, a :class:`_Base` solved with the :class:`_Factor`
    ``factor``, has a unit column at each of ``nodes``, at each node of the run it was
    factored for and at each node a run asked for since, ``limit`` rows at most with its
    drive's unless it was factored with more. A run's base ``base`` is the factored base
    itself where the run's first drive changed nothing, else the factored base corrected
    for the :class:`_Change` ``link``. :meth:`reach_to` starts a run and :meth:`close` ends
    it. A correction sets ``corrected``, which :func:`solve_network` clears."""

    def __init__(self, core, nodes):
        self.core = core
        # the most a correction of the factored base may cost, r^3 for a change of rank r:
        # the elimination across the layers that factoring again costs, none for a core
        # of one layer
        self.bound = _BOUND * (core.n_layers - 1) * core.width**3
        # the most columns the factored base grows to, the drive's with them: one per
        # node, in at most _COLUMNS floats
        self.limit = 1 + min(core.n_nodes, _COLUMNS // core.n_nodes)
        # each node's and each row's mesh component, numbered from 0, and each one's first row
        labels, self.node_comp = np.unique(core.labels, return_inverse=True)
        self.row_comp = self.node_comp[core.terminal[: len(core.rows)]]
        self.first_row = np.full(len(labels), len(core.rows))
        np.minimum.at(self.first_row, self.row_comp, np.arange(len(core.rows)))
        self.root = self.factor = None
        self.corrected, self.wanted = False, nodes
        self.reach_to(nodes)

    def reach_to(self, nodes):
        """Start a run of drives, such as one write's phases or the reads of one stored state,
        that differ at ``nodes``: its first solve corrects the factored base for it, with
        their unit columns; the columns of other places join the run's base as its drives
        touch them."""
        self.nodes, self.base = nodes, None

    def close(self):
        """End the run: drop its base, which only the run's drives use, and without a bound
        the factored base too, which the next run factors again."""
        self.base = self.link = None
        if not self.bound:
            self.root = self.factor = None

    def __call__(self, asm, ohmic_g, clamp):
        # each rail's ohmic conductance and its drive; a row's two sum into the
        # shunt and the drive its rails stamp at its terminal
        rails = np.empty((2, len(ohmic_g)))
        rails[0] = ohmic_g
        np.multiply(ohmic_g, asm.rail_volts, out=rails[1])
        rails[1] += clamp
        stamps = rails[:, ::2] + rails[:, 1::2]
        pins, base, x = (asm.fixed.tobytes(), asm.fixed_volts.tobytes()), self.base, None
        if base is not None and base.pins == pins:
            x = self._corrected(base, _Change(self.core, base, asm.g, stamps), asm.reg_nodes)
        if x is None:
            self._rebase(asm, ohmic_g, clamp, pins, stamps)
            x = self.base.rows(asm.reg_nodes, drive=True)  # the drive, then the sources' columns
        else:
            self.corrected = True
        return x.T

    def _rebase(self, asm, ohmic_g, clamp, pins, stamps):
        """Start the run's base at this drive: the factored base corrected for it, or, where
        the pins differ, the correction would pass the bound or is singular, a full solve
        that becomes the factored base, corrected for the removal of its anchors."""
        self.base = None
        if self.bound and self.root is not None and self.root.pins == pins:
            if self._start(asm.g, stamps, asm.reg_nodes, self.bound):
                self.corrected = True
                return
        if not self._factor(asm, ohmic_g, clamp, pins, stamps):
            self.base, self.link = self.root, None
        elif not self._start(asm.g, stamps, asm.reg_nodes, math.inf):
            raise SingularNetworkError("nodal matrix is singular without its factored base's anchors")

    def _factor(self, asm, ohmic_g, clamp, pins, stamps):
        """Solve the drive in full, with a unit column at each of the solver's nodes and the
        regulated lines, and keep it and its factor as the factored base; the count of its
        anchors.

        A mesh component that the drive leaves held by rails weaker than its strongest
        alone is anchored in the factored base at its first row, by a rail as strong to
        0 V: a later drive that holds it strongly is then a correction that loses no
        precision, where adding a strong rail to a weakly held component loses about the
        ratio of the two. Each correction for a drive removes the anchors it does not
        share, as any other change of a row's shunt."""
        core, shunt = self.core, stamps[0]
        rows, anchored_g, stamps = self.first_row[:0], ohmic_g, stamps.copy()
        if self.bound:  # with none, only the run it is factored for uses it
            strongest = shunt.max(initial=0.0)
            held = np.zeros(len(self.first_row), bool)
            held[self.row_comp[shunt >= strongest]] = True
            held[self.node_comp[asm.fixed]] = True
            rows = self.first_row[~held]
            rows = rows[rows < len(core.rows)]
            anchored_g = ohmic_g.copy()
            anchored_g[2 * rows + 1] += strongest
            stamps[0, rows] += strongest
        reach = _distinct(np.concatenate([self.wanted, self.nodes, asm.reg_nodes, core.terminal[rows]]))
        # eliminated nodes first: the kept ones' unit columns, last, cost the fill nothing
        kept = ~core.is_elim[reach]
        reach = np.concatenate([reach[~kept], reach[kept]])
        self.root = self.factor = self.base = self.link = None  # freed before the solve allocates
        x, self.factor = _solve_full(asm, anchored_g, clamp, reach)
        if self.bound:
            self.factor.keep()
        place = np.full(core.n_nodes, -1)
        place[reach] = np.arange(len(reach))
        self.root = _Base(asm.g.copy(), pins, stamps, x.T, place)  # each column a row
        self.room = max(self.limit, self.root.size)
        return len(rows)

    def _start(self, g, stamps, reg_nodes, bound):
        """Start the run's base as the factored base corrected to edge conductances ``g`` and
        row ``stamps``, with the unit columns of the run's nodes and ``reg_nodes`` corrected
        alike, and keep the change to correct the columns that join it later (:meth:`_join`).
        False where the change's rank r passes ``bound`` by r^3, the columns the limit, or
        the correction is singular."""
        root, first = self.root, _distinct(np.concatenate([self.nodes, reg_nodes]))
        change = _Change(self.core, root, g, stamps)
        if not (len(change.d) or len(change.dd)):  # the run's base is the factored base
            if not self._join(first):
                return False
            self.base, self.link = root, None
            return True
        x = self._corrected(root, change, first, bound)
        if x is None:
            return False
        place = np.full(self.core.n_nodes, -1)
        place[first] = np.arange(len(first))
        self.base, self.link = _Base(g.copy(), root.pins, stamps, x, place), change
        return True

    def _corrected(self, base, change, nodes, bound=math.inf):
        """The rows of ``base``'s drive and of the unit columns of ``nodes``, corrected for
        ``change``: the drive moved at the rows it moves, then each row by the change's
        low-rank correction. The places it touches join the run's base first. None where its
        rank r passes ``bound`` by r^3, the columns the factored base's limit, or it is
        singular."""
        if len(change.d) ** 3 > bound or not self._join(np.concatenate([change.nodes, nodes])):
            return None
        x = base.rows(nodes, drive=True)
        if len(change.dd):
            x[0] += change.dd @ base.rows(change.terminals)
        try:
            return change.correct(base, x)
        except np.linalg.LinAlgError:
            return None

    def _join(self, nodes):
        """Give the factored base, then the run's base, the unit columns of those of
        ``nodes`` they lack: the factored base's through its factor, the run's those
        corrected as its drive was (``link``); False where they would pass the factored
        base's limit or a solve is singular."""
        root, base = self.root, self.base
        try:
            if not root.append(nodes, lambda new: self.core.units(self.factor, new).T, self.room):
                return False
            if base is None or base is root:
                return True
            return base.append(nodes, lambda new: self.link.correct(root, root.rows(new)), 1 + self.core.n_nodes)
        except np.linalg.LinAlgError:
            return False


class _Base:
    """A drive of a :class:`BaseSolver`'s core solved with unit columns: its edge
    conductances ``g``, its pins and its row ``stamps`` (each row's shunt, then drive), and
    its columns as the rows of ``cols``, the drive's first and node j's at ``1 + place[j]``,
    of which the first ``size`` are in use."""

    def __init__(self, g, pins, stamps, cols, place):
        self.g, self.pins, self.stamps, self.cols, self.place = g, pins, stamps, cols, place
        self.size = len(cols)

    def rows(self, nodes, drive=False):
        """The unit columns of ``nodes``, after the drive's row with ``drive``."""
        at = 1 + self.place[nodes]
        return self.cols[np.concatenate([[0], at]) if drive else at]

    def append(self, nodes, columns, most):
        """Give those of ``nodes`` the base lacks their unit columns, ``columns`` of them as
        rows; False where they would pass ``most`` rows."""
        nodes = nodes[self.place[nodes] < 0]
        if not len(nodes):
            return True
        nodes = _distinct(nodes)
        used = self.size + len(nodes)
        if used > most:
            return False
        self.cols = _grown(self.cols, self.size, len(nodes), most)
        self.cols[self.size : used] = columns(nodes)
        self.place[nodes] = np.arange(self.size - 1, used - 1)
        self.size = used
        return True


class _Change:
    """What changed from a :class:`_Base`'s drive to one of edge conductances ``g`` and row
    ``stamps``: the nodal matrix by V diag(d) V^T, a column of V per changed edge (+1 at its
    end a, -1 at its end b) and per changed shunt (+1 at its row's terminal), and the drive
    by ``dd`` at the ``terminals`` of the rows whose drive moved. It moves a solution y of
    the base's matrix by -Z V K^-1 V^T y, Z the base's unit responses and K = diag(1/d) +
    V^T Z V (W. W. Hager, SIAM Review 31(2), 1989): a change of rank r costs one r x r
    solve. ``nodes`` are the places the base needs columns at."""

    def __init__(self, core, base, g, stamps):
        edges = (g != base.g).nonzero()[0]
        ds, dd = stamps - base.stamps
        shunts, moved = ds.nonzero()[0], dd.nonzero()[0]  # the rows whose stamps changed
        a, self.tails = core.ends[:, edges]
        self.heads, self.terminals = np.concatenate([a, core.terminal[shunts]]), core.terminal[moved]
        self.d, self.dd = np.concatenate([g[edges] - base.g[edges], ds[shunts]]), dd[moved]
        self.nodes = np.concatenate([self.heads, self.tails, self.terminals])
        self.zv = self.inverse = None

    def across(self, y):
        """V^T of each row of ``y``: its differences across the changed edges, then its
        values at the changed shunts' poles."""
        vy = y[:, self.heads]
        vy[:, : len(self.tails)] -= y[:, self.tails]
        return vy

    def correct(self, base, y):
        """``y``, rows of solutions of ``base``'s matrix, less Z V K^-1 V^T y. The first call
        forms Z V (as rows) and K, and solves K; each later one, for the columns that join a
        run's base, takes K's inverse, formed once."""
        if not len(self.d):
            return y
        if self.zv is None:
            self.zv = base.rows(self.heads)
            self.zv[: len(self.tails)] -= base.rows(self.tails)
            self.k = self.across(self.zv)
            self.k[np.diag_indices(len(self.d))] += 1.0 / self.d
            w = np.linalg.solve(self.k, self.across(y).T).T
        else:
            if self.inverse is None:
                self.inverse = np.linalg.inv(self.k).T
            w = self.across(y) @ self.inverse
        y -= w @ self.zv
        return y


def _distinct(nodes):
    """``nodes`` sorted, each once; ``np.unique`` would import ``numpy.ma``, about a
    megabyte, to check for a mask."""
    nodes = np.sort(nodes)
    first = np.empty(len(nodes), dtype=bool)
    first[:1] = True
    np.not_equal(nodes[1:], nodes[:-1], out=first[1:])
    return nodes[first]


def _grown(rows, used, more, most):
    """``rows`` with room for ``more`` rows past its first ``used``, which it keeps, and
    for ``used / 2`` more, up to ``most`` rows: a base's drive and unit columns."""
    if used + more <= len(rows):
        return rows
    grown = np.empty((min(used + more + used // 2, most), rows.shape[1]))
    grown[:used] = rows[:used]
    return grown


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


@np.errstate(over="ignore")  # a conductance beyond float range is named by the solve that meets it
def _conductances(resistance, wire_r=()):
    """The conductance of each branch of ``resistance``, then of each wire segment of ``wire_r``."""
    return 1.0 / np.concatenate([resistance, wire_r])


class AssembledNetwork:
    """A network's bias and drivers bound to node indices, ready to solve.

    Rails come in pairs per row, pull-up first; they attach at row
    terminals, which are always eliminated nodes. Binding checks that every
    node is anchored. ``g`` holds the edge conductances, derived from the
    network's resistances unless the binder sets the live ones of an array.
    """

    def __init__(self, net):
        core = self.core = net.core
        self.resistance = net.resistance
        fixed, volts, regulated = [], [], {}
        self.fixed_lines = []  # the line of each entry of self.fixed
        for line, lb in net.bias.items():
            index = core.line_index.get(line)
            if index is None:
                raise ParameterError(f"bias: unknown line {line!r}")
            if lb.kind == "voltage":
                self.fixed_lines.append(line)
                fixed.append(core.terminal[index])
                volts.append(lb.value)
            else:
                regulated[line] = lb
        self.fixed = np.array(fixed, dtype=np.intp)
        self.fixed_volts = np.array(volts)
        self.regulate(regulated)

        n_rows = len(core.rows)
        self.rails = np.empty((n_rows, 2, 2))  # (resistance, saturation current) per rail
        self.rails[:] = _rail_pair(net.idle)
        self.rail_r, self.rail_isat = self.rails.reshape(-1, 2).T
        self.rail_g = 1.0 / self.rail_r  # 0.0 for an open rail, which never saturates
        self.select(net.drivers)
        self.rail_volts = np.zeros(2 * n_rows)
        self.rail_volts[::2] = net.v_dd
        self.free = np.ones(core.n_nodes, dtype=bool)  # the nodes KCL is checked at
        self.free[self.fixed] = False
        self.unknown_count = core.n_nodes - len(self.fixed)
        _check_anchored(self)

    @cached_property
    def g(self):
        """Edge conductances, derived from ``resistance`` when first needed."""
        return _conductances(self.resistance, self.core.wire_r)

    def select(self, drivers):
        """Tie each row ``drivers`` names to the rails through its driver; the
        other rows keep theirs. A write's phases select one row, each with one
        switch on, so the nodes anchored stay those checked at binding."""
        core = self.core
        for row, driver in drivers.items():
            if row not in core.row_set:
                raise ParameterError(f"driver: {row!r} is not a row")
            k = core.line_index[row]
            self.rails[k] = _rail_pair(driver)
            self.rail_g[2 * k : 2 * k + 2] = 1.0 / self.rail_r[2 * k : 2 * k + 2]

    def regulate(self, sources):
        """Bind the regulated ``sources`` (line -> :class:`LineBias`), in place of any before, all on."""
        core, lines = self.core, list(sources)
        for line, lb in sources.items():
            if not 0 <= lb.cell < len(core.cell_row):
                raise ParameterError(f"bias {line!r}: unknown cell {lb.cell!r}")
        k = len(lines)
        self.sources = (lines, core.terminal[[core.line_index[line] for line in lines]],
                        np.fromiter((lb.cell for lb in sources.values()), np.intp, k),
                        np.fromiter((lb.value for lb in sources.values()), float, k))
        self.on = [True] * k
        self.regulated, self.reg_nodes, self.reg_cells, self.reg_targets = self.sources

    def keep(self, on):
        """Keep on the bound regulated sources where ``on`` and drop the rest."""
        flags = on.tolist()
        if flags != self.on:
            lines, nodes, cells, targets = self.sources
            self.on, self.regulated = flags, [line for line, keep in zip(lines, flags) if keep]
            self.reg_nodes, self.reg_cells, self.reg_targets = nodes[on], cells[on], targets[on]


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


def _solve_full(asm, ohmic_g, clamp, units=None):
    """``asm`` solved by :meth:`NodalCore.solve` with rails of ohmic conductance
    ``ohmic_g`` and clamped currents ``clamp``: column 0 the drive, 1 + j a unit
    injection at node ``units[j]``, by default at regulated line j. Given ``units``,
    with the solve's :class:`_Factor`."""
    core, ne, default = asm.core, len(asm.core.elim), units is None
    units = asm.reg_nodes if default else units
    at, kept = 1 + np.arange(len(units)), ~core.is_elim[units]
    rhs_e = np.zeros((ne, 1 + len(units)))
    rhs_k = np.zeros((len(core.kept), at[kept].max(initial=0) + 1))  # to the last unit at a kept node
    rhs_e[:, 0] = np.bincount(core.rail_slot, ohmic_g * asm.rail_volts + clamp, ne)
    rhs_e[core.slot[units[~kept]], at[~kept]] = rhs_k[core.slot[units[kept]], at[kept]] = 1.0
    shunt = np.bincount(core.rail_slot, ohmic_g, ne)
    x, factor = core.solve(asm.g, shunt, rhs_e, rhs_k, asm.fixed, asm.fixed_volts)
    return x if default else (x, factor)


def _solve_linear(asm, clamp, solve):
    """Node potentials and regulated source currents for one saturated set, and each rail's
    ohmic current; ``solve`` has the contract of :func:`_solve_full`."""
    core = asm.core
    x = solve(asm, np.where(clamp == 0.0, asm.rail_g, 0.0), clamp)
    volts, sources = x[:, 0], np.zeros(0)
    if asm.regulated:
        # columns: target-cell currents at the base drive, then per unit injection
        cells, r = asm.reg_cells, asm.resistance[asm.reg_cells, None]
        col, row = x[core.ends[:, cells]]
        per_cell = (col - row) / r
        try:
            sources = np.linalg.solve(per_cell[:, 1:], asm.reg_targets - per_cell[:, 0])
        except np.linalg.LinAlgError:
            raise ConvergenceError(
                "write-drive regulation lost authority over an addressed cell on "
                + ", ".join(asm.regulated)
            ) from None
        volts = volts + x[:, 1:] @ sources
    return (volts, sources), (asm.rail_volts - volts[core.rail_node]) * asm.rail_g


def _clamps(i_lin, isat):
    """The saturation rule: ``isat`` in the sign of an ohmic current ``i_lin`` past it, else 0.0 (ohmic)."""
    return np.where(np.abs(i_lin) > isat * _CLAMP_SLACK, np.copysign(isat, i_lin), 0.0)


# potentials that overflow float range are named by _finish_solution as a
# SimulationError, so numpy's own warnings about them stay quiet
@np.errstate(over="ignore", invalid="ignore")
def solve_network(net, solve=None):
    """Solve a CrossbarNetwork, or a drive :func:`build_network` bound, iterating
    transistor saturation to a fixed point.

    ``solve``, a :class:`BaseSolver`, stands in for the full solve; when a
    solution it corrected fails a check, the network is solved again in
    full, and that result or error stands, and it drops its bases and
    factors again next.
    """
    asm = net if isinstance(net, AssembledNetwork) else build_network(net)
    if solve is not None:
        solve.corrected = False
        try:
            return _settle(asm, solve)
        except (SimulationError, InvariantError):
            if not solve.corrected:
                raise
            solve.base = solve.root = solve.factor = None
    return _settle(asm, _solve_full)


def _settle(asm, solve):
    """The checked solution at the saturated set the solves of ``solve`` settle at, from none
    saturated on: each set is solved, and the next is the one :func:`_clamps` proposes."""
    clamp, seen = np.zeros(len(asm.rail_g)), set()
    for _ in range(_MAX_CLAMP_ITERATIONS):
        (volts, sources), i_lin = _solve_linear(asm, clamp, solve)
        proposal = _clamps(i_lin, asm.rail_isat)
        if (proposal == clamp).all():
            return _finish_solution(asm, volts, sources, clamp)
        if proposal.tobytes() in seen:
            raise ConvergenceError(_OSCILLATES)
        seen.add(proposal.tobytes())
        clamp = proposal
    raise ConvergenceError("saturation iteration exceeded the step limit")


def _balance(core, x, edges, g, rails, rail_volts, rail_g, clamp, nodes, injection=None):
    """Currents of ``edges`` and ``rails`` at ``x``, and the largest
    imbalance of the net current into ``nodes``: relative to the gross
    magnitude of the stamped terms, not the (possibly cancelled) net
    currents, and checked so that a NaN fails. ``edges`` index the core's
    compiled incidence, ``ends``; the edge-sized terms are formed in place."""
    ends, n = core.ends[:, edges], core.n_nodes
    pots = x.take(ends)  # each edge's two end potentials
    i = pots[0] - pots[1]
    i *= g
    flow = np.bincount(ends[1], i, n)
    flow -= np.bincount(ends[0], i, n)
    rail_v, ohmic = x[core.rail_node[rails]], clamp == 0.0
    rail_i = np.where(ohmic, (rail_volts - rail_v) * rail_g, clamp)
    flow += np.bincount(core.rail_node[rails], rail_i, n)
    terms = np.abs(pots, out=pots)[0]
    terms += pots[1]
    terms *= g
    gross = [terms.max(initial=0.0), np.abs(rail_i).max(initial=0.0),
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


def _finish_solution(asm, volts, sources, clamp):
    core = asm.core
    # a finite drive whose potentials overflow float range, as inf or as the
    # NaN of inf - inf inside the solve: no conservation check can judge
    # that solution (a NaN drive fails the check below)
    if not np.isfinite(volts).all():
        drive = (asm.fixed_volts, asm.rail_volts, asm.reg_targets)
        if all(np.isfinite(x).all() for x in drive):
            raise _overflowed(core, ~np.isfinite(volts))
    injection = np.zeros(core.n_nodes)
    injection[asm.reg_nodes] = sources
    # net current into each node, over the full edge set, so the check is
    # independent of the elimination
    every = slice(None)
    edge_i, rail_i, kcl_residual = _balance(core, volts, every, asm.g, every, asm.rail_volts,
                                            asm.rail_g, clamp, asm.free, injection)
    currents = edge_i[: len(core.cell_row)]
    miss = np.abs(currents[asm.reg_cells] - asm.reg_targets)
    if not (miss <= _REG_TOL * np.abs(asm.reg_targets)).all():
        # the cell furthest past its tolerance, or the first NaN
        k = int(np.argmax(miss - _REG_TOL * np.abs(asm.reg_targets)))
        raise ConvergenceError(
            f"write-drive regulation did not settle: {core.tag(asm.reg_cells[k])} "
            f"on {asm.regulated[k]} carries {currents[asm.reg_cells[k]]:.6g} A, "
            f"{miss[k]:.2g} A off its target {asm.reg_targets[k]:.6g} A"
        )

    source_currents = dict(zip(asm.regulated, sources.tolist()))
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
        clamped=frozenset(map(core.rows.__getitem__, (clamp.nonzero()[0] // 2).tolist())),
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
    """``net`` (every column at a voltage, every row idle) solved once, and reads as
    corrections of it at the rows they ground, by index, through ``net.idle`` with its
    pull-down on (W. W. Hager, SIAM Review 31(2), 1989). With wires a :class:`BaseSolver`
    whose factored bases have every row terminal's unit column solves the idle drive of
    each stored state as a run, its factored base corrected for the cells flipped since
    it was factored, and a read is the run's base corrected for its two rows' rails on
    the selector, a change of rank 2, their columns joining the run's base when read.
    Without, an injection at row terminal r moves only its own node, by
    ``z[r]``: a read is its rows read alone, and the first read after a full solve
    enters every row in ``table``; a row re-solved in place is entered again when read.
    A column's current is what its cells draw, as a voltage source's there. No current
    may reach ``limits``."""

    def __init__(self, net, limits):
        asm = self.asm = build_network(net)
        core = self.core = net.core
        self.limits = limits
        n_rows = len(core.rows)
        self.rails = np.arange(2 * n_rows).reshape(n_rows, 2)
        self.rail_g = asm.rail_g
        # the one selector every read grounds its rows through: pull-up, then pull-down
        self.selector = np.array(_rail_pair(replace(net.idle, nmos_on=True)))
        self.sel_r, self.sel_isat = self.selector.T
        # no potential leaves the span of the drives, nor a rail current its reach
        span = np.ptp(np.concatenate([asm.rail_volts, asm.fixed_volts]))
        self.settled = bool((span * self.rail_g <= asm.rail_isat * _CLAMP_SLACK).all())
        self.wired = len(asm.fixed) < len(core.kept)  # some kept node is free
        if self.wired:  # the idle rails a read restores, and the solver of its drives
            self.idle = asm.rails.copy(), asm.rail_g.copy()
            self.solver, self.base = BaseSolver(core, core.terminal[:n_rows]), None
        self.free = np.flatnonzero(asm.free)
        self.edges = np.arange(len(core.edge_a))
        # each row's cells in cell order, and the column of every cell
        self.row_cells = core.node_line[core.cell_row].argsort(kind="stable").reshape(n_rows, -1)
        self.cell_col = core.node_line[core.cell_col] - n_rows
        # a row read alone: terminal potential, cell currents
        # less the base's, rail clamps, a cycling saturated set, ok: fresh, passes _checked
        self.entry = np.dtype([("v", float), ("delta", float, self.row_cells.shape[1:]), ("clamp", float, (2,)),
                               ("unsettled", bool), ("ok", bool)])
        self.table = np.zeros(n_rows, self.entry)
        self.solve(net.resistance)

    @np.errstate(over="ignore", invalid="ignore")  # overflow is named by _checked
    def solve(self, resistance, rows=None):
        """The base for branch ``resistance``; without wires only ``rows``, whose
        branches changed, are re-solved, in place, where they are named; with wires the
        idle drive starts a run of the solver, corrected from its factored base."""
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
        self.table["ok"] = False  # the next read enters every row
        asm.resistance, asm.g = resistance, _conductances(resistance, core.wire_r)
        self.g = asm.g
        if self.wired:  # the idle drive, corrected from the solver's base
            self.solver.reach_to(core.terminal[:0])  # a read's rows join as it reads them
            self._limit(solve_network(asm, self.solver).currents, self.edges[: len(core.cell_row)])
            self.base = self.solver.base
            return
        volts = solve_network(asm).volts
        clamp = _clamps((asm.rail_volts - volts[core.rail_node]) * self.rail_g, asm.rail_isat)
        self.clamp, self.ohmic_g = clamp, np.where(clamp == 0.0, self.rail_g, 0.0)
        ne = len(core.elim)
        self.shunt = np.bincount(core.rail_slot, self.ohmic_g, ne)
        self.rhs = np.bincount(core.rail_slot, self.ohmic_g * asm.rail_volts + clamp, ne)
        self.z = self._rows(np.arange(len(core.rows)), volts)[0]
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
        self._limit(i[: len(cells)], cells)
        return i

    def _limit(self, i, cells):
        """Raise for the first of ``cells`` whose current ``i`` reaches its limit."""
        for k in np.flatnonzero(np.abs(i) >= self.limits[cells])[:1].tolist():
            raise ReadDisturbError(f"read current {abs(i[k]) * 1e6:.1f} uA reaches the switching "
                                   f"threshold of {self.core.tag(cells[k])}")

    @np.errstate(over="ignore", invalid="ignore", divide="ignore")  # overflow is named
    def read(self, rows):
        """Column currents of the read grounding row indices ``rows``, and their cells' columns."""
        core, asm, rows = self.core, self.asm, np.asarray(rows, dtype=np.intp)
        if not self.wired:
            return self._look_up(rows)
        if self.solver.base is not self.base:  # a fallback or a re-base dropped the idle base
            self.solve(asm.resistance)
        sel = self.rails[rows]
        asm.rails[rows], asm.rail_g[sel] = self.selector, 1.0 / self.sel_r
        try:
            currents = solve_network(asm, self.solver).currents
        finally:
            asm.rails[rows], asm.rail_g[sel] = self.idle[0][rows], self.idle[1][sel]
        self._limit(currents, self.edges[: len(core.cell_row)])
        return np.bincount(self.cell_col, currents, len(core.cols)), self.cell_col[self.row_cells[rows]]

    def _look_up(self, rows):
        """The read of ``rows`` without wires, from their entries in ``table``."""
        e = self.table[rows]
        if not e["ok"].all():  # marked or at fault: every such row is entered again
            redo = np.flatnonzero(~self.table["ok"])
            self.table[redo] = self._entries(redo)
            e = self.table[rows]
        if not e["ok"].all():  # the base's checks at these rows name the fault
            if e["unsettled"].any():
                raise ConvergenceError(_OSCILLATES)
            x, nodes, g = self.volts.copy(), self.core.terminal[rows], np.tile(1.0 / self.sel_r, len(rows))
            x[nodes] = e["v"]
            self._checked(x, self.row_cells[rows].ravel(), nodes, self.rails[rows].ravel(), g, e["clamp"].ravel())
        cols = self.cell_col[self.row_cells[rows]]
        return self.sources + np.bincount(cols.ravel(), e["delta"].ravel(), len(self.sources)), cols

    def _entries(self, rows):
        """Each of ``rows`` read alone, vectorised over rows."""
        core, rails, cells = self.core, self.rails[rows], self.row_cells[rows]
        g, isat = 1.0 / self.sel_r, self.sel_isat
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
    by driving ``line_a`` at 1 V with ``line_b`` grounded and dividing by
    the current its source supplies. Returns ``math.inf`` when no
    conducting path exists.
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
    bias[line_a] = LineBias.voltage(1.0)
    solution = solve_network(CrossbarNetwork(core, net.resistance, {}, bias, net.v_dd))
    return 1.0 / solution.source_currents[line_a]
