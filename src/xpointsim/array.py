"""Array construction: device placement, line naming, network extraction.

Balanced layout
---------------
Each logical bit column is physically split into two segments, named
``b{j}e`` and ``b{j}o``. A word stores its cell for bit j on the segment
matching the word's parity: even words on ``b{j}e``, odd words on
``b{j}o``. Two extra rows hold reference cells, one serving each parity:

* ``ref_e`` serves even words and keeps its reference cells on the odd
  segments;
* ``ref_o`` serves odd words and keeps its reference cells on the even
  segments.

Reading word w therefore grounds two rows, the word itself and the
reference row of matching parity, and every sense amplifier compares the
two segments of its own bit: the data cell discharges one segment, the
reference cell the other. Both segments carry exactly M/2 unselected
devices, so parasitic load and sneak pickup cancel between the branches.

Reference cells are larger junctions sized so their resistance sits at the
midpoint between the two data states; they stay parallel and never switch.

The plain (unbalanced) layout is a bare grid with one column per bit and
no reference rows; it exists for sneak-path studies and density estimates,
and its reads fall back to a two-cycle behavioural comparison against an
ideal midpoint resistor.

Cell numbering: cell ``k = word * n_bits + bit`` is the data cell of
(word, bit); the reference cells follow the data cells. This is the order
of ``cell_keys`` and of the network's branches. The array stores one
boolean per data cell (``states``, True for antiparallel) and derives the
branch resistances from it whenever it builds a network.

Word data convention: a word's content is a string like ``"1011"`` where
character j describes bit j, and '1' is the antiparallel state.
"""

from __future__ import annotations

import numpy as np

from .device import (
    MtjParams,
    MtjState,
    SwitchingParams,
    TransistorModel,
    critical_current,
    mtj_resistance,
    reference_params,
)
from .errors import ParameterError
from .network import CrossbarNetwork, NodalCore, RowDriver

__all__ = ["CrossbarArray", "REF_ROWS", "reference_branch_resistance"]

REF_ROWS = ("ref_e", "ref_o")


def reference_branch_resistance(ref_params, cell_r_on, n_bits):
    """Series resistance of the ideal reference sense branch.

    The reference junction (``ref_params``, see
    :func:`~xpointsim.device.reference_params`) sits in P behind the word
    selector, which is ``n_bits`` cell switches wide. This is the branch
    that fixes the read cycle.
    """
    return mtj_resistance(MtjState.P, ref_params) + cell_r_on / n_bits


class CrossbarArray:
    """One cross-point array holding live device states.

    The array owns the data-cell states in ``states``, which
    :mod:`xpointsim.ops` flips while running protocols. Rows, segments and
    cells never change, so the nodal core is compiled once;
    ``resistances`` and ``critical_currents`` follow the cells in
    ``cell_keys`` order, which is also the network's branch order.
    """

    def __init__(
        self,
        n_bits,
        m_words,
        params=None,
        dynamics=None,
        transistor=None,
        balanced=True,
        line_resistance=0.0,
        v_dd=1.2,
        write_overdrive=1.3,
    ):
        if n_bits < 1:
            raise ParameterError("n_bits: must be at least 1")
        if m_words < 1:
            raise ParameterError("m_words: must be at least 1")
        if balanced and m_words % 2 != 0:
            raise ParameterError(
                "m_words: the balanced layout pairs words by parity and "
                "needs an even word count"
            )
        self.n_bits = n_bits
        self.m_words = m_words
        self.balanced = balanced
        self.line_resistance = line_resistance
        self.v_dd = v_dd
        self.params = params if params is not None else MtjParams()
        self.dynamics = (
            dynamics if dynamics is not None else SwitchingParams.lumped_fit(self.params)
        )
        self.cell_transistor = (
            transistor
            if transistor is not None
            else TransistorModel.default_for(self.params, v_dd=v_dd, overdrive=write_overdrive)
        )
        self.write_current = write_overdrive * critical_current(self.params)
        # the word selector carries all n_bits cell currents at once,
        # so it is an n_bits-wide device
        self.row_driver_model = TransistorModel(
            r_on=self.cell_transistor.r_on / n_bits,
            r_off=self.cell_transistor.r_off,
            i_sat=n_bits * self.cell_transistor.i_sat,
        )
        self.ref_params = reference_params(self.params)

        self.word_rows = [f"w{i}" for i in range(m_words)]
        self.ref_rows = list(REF_ROWS) if balanced else []
        if balanced:
            self.segments = [
                f"b{j}{half}" for j in range(n_bits) for half in ("e", "o")
            ]
        else:
            self.segments = [f"b{j}" for j in range(n_bits)]

        data = [
            (self.word_row(w), self.host_segment(w, j))
            for w in range(m_words)
            for j in range(n_bits)
        ]
        refs = []
        if balanced:
            # each reference row covers the segments its words do not use
            refs = [
                cell
                for j in range(n_bits)
                for cell in (("ref_e", f"b{j}o"), ("ref_o", f"b{j}e"))
            ]
        self.cell_keys = data + refs
        self.states = np.zeros(len(data), dtype=bool)
        self._r_data = (
            mtj_resistance(MtjState.P, self.params),
            mtj_resistance(MtjState.AP, self.params),
        )
        self._r_refs = np.full(len(refs), mtj_resistance(MtjState.P, self.ref_params))
        self.critical_currents = np.concatenate([
            np.full(len(data), critical_current(self.params)),
            np.full(len(refs), critical_current(self.ref_params)),
        ])
        tags = [self.tag(*key) for key in self.cell_keys]
        self._core = NodalCore(
            self.word_rows + self.ref_rows, self.segments, self.cell_keys, tags,
            line_resistance, self.resistances,
        )

    # -- addressing ----------------------------------------------------

    def word_row(self, word):
        self._check_word(word)
        return f"w{word}"

    def parity(self, word):
        self._check_word(word)
        return word % 2

    def host_segment(self, word, bit):
        """Segment carrying the data cell of (word, bit)."""
        self._check_bit(bit)
        if not self.balanced:
            return f"b{bit}"
        return f"b{bit}{'e' if self.parity(word) == 0 else 'o'}"

    def sibling_segment(self, word, bit):
        """The other half of the bit column; carries the reference branch."""
        if not self.balanced:
            raise ParameterError("sibling_segment: plain layout has single columns")
        self._check_bit(bit)
        return f"b{bit}{'o' if self.parity(word) == 0 else 'e'}"

    def segments_for_bit(self, bit):
        self._check_bit(bit)
        if not self.balanced:
            return (f"b{bit}",)
        return (f"b{bit}e", f"b{bit}o")

    def serving_ref_row(self, word):
        if not self.balanced:
            raise ParameterError("serving_ref_row: plain layout has no reference rows")
        return "ref_e" if self.parity(word) == 0 else "ref_o"

    def _check_word(self, word):
        if not 0 <= word < self.m_words:
            raise ParameterError(
                f"word_addr: {word} outside 0..{self.m_words - 1}"
            )

    def _check_bit(self, bit):
        if not 0 <= bit < self.n_bits:
            raise ParameterError(f"bit: {bit} outside 0..{self.n_bits - 1}")

    # -- device state --------------------------------------------------

    @staticmethod
    def tag(row, segment):
        return f"{row}:{segment}"

    @property
    def resistances(self):
        """Branch resistances in ``cell_keys`` order, derived from ``states``."""
        r_p, r_ap = self._r_data
        return np.concatenate([np.where(self.states, r_ap, r_p), self._r_refs])

    def state(self, word, bit):
        self._check_word(word)
        self._check_bit(bit)
        return MtjState.AP if self.states[word * self.n_bits + bit] else MtjState.P

    def _word_cells(self, word):
        self._check_word(word)
        return slice(word * self.n_bits, (word + 1) * self.n_bits)

    def get_word(self, word):
        return "".join("1" if ap else "0" for ap in self.states[self._word_cells(word)])

    def set_word(self, word, data):
        """Directly assign stored data, bypassing the write protocol."""
        if len(data) != self.n_bits:
            raise ParameterError(
                f"data: expected {self.n_bits} bits, got {len(data)}"
            )
        cells = self._word_cells(word)
        for ch in data:
            if ch not in ("0", "1"):
                raise ParameterError(f"data: invalid bit character {ch!r}")
        self.states[cells] = [ch == "1" for ch in data]

    # -- network extraction ---------------------------------------------

    def to_network(self, bias, drivers):
        """Snapshot the present device states into a solvable network.

        ``drivers`` names the selected rows only; every other row is tied
        to the rails through a word selector of the present
        ``row_driver_model`` with both switches off.
        """
        return CrossbarNetwork.on_core(
            self._core, self.resistances, drivers, bias, self.v_dd,
            idle=RowDriver(self.row_driver_model),
        )

    def ideal_branch_resistance(self, state):
        """Series resistance of one isolated sense branch in a given state."""
        return mtj_resistance(state, self.params) + self.row_driver_model.r_on

    def ideal_reference_resistance(self):
        return reference_branch_resistance(
            self.ref_params, self.cell_transistor.r_on, self.n_bits
        )
