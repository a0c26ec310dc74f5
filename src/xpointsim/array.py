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
no reference rows or words; it exists for sneak-path studies and density
estimates, and its reads compare against the ideal reference branch
(``ideal_reference_resistance``) in a second, behavioural cycle.

Cell numbering: a cell is its index ``k``, also its network branch. Cell
``k = word * n_bits + bit`` is the data cell of (word, bit); the reference
cells follow, each bit's ``ref_e`` then ``ref_o``. The network gets each
cell's row and segment index as integer arrays, and a cell's
``row:segment`` tag is formatted only for a message. The array stores one
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
from .network import _KCL_LIMIT, CrossbarNetwork, NodalCore, RowDriver, _check_wires

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


def _checked_models(params, transistor, n_bits, balanced, line_resistance):
    """An array's word selector, reference junction, (P, AP) and reference
    resistances; refuses, as ``section.key``, a switch or wire its solves
    cannot resolve. The build and the scenario check both call it."""
    section = "transistor"
    try:
        # the word selector carries all n_bits cell currents at once,
        # so it is an n_bits-wide device
        r_on, r_off, i_sat = transistor.r_on, transistor.r_off, transistor.i_sat
        if not r_on / n_bits > 0.0:
            raise ParameterError(f"r_on: {r_on:g} ohm over {n_bits} cells leaves the word selector at 0 ohm")
        selector = TransistorModel(r_on / n_bits, r_off, n_bits * i_sat)
        section = "device"
        ref_params = reference_params(params)
        r_data = mtj_resistance(MtjState.P, params), mtj_resistance(MtjState.AP, params)
        r_ref = mtj_resistance(MtjState.P, ref_params)
        built = np.array([r_data[0], r_ref][: 1 + balanced])  # every data cell starts parallel
        # a selector rail that buries the branch conductances below the float
        # resolution of the row sums loses their currents (as wires would)
        r_max = max(*r_data, *built)
        floor = n_bits * r_max * np.finfo(float).eps / _KCL_LIMIT
        section = "transistor"
        if not r_on >= floor:
            raise ParameterError(f"r_on: {r_on:g} ohm is below the {floor:g} ohm floor "
                                 f"of a {n_bits}-bit word next to {r_max:g} ohm cells")
        section = "array"
        _check_wires(line_resistance, built)
    except ParameterError as exc:
        raise ParameterError(f"{section}.{exc}") from None
    return selector, ref_params, r_data, r_ref


class CrossbarArray:
    """One cross-point array holding live device states.

    The array owns the data-cell states: ``states`` shows them read-only, and
    :meth:`store`, their one writer, marks the words it writes in
    ``changed_words`` and ``changed`` for the read base. Rows, segments and
    cells never change, so the nodal ``core`` is compiled once;
    ``resistances`` and ``critical_currents`` follow the cells in index
    order, which is also the network's branch order.
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
        self.row_driver_model, self.ref_params, self._r_data, r_ref = _checked_models(
            self.params, self.cell_transistor, n_bits, balanced, line_resistance
        )

        self.word_rows = [f"w{i}" for i in range(m_words)]
        self.ref_rows = list(REF_ROWS) if balanced else []
        # data cell k = word * n_bits + bit sits on row `word` and, balanced,
        # on b{bit}e for an even word and on b{bit}o for an odd one
        word, bit = np.repeat(np.arange(m_words), n_bits), np.tile(np.arange(n_bits), m_words)
        cell_row, cell_col = word, bit
        if balanced:
            self.segments = [f"b{j}{half}" for j in range(n_bits) for half in ("e", "o")]
            # each bit's ref_e then ref_o cell, on the segment its words do not use
            ref = np.arange(2 * n_bits)
            cell_row = np.concatenate([word, m_words + ref % 2])
            cell_col = np.concatenate([2 * bit + word % 2, ref ^ 1])
        else:
            self.segments = [f"b{j}" for j in range(n_bits)]
        self._states = np.zeros(word.size, dtype=bool)
        self.states = self._states.view()
        self.states.flags.writeable = False
        self.changed_words, self.changed = np.zeros(m_words, dtype=bool), False
        self._r_refs = np.full(len(cell_row) - word.size, r_ref)
        i_c = critical_current(self.params), critical_current(self.ref_params)
        self.critical_currents = np.repeat(i_c, [word.size, self._r_refs.size])
        self.core = NodalCore(
            self.word_rows + self.ref_rows, self.segments, cell_row, cell_col,
            line_resistance, self.resistances,
        )
        self.read_base = None  # the idle read solution ops.read_word keeps

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

    def tag(self, k):
        """Cell ``k``'s ``row:segment`` name, for messages."""
        return self.core.tag(k)

    @property
    def resistances(self):
        """Branch resistances in cell order, derived from ``states``."""
        r_p, r_ap = self._r_data
        return np.concatenate([np.where(self.states, r_ap, r_p), self._r_refs])

    def state(self, word, bit):
        self._check_word(word)
        self._check_bit(bit)
        return MtjState.AP if self.states[word * self.n_bits + bit] else MtjState.P

    def _word_cells(self, word):
        self._check_word(word)
        return word * self.n_bits + np.arange(self.n_bits)

    def get_word(self, word):
        return "".join("1" if ap else "0" for ap in self.states[self._word_cells(word)])

    def check_data(self, word, data):
        """Refuse a word this array lacks, then data of the wrong width or alphabet."""
        self._check_word(word)
        if len(data) != self.n_bits:
            raise ParameterError(
                f"data: expected {self.n_bits} bits, got {len(data)}"
            )
        for ch in data:
            if ch not in "01":
                raise ParameterError(f"data: invalid bit character {ch!r}")

    def set_word(self, word, data):
        """Directly assign stored data, bypassing the write protocol."""
        self.check_data(word, data)
        self.store(self._word_cells(word), [ch == "1" for ch in data])

    def store(self, cells, values):
        """Set data ``cells`` to ``values`` (True antiparallel) and mark their words changed."""
        self._states[cells] = values
        self.changed_words[cells // self.n_bits] = self.changed = True

    # -- network extraction ---------------------------------------------

    def to_network(self, bias, drivers):
        """Snapshot the present device states into a solvable network.

        ``drivers`` names the selected rows only; every other row is tied
        to the rails through a word selector of the present
        ``row_driver_model`` with both switches off.
        """
        return CrossbarNetwork(
            self.core, self.resistances, drivers, bias, self.v_dd,
            idle=RowDriver(self.row_driver_model),
        )

    def ideal_reference_resistance(self):
        return reference_branch_resistance(
            self.ref_params, self.cell_transistor.r_on, self.n_bits
        )
