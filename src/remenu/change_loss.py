"""Aliases of the change-loss threshold menu; only ``perfbench/`` uses them."""

from functools import partial

from . import threshold

ChangeLossMenu = partial(threshold.ThresholdMenu, contract_class="change_loss")
j_phi_cl = partial(threshold.objective, "change_loss")
solve = partial(threshold.solve, "change_loss")
