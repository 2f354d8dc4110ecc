"""Aliases of the stop-loss threshold menu; only ``perfbench/`` uses them."""

from functools import partial

from . import threshold

StopLossMenu = partial(threshold.ThresholdMenu, contract_class="stop_loss")
objective = partial(threshold.objective, "stop_loss")
solve = partial(threshold.solve, "stop_loss")
