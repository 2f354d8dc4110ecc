"""Aliases of the quota-share threshold menu; only ``perfbench/`` uses them."""

from functools import partial

from . import threshold

QuotaShareMenu = partial(threshold.ThresholdMenu, contract_class="quota_share")
j_phi = partial(threshold.objective, "quota_share")
solve = partial(threshold.solve, "quota_share")
