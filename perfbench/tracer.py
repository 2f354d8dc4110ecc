"""Per-layer tracing of remenu from outside the package.

The tracer wraps the public entry points of each ``remenu`` module by
replacing the module (or class) attributes the library looks up at call
time, and restores the originals on ``remove()``.  Nothing under ``src/``
is edited.  A wrapper either records a span (name, start, end, parent,
pass id) or only bumps counters; spans are kept in flat arrays in memory
and written out once, at the end of the run.

Self time of a span is its duration minus the durations of its direct
children, so a layer's ``*_s`` metric is the time spent in that layer's own
code, not in the layers it calls.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

_perf = time.perf_counter

# J objectives and menu classes per contract-class module.
_CLASS_MODULES = {
    "stop_loss": ("objective", "StopLossMenu"),
    "quota_share": ("j_phi", "QuotaShareMenu"),
    "change_loss": ("j_phi_cl", "ChangeLossMenu"),
}
_J_SPANS = {f"{mod}.{fn}": mod for mod, (fn, _cls) in _CLASS_MODULES.items()}
_KPROFILE_METHODS = ("theta_star", "stop_loss_cost", "xi", "full_cost")
_SCALAR_METHODS = ("stop_loss_cost", "theta_star", "xi")
_DIST_CLASSES = ("ProductUniform", "DegenerateAlpha", "DiscreteTypes")
_VERIFY_FUNCS = {
    "check_ic": "verification.check_ic",
    "check_ir": "verification.check_ir",
    "monte_carlo_profit": "verification.monte_carlo",
    "j_general": "verification.j_general",
    "indirect_utility": "verification.indirect_utility",
    "first_best_demo": "verification.first_best",
}

# Every per-layer metric the traced run reports, with its unit.  The order
# is the order of BENCHMARK.json's per_layer list (before the three
# run-level entries appended by run.py).
LAYER_METRICS = [
    ("search.solves", "count"),
    ("search.grid_evals", "count"),
    ("search.refine_evals", "count"),
    ("search.grid_s", "s"),
    ("search.refine_s", "s"),
    ("search.self_s", "s"),
    *[
        (f"{mod}.{m}", unit)
        for mod in _CLASS_MODULES
        for m, unit in (("j_calls", "count"), ("j_s", "s"), ("j_us", "us"), ("entry_calls", "count"))
    ],
    ("change_loss.assumption_check_s", "s"),
    ("type_space.tail_integral_calls", "count"),
    ("type_space.tail_integral_s", "s"),
    ("type_space.integrate_calls", "count"),
    ("type_space.integrate_s", "s"),
    ("type_space.sample_s", "s"),
    ("type_space.support_s", "s"),
    ("quadrature.gauss_segments", "count"),
    ("quadrature.gauss_nodes", "count"),
    ("quadrature.adaptive_calls", "count"),
    ("quadrature.adaptive_nodes", "count"),
    ("risk_model.kprofile_calls", "count"),
    ("risk_model.kprofile_elems", "count"),
    ("risk_model.kprofile_s", "s"),
    ("risk_model.scalar_calls", "count"),
    ("risk_model.scalar_s", "s"),
    ("risk_model.survival_evals", "count"),
    ("risk_model.kprofile_hit_ratio", "ratio"),
    ("menus.risk_reduction_calls", "count"),
    ("menus.risk_reduction_s", "s"),
    ("menus.value_matrix_s", "s"),
    ("verification.check_ic_s", "s"),
    ("verification.check_ir_s", "s"),
    ("verification.monte_carlo_s", "s"),
    ("verification.j_general_s", "s"),
    ("verification.indirect_utility_s", "s"),
    ("verification.first_best_s", "s"),
    ("cli.self_s", "s"),
    ("config.parse_s", "s"),
]


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.name_ids = array("q")
        self.pass_ids = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.pass_id = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._refining = False

    # -- recording -------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span(self, fn, name: str):
        nid = self._nid(name)
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids, pass_ids, stack = self.name_ids, self.pass_ids, self.stack

        def wrapped(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            pass_ids.append(self.pass_id)
            ends.append(0.0)
            stack.append(i)
            starts.append(_perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = _perf()
                stack.pop()

        wrapped.__wrapped__ = fn
        return wrapped

    def _parent_is(self, nid: int) -> bool:
        return bool(self.stack) and self.name_ids[self.stack[-1]] == nid

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr with make(original); a missing attribute is
        recorded (the layer then reports zeros) instead of failing."""
        raw = getattr(owner, "__dict__", {}).get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(make(raw.__func__)))
        else:
            self._set(owner, attr, make(raw))

    def _patch_span(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self._span(fn, name))

    def install(self) -> None:
        """Patch every traced entry point of the imported ``remenu`` package."""
        from remenu import (  # noqa: F401  (submodules must be loaded)
            change_loss, cli, config, menus, quadrature, quota_share, risk_model,
            search, stop_loss, type_space, verification,
        )

        counts = self.counts
        mods = {"stop_loss": stop_loss, "quota_share": quota_share, "change_loss": change_loss}

        # search: one span per phase; objective evaluations counted per phase.
        def make_maximize(fn):
            grid = self._span(fn, "search.grid")

            def maximize(objective, *args, **kwargs):
                counts["search.solves"] += 1

                def counted(t):
                    counts["search.refine_evals" if self._refining else "search.grid_evals"] += 1
                    return objective(t)

                return grid(counted, *args, **kwargs)

            return maximize

        def make_golden(fn):
            span = self._span(fn, "search.refine")

            def golden(*args, **kwargs):
                self._refining = True
                try:
                    return span(*args, **kwargs)
                finally:
                    self._refining = False

            return golden

        for mod_name, mod in mods.items():
            j_name, menu_cls = _CLASS_MODULES[mod_name]
            self._patch(mod, "maximize_over_tau", make_maximize)
            self._patch_span(mod, j_name, f"{mod_name}.{j_name}")
            cls = getattr(mod, menu_cls, None)
            if cls is None:
                self.missing.append(f"{mod_name}.{menu_cls}")
            else:
                self._patch_span(cls, "entry", f"{mod_name}.entry")
        self._patch(search, "golden_section_max", make_golden)
        for owner in (change_loss, verification):
            self._patch_span(owner, "assumption_check", "change_loss.assumption_check")

        # type_space: the three distribution classes.
        for cls_name in _DIST_CLASSES:
            cls = getattr(type_space, cls_name)
            for attr in ("tail_integral", "integrate", "sample"):
                self._patch_span(cls, attr, f"type_space.{attr}")
            for attr in ("lower_support", "upper_support"):
                self._patch_span(cls, attr, "type_space.support")

        # quadrature: computed operation counts only (no spans).
        def make_gauss(fn):
            def gauss_legendre(lo, hi, n):
                counts["quadrature.gauss_segments"] += 1
                counts["quadrature.gauss_nodes"] += int(n)
                return fn(lo, hi, n)

            return gauss_legendre

        def make_adaptive(fn):
            def adaptive(f, *args, **kwargs):
                counts["quadrature.adaptive_calls"] += 1

                def counted(x):
                    counts["quadrature.adaptive_nodes"] += int(np.size(x))
                    return f(x)

                return fn(counted, *args, **kwargs)

            return adaptive

        for owner in (quadrature, type_space):
            self._patch(owner, "gauss_legendre", make_gauss)
        for owner in (quadrature, type_space):
            self._patch(owner, "adaptive_gauss_batched", make_adaptive)
        for owner in (quadrature, risk_model):
            self._patch(owner, "adaptive_simpson", make_adaptive)

        # risk_model: vectorized KProfile, its per-k cache, scalar CostFunctional.
        kp_nid = self._nid("risk_model.kprofile")

        def make_kprofile(fn):
            span = self._span(fn, "risk_model.kprofile")

            def method(prof, k, *args):
                if not self._parent_is(kp_nid):
                    n = int(np.size(k))
                    counts["risk_model.kprofile_elems"] += n
                    if getattr(prof, "fast", False):
                        counts["kprofile.served"] += n
                return span(prof, k, *args)

            return method

        def make_slow(fn):
            def _slow(prof, k):
                if k in getattr(prof, "_cache", ()):
                    counts["kprofile.served"] += 1
                return fn(prof, k)

            return _slow

        for attr in _KPROFILE_METHODS:
            self._patch(risk_model.KProfile, attr, make_kprofile)
        self._patch(risk_model.KProfile, "_slow", make_slow)
        for attr in _SCALAR_METHODS:
            self._patch_span(risk_model.CostFunctional, attr, "risk_model.scalar")

        def make_survival(fn, elems):
            def survival(self_, *args):
                counts["risk_model.survival_evals"] += elems(*args)
                return fn(self_, *args)

            return survival

        self._patch(
            risk_model.ExponentialFamily,
            "survival",
            lambda fn: make_survival(fn, lambda y, k: int(np.broadcast(y, k).size)),
        )
        self._patch(
            risk_model.ExponentialLoss,
            "survival",
            lambda fn: make_survival(fn, lambda y: int(np.size(y))),
        )

        # menus, verification, cli, config.
        self._patch_span(menus.MenuEntry, "risk_reduction", "menus.risk_reduction")
        self._patch_span(menus.GenericMenu, "value_matrix", "menus.value_matrix")
        for fn_name, span_name in _VERIFY_FUNCS.items():
            self._patch_span(verification, fn_name, span_name)
            if fn_name in cli.__dict__:
                self._patch_span(cli, fn_name, span_name)
        self._patch_span(cli, "main", "cli.main")
        for attr in ("from_file", "build_cost", "build_dist"):
            self._patch_span(config.ScenarioConfig, attr, "config.parse")

    def install_survival(self, cls) -> None:
        """Count calls of a survival-function class defined outside the
        package (a generic loss evaluates it once per point)."""
        counts = self.counts

        def make(fn):
            def __call__(self_, y):
                counts["risk_model.survival_evals"] += 1
                return fn(self_, y)

            return __call__

        self._patch(cls, "__call__", make)

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.starts, dtype=np.float64)
        end = np.frombuffer(self.ends, dtype=np.float64)
        parent = np.frombuffer(self.parents, dtype=np.int64)
        nid = np.frombuffer(self.name_ids, dtype=np.int64)
        return start, end, parent, nid

    def per_name(self) -> tuple[dict, dict, dict]:
        """Span count, self time and inclusive time per span name."""
        start, end, parent, nid = self._arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        m = len(self.names)
        calls = np.bincount(nid, minlength=m)
        self_s = np.bincount(nid, weights=self_t, minlength=m)
        incl_s = np.bincount(nid, weights=dur, minlength=m)
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(self_s[i]) for i, n in enumerate(self.names)},
            {n: float(incl_s[i]) for i, n in enumerate(self.names)},
        )

    def metrics(self) -> dict[str, float]:
        calls, self_s, incl_s = self.per_name()
        c = self.counts
        out: dict[str, float] = {
            "search.solves": c["search.solves"],
            "search.grid_evals": c["search.grid_evals"],
            "search.refine_evals": c["search.refine_evals"],
            "search.grid_s": self_s.get("search.grid", 0.0),
            "search.refine_s": self_s.get("search.refine", 0.0),
            "search.self_s": self_s.get("search.grid", 0.0) + self_s.get("search.refine", 0.0),
        }
        for span, mod in _J_SPANS.items():
            n = calls.get(span, 0)
            out[f"{mod}.j_calls"] = n
            out[f"{mod}.j_s"] = self_s.get(span, 0.0)
            out[f"{mod}.j_us"] = 1e6 * incl_s.get(span, 0.0) / n if n else 0.0
            out[f"{mod}.entry_calls"] = calls.get(f"{mod}.entry", 0)
        out["change_loss.assumption_check_s"] = self_s.get("change_loss.assumption_check", 0.0)
        for what in ("tail_integral", "integrate"):
            out[f"type_space.{what}_calls"] = calls.get(f"type_space.{what}", 0)
            out[f"type_space.{what}_s"] = self_s.get(f"type_space.{what}", 0.0)
        out["type_space.sample_s"] = self_s.get("type_space.sample", 0.0)
        out["type_space.support_s"] = self_s.get("type_space.support", 0.0)
        for key in ("gauss_segments", "gauss_nodes", "adaptive_calls", "adaptive_nodes"):
            out[f"quadrature.{key}"] = c[f"quadrature.{key}"]
        elems = c["risk_model.kprofile_elems"]
        out.update(
            {
                "risk_model.kprofile_calls": calls.get("risk_model.kprofile", 0),
                "risk_model.kprofile_elems": elems,
                "risk_model.kprofile_s": self_s.get("risk_model.kprofile", 0.0),
                "risk_model.scalar_calls": calls.get("risk_model.scalar", 0),
                "risk_model.scalar_s": self_s.get("risk_model.scalar", 0.0),
                "risk_model.survival_evals": c["risk_model.survival_evals"],
                "risk_model.kprofile_hit_ratio": c["kprofile.served"] / elems if elems else 0.0,
                "menus.risk_reduction_calls": calls.get("menus.risk_reduction", 0),
                "menus.risk_reduction_s": self_s.get("menus.risk_reduction", 0.0),
                "menus.value_matrix_s": self_s.get("menus.value_matrix", 0.0),
            }
        )
        for span in _VERIFY_FUNCS.values():
            out[f"{span}_s"] = self_s.get(span, 0.0)
        out["cli.self_s"] = self_s.get("cli.main", 0.0)
        out["config.parse_s"] = self_s.get("config.parse", 0.0)
        return out

    def count_metrics(self) -> dict[str, int]:
        """The deterministic part of the trace: every count, no times."""
        calls, _self_s, _incl = self.per_name()
        return {**{f"spans:{k}": v for k, v in calls.items()}, **dict(self.counts)}

    def write(self, path: Path) -> None:
        start, end, parent, nid = self._arrays()
        t0 = float(start.min()) if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=nid,
            start=start - t0,
            end=end - t0,
            parent=parent,
            pass_id=np.frombuffer(self.pass_ids, dtype=np.int64),
        )
