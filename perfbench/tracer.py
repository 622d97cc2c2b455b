"""Outside-in tracing of mlte's layers.

`Tracer.install()` replaces each traced function, at every module attribute
of the mlte package that is bound to it and on its class for the two
methods, with a wrapper that records a span: name, start, end, parent span
and (study, replication) id, the replication being -1 outside one.  Spans
stay in memory until `write()`.  The program itself is not modified;
`uninstall()` restores the originals.

Self time of a span is its duration minus the durations of its child spans,
so the self times of all spans plus the untraced remainder sum to the wall
time of the traced section.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time

# (layer name, defining module, attribute); several functions may share a
# layer name, and a dotted attribute names a method patched on its class.
TARGETS = (
    ("tabular.design_matrix", "mlte.tabular", "BoundDesign.matrix"),
    ("tabular.take", "mlte.tabular", "Dataset.take"),
    ("tabular.load_csv", "mlte.tabular", "load_csv"),
    ("glm.fit_ols", "mlte.glm", "fit_ols"),
    ("glm.fit_logistic", "mlte.glm", "fit_logistic"),
    ("glm.fit_multinomial", "mlte.glm", "fit_multinomial"),
    ("learners.fit_outcome", "mlte.learners", "fit_outcome"),
    ("learners.fit_super_learner", "mlte.learners", "fit_super_learner"),
    ("learners.fit_propensity", "mlte.learners", "fit_propensity"),
    ("outcome_methods.stan", "mlte.outcome_methods", "stan_estimates"),
    ("outcome_methods.tmle", "mlte.outcome_methods", "estimate_tmle"),
    ("outcome_methods.crude", "mlte.outcome_methods", "estimate_crude"),
    ("weighting.ipw", "mlte.weighting", "estimate_ipw"),
    ("weighting.overlap_weights", "mlte.weighting", "compute_overlap_weights"),
    ("weighting.ow", "mlte.weighting", "estimate_ow"),
    ("weighting.aow", "mlte.weighting", "estimate_aow"),
    ("matching.build_matches", "mlte.matching", "build_matches"),
    ("matching.match", "mlte.matching", "estimate_match"),
    ("matching.bcm", "mlte.matching", "estimate_bcm"),
    ("simengine.simulate_dataset", "mlte.simengine", "simulate_dataset"),
    ("simengine.compute_metrics", "mlte.simengine", "compute_metrics"),
    # private: the per-replication entry point, traced to label spans with
    # their replication and to time method dispatch
    ("simengine.replication", "mlte.simengine", "_scenario_rep"),
    ("reporting.render", "mlte.reporting", "render_report"),
    ("reporting.render", "mlte.reporting", "all_pairs_table"),
    ("reporting.render", "mlte.reporting", "render_contrasts"),
    ("cli.main", "mlte.cli", "main"),
)

# per-layer metrics derived from span counts and self times, per replication
COUNTED = (
    "tabular.design_matrix", "tabular.take", "glm.fit_ols", "glm.fit_logistic",
    "glm.fit_multinomial", "learners.fit_outcome", "learners.fit_super_learner",
    "learners.fit_propensity", "matching.build_matches",
)
TIMED = COUNTED + (
    "tabular.load_csv", "outcome_methods.stan", "outcome_methods.tmle",
    "outcome_methods.crude", "weighting.ipw", "weighting.overlap_weights", "weighting.ow",
    "weighting.aow", "matching.match", "matching.bcm", "simengine.simulate_dataset",
    "simengine.compute_metrics", "simengine.replication", "reporting.render", "cli.main",
)
_GROUPS = re.compile(r"\((?:BIC, )?(\d+) groups")


def _fit_info(result):
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


def _propensity_info(result):
    """Number of stepwise groups an ml propensity fit chose, read from its
    description; None for the parametric regimes."""
    if getattr(result, "regime", None) != "ml":
        return None
    match = _GROUPS.search(result.description)
    return {"groups": int(match.group(1))} if match else None


_INFO = {
    "glm.fit_logistic": _fit_info,
    "glm.fit_multinomial": _fit_info,
    "learners.fit_propensity": _propensity_info,
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, study, rep, info]
        self.spans = []
        self._stack = []
        self.study = 0
        self.rep = -1
        self.sites = []
        self.missing = []
        self._restore = []

    def _wrap(self, name, fn, rep_arg=None):
        info_of = _INFO.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rep_arg is not None:
                self.rep = rep_arg(args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.study, self.rep, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if rep_arg is not None:
                    self.rep = -1
            if info_of is not None:
                span[6] = info_of(result)
            return result

        return traced

    def install(self):
        """Wrap every target at every binding site in the loaded mlte modules."""
        self.sites, self.missing = [], []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mlte" or n.startswith("mlte.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{modname}.{attr}")
                    continue
                self._patch(cls, meth, fn, self._wrap(name, fn), f"{modname}.{attr}")
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            rep_arg = None
            if name == "simengine.replication":
                # _scenario_rep((cfg, methods, pairs, rep))
                rep_arg = lambda a: a[0][3]
            wrapper = self._wrap(name, fn, rep_arg)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, fn, wrapper, f"{mod.__name__}.{key}")
        return self

    def _patch(self, owner, key, original, wrapper, site):
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))
        self.sites.append(site)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, study, rep, info in self.spans:
                rec = {"name": name, "start": start, "end": end, "parent": parent,
                       "study": study, "rep": rep}
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec) + "\n")

    def layer_metrics(self, wall_s, reps):
        """Per-replication layer metrics of the traced section."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(TIMED, 0)
        self_s = dict.fromkeys(TIMED, 0.0)
        iters = {"glm.fit_logistic": 0, "glm.fit_multinomial": 0}
        nonconverged = dict.fromkeys(iters, 0)
        refits = 0
        fits_in = {}
        rooted = 0.0
        for i, (name, start, end, parent, _s, _r, info) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
            if parent < 0:
                rooted += end - start
            if name in iters and info:
                iters[name] += info["iters"]
                nonconverged[name] += not info["converged"]
            if name == "learners.fit_outcome" and self._ancestor(i, "outcome_methods.stan") is not None:
                refits += 1
            if name == "glm.fit_multinomial":
                owner = self._ancestor(i, "learners.fit_propensity")
                if owner is not None:
                    fits_in[owner] = fits_in.get(owner, 0) + 1
        # stepwise search cost: multinomial fits per selected group (+1 for
        # the intercept-only start) over the ml propensity fits
        fits = groups = 0
        for i, n_fits in fits_in.items():
            info = spans[i][6]
            if info:
                groups += info["groups"] + 1
                fits += n_fits
        reps = max(reps, 1)
        metrics = {}
        for name in COUNTED:
            metrics[f"{name}.calls"] = (calls[name] / reps, "count/rep")
        for name in TIMED:
            metrics[f"{name}.self_s"] = (self_s[name] / reps, "s/rep")
        for name in iters:
            metrics[f"{name}.iters"] = (iters[name] / reps, "count/rep")
            metrics[f"{name}.nonconverged"] = (nonconverged[name] / reps, "count/rep")
        metrics["outcome_methods.stan.refits"] = (refits / reps, "count/rep")
        metrics["learners.stepwise.fits_per_group"] = (fits / groups if groups else 0.0, "ratio")
        metrics["trace.wall_s"] = (wall_s / reps, "s/rep")
        metrics["trace.unattributed_s"] = ((wall_s - rooted) / reps, "s/rep")
        return metrics

    def _ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return parent
            parent = self.spans[parent][3]
        return None
