"""Span tracer for the traced benchmark run.

Wraps the public functions of each ionmodes module listed in TRACED and
records one span (name, start, end, parent) per call in flat in-memory
arrays.  A function that other modules import by name (``from
ionmodes.numerics import quad_oscillatory``) is replaced in every loaded
ionmodes module that holds it, not only in the module that defines it;
methods are replaced on their class, which reaches every importer of the
class.  Single-threaded: the parent of a span is the span open on the one
call stack.
"""

import functools
import sys
import time
from array import array

import numpy as np

# module -> public functions whose calls are timed ("Class.method" for methods)
TRACED = {
    "ion_chain": ("solve_equilibrium", "IonChainModel.build"),
    "scalar_field": ("ScalarFieldSpec.phi_entry", "ScalarFieldSpec.pi_entry",
                     "scalar_vacuum_cm", "measured_vacuum_cm"),
    "numerics": ("quad_oscillatory", "principal_sqrt", "maximize_1d"),
    "gaussian": ("condition_homodyne", "symplectic_spectrum", "log_negativity",
                 "fidelity", "optimize_global_squeeze"),
    "fock": ("husimi_data", "matrix_element", "qudit_subspace_deficit"),
    "experiments": ("negativity_cell", "fidelity_cell", "fock_cell"),
    "golden": ("check_table",),
    "cli": ("main",),
}

SPAN_NAMES = tuple("%s.%s" % (module, fn) for module, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records spans while installed; restores every replaced attribute on
    uninstall."""

    def __init__(self):
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._restore = []

    def _wrap(self, name_id, fn):
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        loaded = [m for name, m in sys.modules.items()
                  if name == "ionmodes" or name.startswith("ionmodes.")]
        for name_id, span_name in enumerate(SPAN_NAMES):
            module_name, _, qualname = span_name.partition(".")
            module = sys.modules["ionmodes." + module_name]
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    self._replace(cls, method, classmethod(self._wrap(name_id, raw.__func__)))
                else:
                    self._replace(cls, method, self._wrap(name_id, raw))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name_id, original)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def save(self, path):
        """Write every recorded span to an .npz file."""
        np.savez(path, names=np.array(SPAN_NAMES), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))

    def summary(self):
        """Per-function self time and call count, plus derived layer ratios."""
        name = np.asarray(self.name, dtype=np.intp)
        parent = np.asarray(self.parent, dtype=np.intp)
        duration = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(duration))
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_time = np.bincount(name, weights=duration - child, minlength=len(SPAN_NAMES))
        calls = np.bincount(name, minlength=len(SPAN_NAMES))
        out = {}
        for k, span_name in enumerate(SPAN_NAMES):
            out[span_name + ".self_s"] = float(self_time[k])
            out[span_name + ".calls"] = int(calls[k])

        ids = {span_name: k for k, span_name in enumerate(SPAN_NAMES)}
        # correlator lookups that missed the entry cache run one quadrature each
        lookup_ids = [ids["scalar_field.ScalarFieldSpec.phi_entry"],
                      ids["scalar_field.ScalarFieldSpec.pi_entry"]]
        lookups = int(calls[lookup_ids].sum())
        quad = np.flatnonzero(name == ids["numerics.quad_oscillatory"])
        quad_parent = parent[quad]
        misses = int(np.isin(name[quad_parent[quad_parent >= 0]], lookup_ids).sum())
        out["scalar_field.entry_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0

        search_id = ids["gaussian.optimize_global_squeeze"]
        in_search = 0
        for span in np.flatnonzero(name == ids["gaussian.fidelity"]):
            up = parent[span]
            while up >= 0 and name[up] != search_id:
                up = parent[up]
            in_search += up >= 0
        searches = int(calls[search_id])
        out["gaussian.fidelity_evals_per_search"] = in_search / searches if searches else 0.0
        return out
