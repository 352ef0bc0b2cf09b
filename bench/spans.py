"""Spans around redsop functions, recorded from outside the package.

``Tracer.install`` replaces each listed function with a wrapper in every
redsop module that holds it (``from .poly import _nf_raw`` makes a second
binding in ``groebner``, so patching ``poly`` alone would miss most calls)
and ``uninstall`` puts the originals back.  Spans live in flat arrays:
name, start, end, parent and owner (the query or suite instance being
run), in the order the spans started.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# Traced functions as ``<module>.<attribute path>``.
TRACED = (
    "groebner._buchberger_raw",
    "groebner.buchberger",
    "groebner.Ideal.intersect",
    "groebner.Ideal.quotient",
    "groebner.Ideal.quotient_ideal",
    "groebner.Ideal.saturation",
    "groebner.Ideal.dim_quotient",
    "poly._nf_raw",
    "poly.parse_poly",
    "monomial.irreducible_decomposition",
    "monomial.ass_monomial",
    "monomial.localize_at_monomial_prime",
    "sop.depth_with_certificate",
    "sop.depth_oracle",
    "sop._assoc_dim_witness",
    "sop.make_reducing",
    "cmlocus.construct_reducing_part_in_prime",
    "cmlocus.cm_membership_monomial",
    "cmlocus.cm_membership_general",
    "session.parse_session",
    "session.render_report",
)


def _nonmonomial_input(args, kwargs, result):
    # None keeps the (far more common) monomial calls out of the outcome map.
    return True if any(len(g.terms) > 1 for g in args[0]) else None


def _make_reducing_outcome(args, kwargs, result):
    # ConstructionResult.attempts is the 0-based index of the accepted
    # attempt on success and the number of attempts on failure.
    return (result.attempts + 1 if result.ok else result.attempts, int(result.ok))


def _construct_outcome(args, kwargs, result):
    return (result.attempts, int(result.ok))


# What a span keeps beyond its timing, for the ratios computed from it.
OUTCOMES = {
    "groebner.buchberger": _nonmonomial_input,
    "sop.make_reducing": _make_reducing_outcome,
    "cmlocus.construct_reducing_part_in_prime": _construct_outcome,
}


class Tracer:
    def __init__(self):
        self.names = TRACED
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.owner = array("i")
        self.outcome = {}  # span index -> value from OUTCOMES
        self.owner_id = -1
        self._stack = []
        self._patches = []

    # -- recording -------------------------------------------------------

    def _wrap(self, nid, fn, outcome):
        name, start, end = self.name, self.start, self.end
        parent, owner, stack = self.parent, self.owner, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            owner.append(self.owner_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    value = outcome(args, kwargs, result)
                    if value is not None:
                        self.outcome[idx] = value
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced function wherever a redsop module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for qualified in self.names:
            importlib.import_module(f"redsop.{qualified.split('.')[0]}")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "redsop" or key.startswith("redsop."))]
        for nid, qualified in enumerate(self.names):
            mod_name, *path = qualified.split(".")
            holder = sys.modules[f"redsop.{mod_name}"]
            for part in path[:-1]:
                holder = getattr(holder, part)
            original = getattr(holder, path[-1])
            wrapper = self._wrap(nid, original, OUTCOMES.get(qualified))
            if isinstance(holder, type):
                holders = [holder]
            else:
                holders = [m for m in modules if vars(m).get(path[-1]) is original]
            for h in holders:
                self._patches.append((h, path[-1], original))
                setattr(h, path[-1], wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def write(self, path):
        """All spans as gzipped CSV: index, name, start, end, parent, owner."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,owner\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{self.owner[i]}\n")


def self_times(start, end, parent):
    """Each span's duration minus the part of it its children cover.

    Spans must be listed in order of start time, so the children of a span
    arrive sorted and their union can be swept in one pass.  Children are
    clipped to their parent and overlaps between them count once.
    """
    n = len(start)
    covered = array("d", bytes(8 * n))
    reach = array("d", start)  # how far each span's children already cover
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def layer_metrics(tracer, wall_s):
    """Per-layer metrics named ``<module>.<function>.<stat>`` from the spans."""
    names = tracer.names
    ids = {q: i for i, q in enumerate(names)}
    name, parent = tracer.name, tracer.parent
    selfs = self_times(tracer.start, tracer.end, parent)
    n = len(selfs)

    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i in range(n):
        calls[name[i]] += 1
        self_s[name[i]] += selfs[i]

    raw, bb = ids["groebner._buchberger_raw"], ids["groebner.buchberger"]
    quot, sat = ids["groebner.Ideal.quotient"], ids["groebner.Ideal.saturation"]
    depth = ids["sop.depth_with_certificate"]
    computed = set()
    sat_quotients = 0
    depth_colons = 0
    for i in range(n):
        nid = name[i]
        p = parent[i]
        if nid == raw and p >= 0 and name[p] == bb:
            computed.add(p)
        elif nid == quot:
            if p >= 0 and name[p] == sat:
                sat_quotients += 1
            while p >= 0 and name[p] != depth:
                p = parent[p]
            if p >= 0:
                depth_colons += 1
    nonmono = [i for i, v in tracer.outcome.items() if name[i] == bb and v]
    hits = sum(1 for i in nonmono if i not in computed)

    def per_call(total, nid):
        return total / calls[nid] if calls[nid] else 0.0

    out = {}
    for nid, qualified in enumerate(names):
        out[f"{qualified}.calls"] = (calls[nid], "count")
        out[f"{qualified}.self_s"] = (self_s[nid], "s")
    out["groebner.buchberger.nonmonomial_calls"] = (len(nonmono), "count")
    out["groebner.buchberger.hit_ratio"] = (hits / len(nonmono) if nonmono else 0.0, "ratio")
    out["groebner.Ideal.saturation.quotients_per_call"] = (per_call(sat_quotients, sat), "count")
    out["sop.depth_with_certificate.colons_per_call"] = (per_call(depth_colons, depth), "count")
    for qualified in ("sop.make_reducing", "cmlocus.construct_reducing_part_in_prime"):
        nid = ids[qualified]
        outcomes = [v for i, v in tracer.outcome.items() if name[i] == nid]
        attempts = sum(a for a, _ in outcomes)
        useful = sum(ok for _, ok in outcomes)
        out[f"{qualified}.attempts_per_call"] = (per_call(attempts, nid), "count")
        out[f"{qualified}.useful_ratio"] = (useful / attempts if attempts else 0.0, "ratio")
    out["trace.coverage"] = (sum(self_s) / wall_s, "ratio")
    return out
