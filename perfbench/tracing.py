"""Timers bound from outside around the public functions of cayleykit.

Nothing here edits the package's source.  Wrappers are installed on every
module attribute (and class attribute) that holds the wrapped function, so
a name imported with ``from .perm import normalizer`` is timed at its call
site as well as at its definition.

Two timers exist:

* ``OracleTimer`` is always on.  It adds up the time inside the outermost
  call of a ``repro`` oracle, so an oracle that calls another oracle
  (``regular_class_scan`` calls ``all_subgroups``) is counted once.
* ``Tracer`` is on only in traced passes.  Every wrapped call is a span;
  a span's self time is its duration minus the time covered by the spans
  it directly contains, so the self times of all spans add up to the time
  covered by the outermost spans.
"""

from __future__ import annotations

import copy
import itertools
import time
from collections import Counter, defaultdict

LAYERS = ("perm", "blocks", "zoo", "closures", "ci", "repro", "cli")

# The repro oracles.  brute_force_automorphisms lives in closures but is
# reached through repro's binding of it.
ORACLES = ("all_subgroups", "regular_class_scan", "invariant_partition_scan",
           "smallest_primitive_prime_divisor", "brute_force_automorphisms")

CLAIM_IDS = ("example-degree-20", "cor1-p7-n3", "frobenius-2closed-p7-n3",
             "cor2-p13-n4", "closure-chain", "zsigmondy-table",
             "blocks-oracle", "tower-dic3", "regular-subgroups-oracle",
             "family-closure")


def _length(args, result):
    return len(result)


def _tuples_count(args, result):
    G, k = args[0], args[1]
    return G.degree ** k


def _gens_count(args, result):
    return len(result.generators)


# (span name, module, attribute, class name or None, extra count or None).
# The count, when present, is reported as "<span name>.<count name>".
SPANS = (
    ("perm.chain_build", "perm", "__init__", "PermGroup", None),
    ("perm.elements", "perm", "elements", "PermGroup",
     ("count", _length)),
    ("perm.contains", "perm", "contains", "PermGroup", None),
    ("perm.normalizer", "perm", "normalizer", None, None),
    ("perm.sylow_subgroup", "perm", "sylow_subgroup", None, None),
    ("blocks.all_block_systems", "blocks", "all_block_systems", None, None),
    ("blocks.block_restriction", "blocks", "block_restriction", None, None),
    ("blocks.action_on_blocks", "blocks", "action_on_blocks", None, None),
    ("blocks.verify_tower", "blocks", "verify_tower", None, None),
    ("zoo.isomorphic_to_spec", "zoo", "isomorphic_to_spec", None, None),
    ("zoo.isomorphic_groups", "zoo", "isomorphic_groups", None, None),
    ("zoo.group_in_family_R", "zoo", "group_in_family_R", None, None),
    ("zoo.regular_representation", "zoo", "regular_representation", None,
     None),
    ("zoo.inner_holomorph", "zoo", "inner_holomorph", None, None),
    ("closures.orbit_coloring", "closures", "orbit_coloring", None,
     ("tuples", _tuples_count)),
    ("closures.automorphisms", "closures", "automorphisms", None,
     ("gens", _gens_count)),
    ("closures.k_closure", "closures", "k_closure", None, None),
    ("ci.regular_subgroups", "ci", "regular_subgroups", None,
     ("classes", _length)),
    ("ci.are_conjugate_subgroups", "ci", "are_conjugate_subgroups", None,
     None),
    ("ci.babai_check", "ci", "babai_check", None, None),
    ("ci.block_tower_search", "ci", "block_tower_search", None, None),
    ("ci.partition_transporter", "ci", "partition_transporter", None, None),
    ("ci.align_sylow_orbits", "ci", "align_sylow_orbits", None, None),
    ("ci.holomorph_witness", "ci", "holomorph_witness", None, None),
    ("repro.all_subgroups", "repro", "all_subgroups", None, None),
    ("repro.regular_class_scan", "repro", "regular_class_scan", None, None),
    ("repro.invariant_partition_scan", "repro", "invariant_partition_scan",
     None, None),
    ("repro.brute_force_automorphisms", "repro", "brute_force_automorphisms",
     None, None),
    ("cli.main", "cli", "main", None, None),
) + tuple((f"repro.claim.{cid}", "repro", cid, "CLAIMS", None)
          for cid in CLAIM_IDS)

# Permutation product and inverse are counted, not timed: a span around
# each would cost more than the operation itself.
COUNTED = (("perm.mul.count", "__mul__"), ("perm.inverse.count", "inverse"))


def per_layer_metrics():
    """Every per-layer metric name a traced pass reports, with its unit."""
    out = {}
    for name, _mod, _attr, _owner, extra in SPANS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.s"] = "s"
        if extra is not None:
            out[f"{name}.{extra[0]}"] = "count"
    for name, _attr in COUNTED:
        out[name] = "count"
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
        out[f"{layer}.errors"] = "count"
    out["oracle_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


def rebind(modules, old, new):
    """Point every module attribute that holds ``old`` at ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class OracleTimer:
    """Time spent inside the outermost call of any wrapped oracle."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.total = 0.0
        self._depth = 0
        self._start = 0.0

    def wrap(self, fn):
        def timed(*args, **kwargs):
            if self._depth == 0:
                self._start = self.clock()
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.total += self.clock() - self._start
        return timed


class Tracer:
    """Spans with self time, per-name call counts and per-layer errors."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.errors = Counter()
        self._stack = []
        self._tickers = {}

    def wrap(self, name, fn, extra=None):
        layer = name.split(".", 1)[0]
        stack, clock = self._stack, self.clock
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def spanned(*args, **kwargs):
            covered = [0.0]  # time of the spans this one directly contains
            stack.append(covered)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                calls[name] += 1
                self_s[name] += took - covered[0]
            if extra is not None:
                counts[f"{name}.{extra[0]}"] += extra[1](args, result)
            return result
        return spanned

    def counter(self, name, fn):
        tick = self._tickers[name] = itertools.count()

        def counted(*args, **kwargs):
            next(tick)
            return fn(*args, **kwargs)
        return counted

    def metrics(self):
        """Raw per-span numbers; the caller adds oracle and overhead."""
        out = {}
        layer_self = defaultdict(float)
        for name, _mod, _attr, _owner, extra in SPANS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.self_s[name]
            layer_self[name.split(".", 1)[0]] += self.self_s[name]
            if extra is not None:
                key = f"{name}.{extra[0]}"
                out[key] = self.counts[key]
        for name, tick in self._tickers.items():
            out[name] = next(copy.copy(tick))
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        return out


def install(package, oracle_timer, tracer=None):
    """Bind the oracle timer, and the tracer if given, into the package.

    ``package`` is the imported ``cayleykit`` package; its submodules must
    already be imported.
    """
    modules = [package] + [getattr(package, layer) for layer in LAYERS]
    repro = package.repro
    for oracle in ORACLES:
        fn = getattr(repro, oracle)
        rebind(modules, fn, oracle_timer.wrap(fn))
    if tracer is None:
        return
    for name, mod, attr, owner, extra in SPANS:
        module = getattr(package, mod)
        if owner == "CLAIMS":
            module.CLAIMS[attr] = tracer.wrap(name, module.CLAIMS[attr])
        elif owner is not None:
            cls = getattr(module, owner)
            setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), extra))
        else:
            fn = getattr(module, attr)
            rebind(modules, fn, tracer.wrap(name, fn, extra))
    perm_cls = package.perm.Permutation
    for name, attr in COUNTED:
        setattr(perm_cls, attr, tracer.counter(name, getattr(perm_cls, attr)))
