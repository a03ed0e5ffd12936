import argparse
import hashlib
import inspect
import json
import os
from math import isqrt, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

import cayleykit
from cayleykit.cli import build_parser
from cayleykit.ci import regular_subgroups
from cayleykit.closures import automorphisms, k_closure, orbit_coloring
from cayleykit.perm import (CapExceededError, PermGroup, Permutation, _Chain,
                            _is_power_of, _is_prime, is_normal_in, normalizer,
                            orbit, parse_group_json, prime_factors,
                            sylow_subgroup)
from cayleykit.zoo import GroupSpec, inner_holomorph, regular_representation

M12 = os.path.join(os.path.dirname(__file__), "..", "src", "cayleykit",
                   "fixtures", "m12.json")


def perm(*cycles, n):
    return Permutation.from_cycles(n, cycles)


class TestPermutation:
    def test_identity_and_apply(self):
        p = Permutation([1, 2, 0])
        assert p(0) == 1 and p(2) == 0
        assert Permutation.identity(3).is_identity()

    def test_compose_left_action(self):
        # (p*q)(x) = p(q(x))
        p = Permutation([1, 0, 2])
        q = Permutation([2, 1, 0])
        assert (p * q).images == (2, 0, 1)

    def test_inverse(self):
        p = Permutation([2, 0, 3, 1])
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_from_cycles_roundtrip(self):
        p = perm((0, 1, 2), (3, 4), n=6)
        assert p.cycles() == [(0, 1, 2), (3, 4)]
        assert p.order() == 6

    def test_json_roundtrip(self):
        p = perm((0, 3), (1, 2), n=5)
        assert Permutation(p.to_json()) == p

    def test_malformed(self):
        # A repeated image, an out-of-range image, non-int entries (a bool
        # is an int subclass, and JSON true must not pass as the point 1).
        builders = [Permutation, lambda im: parse_group_json(
            {"degree": len(im), "generators": [im]})]
        for images in [[0, 0, 1], [0, 3, 1], [0, "1", 2], [0, 1.0, 2],
                       [0, True, 2], [True, False]]:
            for build in builders:
                with pytest.raises(ValueError):
                    build(images)
        for cycles in [[(0, 1), (1, 2)], [(0, 3)], [(0, "1")], [(0, 1.0)],
                       [(0, True)], [(False, 2)], [()]]:
            with pytest.raises(ValueError):
                Permutation.from_cycles(3, cycles)

    def test_product_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation([0, 1]) * Permutation([0, 1, 2])


class TestPermGroup:
    def test_symmetric_order(self):
        assert PermGroup.symmetric(4).order == 24
        assert PermGroup.symmetric(5).order == 120

    def test_alternating_order(self):
        A4 = PermGroup(4, [perm((0, 1, 2), n=4), perm((1, 2, 3), n=4)])
        assert A4.order == 12

    def test_contains(self):
        G = PermGroup(4, [perm((0, 1, 2, 3), n=4)])
        assert G.contains(perm((0, 2), (1, 3), n=4))
        assert not G.contains(perm((0, 1), n=4))

    def test_deterministic_generators_order_independent(self):
        a, b = perm((0, 1, 2, 3), n=4), perm((0, 1), n=4)
        g1 = PermGroup(4, [a, b])
        g2 = PermGroup(4, [b, a])
        assert g1.order == g2.order == 24
        assert sorted(p.images for p in g1.elements()) \
            == sorted(p.images for p in g2.elements())

    def test_orbits_and_transitivity(self):
        G = PermGroup(5, [perm((0, 1), (2, 3), n=5)])
        assert G.orbits() == [[0, 1], [2, 3], [4]]
        assert not G.is_transitive()

    def test_regular_profile(self):
        G = PermGroup(4, [perm((0, 1, 2, 3), n=4)])
        assert G.transitivity_profile() == {
            "transitive": True, "semiregular": True, "regular": True}

    def test_conjugate_preserves_order(self):
        G = PermGroup.symmetric(3)
        c = Permutation([2, 0, 1])
        assert G.conjugate(c).order == 6

    def test_elements_cap(self):
        with pytest.raises(CapExceededError):
            PermGroup.symmetric(12).elements(1000)

    @pytest.mark.parametrize("G", [
        PermGroup.symmetric(4),
        PermGroup(4, [perm((0, 1, 2), n=4), perm((1, 2, 3), n=4)]),
        PermGroup.trivial(3),
        inner_holomorph(GroupSpec.frobenius(7, 3)),
        PermGroup(6, [perm((0, 1), n=6), perm((0, 2, 4), (1, 3, 5), n=6),
                      perm((0, 2), (1, 3), n=6)])],
        ids=["s4", "a4", "trivial", "holomorph-frobenius-7-3", "s2-wr-s3"])
    def test_element_at_matches_elements(self, G):
        elems = G.elements()
        assert [G.element_at(i) for i in range(G.order)] == elems
        for i in (-1, G.order):
            with pytest.raises(IndexError):
                G.element_at(i)

    def test_json_roundtrip(self):
        G = PermGroup(4, [perm((0, 1, 2, 3), n=4), perm((0, 1), n=4)])
        H = PermGroup(*parse_group_json(G.to_json()))
        assert H.order == G.order and H.degree == G.degree

    def test_from_json_names_a_missing_key(self):
        for data, key in (({"degree": 4}, "'generators'"),
                          ({"generators": []}, "'degree'")):
            with pytest.raises(ValueError, match=key):
                parse_group_json(data)


class TestSubgroupMachinery:
    def test_is_normal(self):
        S4 = PermGroup.symmetric(4)
        V4 = PermGroup(4, [perm((0, 1), (2, 3), n=4),
                           perm((0, 2), (1, 3), n=4)])
        assert is_normal_in(V4, S4)
        st = PermGroup(4, [perm((1, 2), n=4), perm((1, 2, 3), n=4)])
        assert not is_normal_in(st, S4)

    def test_normalizer(self):
        S4 = PermGroup.symmetric(4)
        C4 = PermGroup(4, [perm((0, 1, 2, 3), n=4)])
        assert normalizer(S4, C4).order == 8  # dihedral

    def test_sylow_orders(self):
        S4 = PermGroup.symmetric(4)
        assert sylow_subgroup(S4, 2).order == 8
        assert sylow_subgroup(S4, 3).order == 3

    def test_sylow_containing(self):
        S4 = PermGroup.symmetric(4)
        V = PermGroup(4, [perm((0, 1), (2, 3), n=4)])
        P = sylow_subgroup(S4, 2, containing=V)
        assert P.order == 8 and V.is_subgroup_of(P)


@st.composite
def sylow_cases(draw):
    """A random group of degree at most 7, a prime dividing its order and,
    half the time, the cyclic p-subgroup of one of its elements of
    p-power order for the result to contain."""
    n = draw(st.integers(2, 7))
    perms = st.permutations(range(n)).map(Permutation)
    G = PermGroup(n, draw(st.lists(perms, min_size=1, max_size=3)))
    assume(G.order > 1)
    p = draw(st.sampled_from(sorted(set(prime_factors(G.order)))))
    containing = None
    if draw(st.booleans()):
        g = draw(st.sampled_from([g for g in G.elements()
                                  if _is_power_of(g.order(), p)]))
        containing = PermGroup(n, [g])
    return G, p, containing


@settings(max_examples=60, deadline=None)
@given(sylow_cases())
def test_sylow_subgroup_is_sylow(case):
    G, p, containing = case
    P = sylow_subgroup(G, p, containing=containing)
    part = 1
    while G.order % (part * p) == 0:
        part *= p
    assert P.order == part and P.is_subgroup_of(G)
    assert all(_is_power_of(g.order(), p) for g in P.elements())
    if containing is not None:
        assert containing.is_subgroup_of(P)


def test_public_surface_has_no_limit_parameters():
    # Limits are library constants; PermGroup.elements keeps its cap because
    # the repro oracles pass their own.
    banned = {"cap", "budget", "base_hint", "limit"}
    found = []
    for name in dir(cayleykit):
        obj = getattr(cayleykit, name)
        if name.startswith("_") or not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{attr}", fn)
                        for attr, fn in inspect.getmembers(obj, callable)
                        if not attr.startswith("_")]
        for label, fn in members:
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            found += [f"{label}({p})" for p in params if p in banned]
    assert found == ["PermGroup.elements(cap)"]
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for sub in subparsers.choices.values()
               for action in sub._actions for opt in action.option_strings}
    assert "--k" in options
    assert not options & {"--cap", "--budget"}


def test_prime_factors():
    assert prime_factors(360) == [2, 2, 2, 3, 3, 5]
    assert prime_factors(1) == []
    # _is_prime reads prime_factors; a sieve checks it, n < 2 included
    sieve = [False, False] + [True] * 4999
    for d in range(2, 71):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    assert [_is_prime(n) for n in range(5001)] == sieve

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10 ** 6))
    def factors_multiply_back(n):
        fs = prime_factors(n)
        assert fs == sorted(fs) and prod(fs) == n
        assert all(f % d for f in fs for d in range(2, isqrt(f) + 1))

    factors_multiply_back()


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_group_order_divides_factorial(a, b):
    G = PermGroup(6, [Permutation(a), Permutation(b)])
    assert 720 % G.order == 0
    assert G.contains(Permutation(a) * Permutation(b))


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(7))))
def test_order_of_element_matches_cycle_lcm(images):
    import math
    p = Permutation(images)
    lcm = 1
    for c in p.cycles():
        lcm = math.lcm(lcm, len(c))
    assert p.order() == (lcm if lcm > 1 else 1)


@st.composite
def point_actions(draw):
    n = draw(st.integers(1, 8))
    gens = draw(st.lists(st.permutations(list(range(n))), max_size=3))
    return [Permutation(g) for g in gens], draw(st.integers(0, n - 1))


@settings(max_examples=50, deadline=None)
@given(point_actions())
def test_orbit_matches_fixed_point_closure(case):
    gens, start = case
    reached = {start}
    while True:
        grown = reached | {g(x) for x in reached for g in gens}
        if grown == reached:
            break
        reached = grown
    out = orbit(start, gens, lambda x, g: g(x))
    assert out[0] == start
    assert len(out) == len(set(out))
    assert set(out) == reached


@st.composite
def listed_groups(draw):
    """Random generators on up to 7 points, or a relabelled regular
    representation of a small spec."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 7))
        perms = st.permutations(list(range(n))).map(Permutation)
        return PermGroup(n, draw(st.lists(perms, max_size=3)))
    spec = draw(st.sampled_from([
        GroupSpec.cyclic(6), GroupSpec.dihedral(4), GroupSpec.q8(),
        GroupSpec.dicyclic(3), GroupSpec.elementary_abelian_2(3),
        GroupSpec.frobenius(5, 4)]))
    side = draw(st.sampled_from(["left", "right"]))
    c = Permutation(draw(st.permutations(list(range(spec.size)))))
    return regular_representation(spec, side).group.conjugate(c)


@settings(max_examples=100, deadline=None)
@given(listed_groups())
def test_listing_agrees_with_the_chain(G):
    # the listing's verdict is the chain's, and its rows are the
    # elements' image tuples, sorted
    rows = G._regular_rows()
    assert G.is_regular() == (rows is not None)
    assert (rows is not None) == (G.is_transitive() and G.order == G.degree)
    if rows is not None:
        assert rows == sorted(g.images for g in G.elements())


@st.composite
def permutation_pairs(draw):
    n = draw(st.integers(0, 9))
    p, q = (draw(st.permutations(list(range(n)))) for _ in range(2))
    return Permutation(p), Permutation(q)


@settings(max_examples=100, deadline=None)
@given(permutation_pairs())
def test_unchecked_products_are_permutations(pair):
    p, q = pair
    n = p.degree
    assert all((p * q)(x) == p(q(x)) for x in range(n))
    assert (p * p.inverse()).is_identity() and (p.inverse() * p).is_identity()
    for result in (p * q, p.inverse(), Permutation.identity(n)):
        assert type(result.images) is tuple
        assert all(type(x) is int for x in result.images)
        assert result == Permutation(list(result.images))


def test_products_of_degree_0_and_1_are_tuples():
    # products gather images in one C call, except at degree 0 (no index
    # to gather) and 1 (a single index gathers an int, not a tuple)
    for n in (0, 1):
        e = Permutation(range(n))
        assert (e * e).images == tuple(range(n))
        assert (e * e) == e
    with pytest.raises(ValueError):
        Permutation([0]) * Permutation([])


class _ReferenceChain(_Chain):
    """The reference Schreier-Sims whose chains `_Chain` must build: it
    sifts every Schreier generator and inverts transversal elements anew."""

    def _recompute(self, i):
        b = self.base[i]
        gens = self._level_gens(i)
        t = {b: self.identity}
        frontier = [b]
        while frontier:
            new = []
            for x in frontier:
                tx = t[x]
                for s in gens:
                    y = s(x)
                    if y not in t:
                        t[y] = s * tx
                        new.append(y)
            frontier = sorted(new)
        self.transversals[i] = t

    def strip(self, g, start=0):
        """Sift g through levels >= start; returns (residue, stuck_level)."""
        for j in range(start, len(self.base)):
            x = g(self.base[j])
            t = self.transversals[j]
            if x not in t:
                return g, j
            g = t[x].inverse() * g
        return g, len(self.base)

    def _close(self):
        i = len(self.base) - 1
        while i >= 0:
            self._recompute(i)
            t = self.transversals[i]
            gens = self._level_gens(i)
            dirty_level = None
            for x in sorted(t):
                tx = t[x]
                for s in gens:
                    sg = t[s(x)].inverse() * (s * tx)
                    if sg.is_identity():
                        continue
                    residue, j = self.strip(sg, i + 1)
                    if not residue.is_identity():
                        self.strong.append(residue)
                        if j == len(self.base):
                            self._new_base_point(residue)
                        dirty_level = j
                        break
                if dirty_level is not None:
                    break
            if dirty_level is None:
                i -= 1
            else:
                i = dirty_level


def chain_key(chain):
    """The base, the strong generators in order and every transversal."""
    return [list(chain.base), [list(s.images) for s in chain.strong],
            [[[x, list(t[x].images)] for x in sorted(t)]
             for t in chain.transversals]]


@st.composite
def chain_inputs(draw):
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(list(range(n))),
                         min_size=1, max_size=4))
    hint = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return n, [Permutation(g) for g in gens], tuple(hint)


@settings(max_examples=200, deadline=None)
@given(chain_inputs())
def test_schreier_sims_builds_the_reference_chain(case):
    n, gens, hint = case
    assert chain_key(_Chain.schreier_sims(n, gens, hint)) \
        == chain_key(_ReferenceChain.schreier_sims(n, gens, hint))


def _wreath(m, k):
    """S_m wr S_k on m*k points, blocks {0..m-1}, {m..2m-1}, ..."""
    n = m * k
    swap = list(range(n))
    for i in range(m):
        swap[i], swap[m + i] = m + i, i
    return PermGroup(n, [perm((0, 1), n=n), perm(tuple(range(m)), n=n),
                         Permutation(swap),
                         Permutation([(x + m) % n for x in range(n)])])


def _m12():
    with open(M12) as fh:
        return PermGroup(*parse_group_json(json.load(fh)))


def test_chain_corpus_is_pinned():
    # Schreier-Sims chains, which decide elements() order; the digest is
    # that of _ReferenceChain.  The closure keeps the chain of the base
    # its search found, so its generators are rebuilt here; they come from
    # the unseeded search, so they do not depend on the input's own.
    c2_x_d4 = GroupSpec.direct_product([GroupSpec.cyclic(2),
                                        GroupSpec.dihedral(4)])
    C = automorphisms(orbit_coloring(inner_holomorph(c2_x_d4), 3))
    corpus = [PermGroup.symmetric(8),
              PermGroup(9, [perm((0, 1, 2), n=9),
                            perm(tuple(range(9)), n=9)]),
              _wreath(4, 3), _m12(),
              inner_holomorph(GroupSpec.frobenius(7, 3)),
              PermGroup(16, C.generators)]
    assert [G.order for G in corpus] \
        == [40320, 181440, 82944, 95040, 441, 128]
    text = json.dumps([chain_key(G._chain) for G in corpus])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "71dc4faf31ec85448f4de7410fd5c512ff0bb25d75e1548785ee61a1edac0640")


@pytest.mark.parametrize("build", [lambda: PermGroup.symmetric(12), _m12],
                         ids=["s12", "m12"])
def test_no_schreier_generator_is_sifted_twice(monkeypatch, build):
    sifts = []
    strip = _Chain.strip

    def recorded(self, g, start=0):
        sifts.append((start, g.images))
        return strip(self, g, start)

    monkeypatch.setattr(_Chain, "strip", recorded)
    build().order  # construction builds no chain; the first read does
    assert sifts and len(set(sifts)) == len(sifts)


def test_construction_and_orbit_work_build_no_chain(monkeypatch):
    # only order, contains and the element listings read the chain
    def no_chain(*args, **kwargs):
        raise AssertionError("a stabilizer chain was built")

    monkeypatch.setattr(_Chain, "schreier_sims", no_chain)
    spec = GroupSpec.frobenius(7, 3)
    c = Permutation([(2 * x + 1) % 21 for x in range(21)])
    G = PermGroup(21, [Permutation([(x + 1) % 21 for x in range(21)])])
    for H in (G, inner_holomorph(spec),
              regular_representation(spec, "left").group, G.conjugate(c)):
        assert len(H.orbits()) == 1 and H.is_transitive()
        assert len(set(orbit_coloring(H, 2).colors)) > 1


def test_first_order_read_builds_one_chain(monkeypatch):
    builds = []
    build = _Chain.schreier_sims

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(_Chain, "schreier_sims", counted)
    G = inner_holomorph(GroupSpec.frobenius(7, 3))
    assert builds == []
    assert G.order == 441 and len(builds) == 1
    assert G.order == 441 and G.contains(G.generators[0])
    assert len(G.elements()) == 441 and len(builds) == 1


def test_regular_groups_take_their_chain_from_a_listing(monkeypatch):
    # a regular group is listed, up to n + 1 elements, and takes the chain
    # on the base [0] with its generators as the strong set: the one
    # Schreier-Sims builds, which never runs
    groups = [regular_representation(spec, side).group
              for spec in (GroupSpec.dihedral(16), GroupSpec.dicyclic(5),
                           GroupSpec.frobenius(7, 3))
              for side in ("left", "right")]
    expected = [chain_key(_Chain.schreier_sims(G.degree, G.generators))
                for G in groups]

    def no_chain(*args, **kwargs):
        raise AssertionError("Schreier-Sims ran")

    monkeypatch.setattr(_Chain, "schreier_sims", no_chain)
    assert groups[0].order == 32
    assert [chain_key(G._chain) for G in groups] == expected
    assert all(G.is_regular() for G in groups)


def test_regularity_is_listed_once_and_installs_no_chain(monkeypatch):
    # is_regular lists every group once and installs no chain; a later
    # chain reuses that listing, so a regular group takes the base [0]
    # with no Schreier-Sims.  A group given a base lists too, once, and
    # its listing agrees with its chain
    listed = []
    prop = PermGroup.__dict__["_listed_regular"]
    listing = prop.func

    def counted(G):
        listed.append(id(G))
        return listing(G)

    def raising(*args, **kwargs):
        raise AssertionError("listed or ran Schreier-Sims")

    monkeypatch.setattr(prop, "func", counted)
    regular = [regular_representation(spec, "right").group
               for spec in (GroupSpec.cyclic(2), GroupSpec.dihedral(16),
                            GroupSpec.q8())]
    # of order n but intransitive; semiregular; neither
    others = [PermGroup(4, [perm((0, 1), n=4), perm((2, 3), n=4)]),
              PermGroup(6, [perm((0, 1, 2), (3, 4, 5), n=6)]),
              PermGroup.symmetric(4)]
    groups = regular + others
    answers = [True] * len(regular) + [False] * len(others)
    for _ in range(2):
        assert [G.is_regular() for G in groups] == answers
        assert not any("_chain" in vars(G) for G in groups)
    with monkeypatch.context() as m:
        m.setattr(_Chain, "schreier_sims", raising)
        assert [G.order for G in regular] == [2, 32, 8]
    assert [G._chain.base for G in regular] == [[0]] * len(regular)
    assert [G.order for G in others] == [4, 3, 24]
    assert listed == [id(G) for G in groups]
    # a regular_subgroups representative, the k_closure of a regular
    # group, and a closure that is not regular
    based = [regular_subgroups(inner_holomorph(GroupSpec.frobenius(5, 4)),
                               GroupSpec.dicyclic(5))[0],
             k_closure(regular[1], 2), k_closure(others[1], 2)]
    assert all(G._base is not None for G in based)
    del listed[:]
    for _ in range(2):
        assert [G.is_regular() for G in based] == [True, True, False]
    assert listed == [id(G) for G in based]
    assert [G.is_transitive() and G.order == G.degree for G in based] \
        == [True, True, False]
    trivial = [PermGroup.trivial(1), PermGroup.trivial(0),
               PermGroup.trivial(3)]
    assert [G.is_regular() for G in trivial] == [True, False, False]
    assert [G.order for G in trivial] == [1, 1, 1]
