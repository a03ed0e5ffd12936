"""Regular-subgroup conjugacy machinery and the non-CI witness pipeline.

The central question: given an ambient permutation group A (typically the
automorphism group of a combinatorial structure) and an abstract group,
are all regular copies of that group inside A conjugate?  A single
conjugacy class means every isomorphism between the corresponding
structures is realized by a relabeling; two or more classes produce a
witness pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import prod
from operator import itemgetter

from .blocks import (BlockSystem, action_on_blocks, all_block_systems,
                     classify_block_system, pullback_system, verify_tower)
from .closures import check_budget, k_closure
from .perm import (BRUTE_FORCE_CAP, CapExceededError, PermGroup, Permutation,
                   _Chain, _is_power_of, _is_prime, _unchecked, is_normal_in,
                   orbit, prime_factors, sylow_subgroup)
from .zoo import (MAX_SPEC_ORDER, _by_order, _table_profile, cayley_table,
                  group_in_family_R, inner_holomorph, isomorphism_test,
                  regular_representation)


class CiVerdict:
    """Outcome of the regular-subgroup conjugacy test on one ambient group:
    status is ci_for_this_structure, not_ci_witness or no_regular_copy."""

    def __init__(self, status, witness, classes, transcript):
        self.status = status
        self.witness = witness  # pair of nonconjugate regular subgroups
        self.classes = classes
        self.transcript = transcript

    def to_json(self):
        wit = None
        if self.witness is not None:
            wit = [g.to_json() for g in self.witness[0].generators], \
                  [g.to_json() for g in self.witness[1].generators]
            wit = {"first": wit[0], "second": wit[1]}
        return {"status": self.status, "witness": wit,
                "classes": self.classes, "transcript": self.transcript}


class TowerResult:
    """A conjugator plus the chain of normal block systems it produces."""

    def __init__(self, conjugator, tower, ratios, exceptional_case,
                 transcript):
        self.conjugator = conjugator
        self.tower = tower  # B_0 (singletons) up to B_m (one block), inclusive
        self.ratios = ratios  # consecutive block-size ratios, length m
        self.exceptional_case = exceptional_case
        self.transcript = transcript

    def to_json(self):
        return {"conjugator": self.conjugator.to_json(),
                "tower": [bs.to_json() for bs in self.tower],
                "ratios": list(self.ratios),
                "exceptional_case": self.exceptional_case,
                "transcript": self.transcript}


def _pack(n):
    """The compact form of an image row of degree n: bytes up to 256
    points, the tuple itself above."""
    return bytes if n <= 256 else tuple


def _right_multiplier(n):
    """g -> (x -> x * g) on rows packed by _pack(n), x * g being x
    gathered at g: one translate of g by x padded to a 256-byte table,
    or one gather on tuples."""
    if _pack(n) is tuple:
        return lambda g: itemgetter(*g)
    pad = bytes(range(n, 256))
    return lambda g: lambda x: g.translate(x + pad)


def _element_keys(H):
    return frozenset(map(_pack(H.degree), (g.images for g in H.elements())))


def _conjugation(c):
    """h -> c^-1 h c on image rows packed by _pack: h gathered at c, then
    c^-1 gathered at that, as (c^-1 h c)(x) = c^-1(h(c(x))).  On bytes
    each gather is one translate: c's row by h padded to 256 entries,
    then that row by c^-1's table.  c is not the identity, so its degree
    is at least 2 and a gather at c is a tuple."""
    n = c.degree
    pack = _pack(n)
    row, cinv = pack(c.images), pack(c.inverse().images)
    if pack is tuple:
        at_c = itemgetter(*row)
        return lambda h: itemgetter(*at_c(h))(cinv)
    pad = bytes(range(n, 256))
    table = cinv + pad
    return lambda h: row.translate(h + pad).translate(table)


def _conjugate_key(key, conjugation):
    return frozenset(map(conjugation, key))


def _breadth_first(start, moves, act, identity):
    """Each state reachable from start, in breadth-first discovery order,
    with a word w in the generators reaching it: for each pair (g, move)
    in moves, act(state, move) is reached by w * g.  More than
    BRUTE_FORCE_CAP states raise CapExceededError."""
    yield start, identity
    seen = {start}
    queue = [(start, identity)]
    for state, w in queue:
        for g, move in moves:
            image = act(state, move)
            if image in seen:
                continue
            seen.add(image)
            if len(seen) > BRUTE_FORCE_CAP:
                raise CapExceededError("orbit exceeds the cap")
            wg = w * g
            yield image, wg
            queue.append((image, wg))


def _class_walk(A, R, T):
    """For each member R^c of R's class, one per right coset of R's
    normalizer in A, in breadth-first order under A's generators: c when
    R^c = T, else None."""
    Tkeys = _element_keys(T)
    moves = [(g, _conjugation(g)) for g in A.generators]
    return (c if key == Tkeys else None
            for key, c in _breadth_first(_element_keys(R), moves,
                                         _conjugate_key,
                                         Permutation.identity(A.degree)))


def _base_image_search(A, R, T):
    """The candidate count for regular R and T, and for each candidate
    the c in A it gives with R^c = T, or None.

    If R^c = T, some c fixes 0, and m = c^-1 is the point map
    r(0) -> phi(r)(0) of the isomorphism phi(r) = c^-1 r c.  A candidate
    phi sends R's greedy generators to same-order elements of T, by
    their labels in the product tables.  Its base images under A's chain
    are phi of one word per base point; the one m in A with them is
    accepted when m g m^-1 = phi(g) for each generator g.
    """
    ta, tb = cayley_table(R), cayley_table(T)
    orders, gens, span, _ = _table_profile(ta)
    by_order = _by_order(_table_profile(tb)[0])
    choices = [by_order.get(orders[g], []) for g in gens]
    words = {0: ()}
    for x in span:  # breadth-first, so x has its word already
        for i, g in enumerate(gens):
            words.setdefault(ta[x][g], words[x] + (i,))
    chain = A._chain
    base_words = [words[b] for b in chain.base]
    at_gens = [itemgetter(*ta[g]) for g in gens]

    def conjugator(images):
        base_images = []
        for word in base_words:
            y = 0
            for i in word:
                y = tb[y][images[i]]
            base_images.append(y)
        m = chain.element_with_base_images(base_images)
        if m is None:
            return None
        # m g m^-1 = phi(g) <=> m * g = phi(g) * m, as gathers
        after = itemgetter(*m.images)
        if all(at(m.images) == after(tb[h]) for at, h in zip(at_gens, images)):
            return m.inverse()
        return None

    return prod(map(len, choices)), map(conjugator,
                                        itertools.product(*choices))


def are_conjugate_subgroups(A, R, T):
    """Some c in A with R^c = T, or None after an exhaustive search.

    A normal R is conjugate only to itself, which A's generators show
    with |gens A| * |gens R| membership tests, so no candidate is tried.
    Otherwise, for regular R and T, each isomorphism candidate is tried
    by its base images (see _base_image_search) when there are at most
    |A| of them; otherwise a breadth-first search walks R's class under
    A's generators, keyed by element sets, one member per right coset of
    the normalizer of R in A.  The smaller of those bounds must be within
    BRUTE_FORCE_CAP.  Either route tries every candidate before it
    answers None.
    """
    for H, name in ((R, "R"), (T, "T")):
        if not H.is_subgroup_of(A):
            raise ValueError(f"{name} is not a subgroup of the ambient group")
    regular = R.is_regular() and T.is_regular()
    if R.order != T.order:
        return None
    if R == T:
        return Permutation.identity(A.degree)
    if is_normal_in(R, A):
        # R is normal in A, so its class is {R}, and T is not R
        return None
    count, attempts = _base_image_search(A, R, T) if regular else (None, None)
    if count is None or count > A.order:
        if A.order > BRUTE_FORCE_CAP:  # the class walk's work is <= |A|
            raise CapExceededError("ambient group exceeds the cap")
        attempts = _class_walk(A, R, T)
    elif count > BRUTE_FORCE_CAP:
        raise CapExceededError("candidate count exceeds the cap")
    return next(filter(None, attempts), None)


def _semiregular_order(images):
    """The length of the cycles of a permutation of degree >= 1 when they
    all have one length, else 0."""
    seen = bytearray(len(images))
    o, x = 1, images[0]
    while x != 0:
        seen[x] = 1
        o, x = o + 1, images[x]
    for start in range(1, len(images)):
        if seen[start]:
            continue
        k, x = 1, images[start]
        while x != start:
            seen[x] = 1
            k, x = k + 1, images[x]
        if k != o:
            return 0
    return o


def regular_subgroups(A, spec):
    """Conjugacy class representatives of regular subgroups of A
    isomorphic to the given abstract group: each class's member of least
    key, in increasing key order, where H's key lists its elements' image
    tuples by image of 0, (h_1, ..., h_{n-1}).  So they depend on the set
    A only, not on its chain.

    A regular subgroup holds exactly one element sending the base point 0
    to each point y, so it is stored as a map y -> element.  Each of its
    elements is semiregular: all its cycles have one length, its order.
    So the only candidates are the elements of A whose cycles all have
    one length that occurs as an order in the group.  The search picks,
    for the least point y not yet reached, each candidate with g(0) = y
    by increasing image tuple, and adds it to the chosen generators.  Two
    leaves first differ at such a y, every h_x with x < y shared, so the
    leaves come in increasing key order.  The elements with g(0) = y form
    the coset u_y A_0 of the stabilizer A_0 of 0; it is listed from a
    chain with base point 0 when the search first reaches y, so A itself
    is never listed.
    A subgroup is the closure of its generators under right
    multiplication, so the closure grows incrementally: every old element
    times the new generator, then every new element times every
    generator, until nothing new appears.  Such a product lies in A, and
    its cycles are measured the first time it appears.  Two elements with
    one image of 0, a product that is no candidate, or more elements of
    some order than the group has, end the branch.  Only a complete
    assignment outside the conjugacy classes already decided goes to the
    isomorphism test, on its product table; its class is then decided,
    and only an accepted one becomes a PermGroup, with a stabilizer chain
    built on the known base [0] without Schreier-Sims.
    Every element the search meets, from the rows of A_0 to the members
    of decided classes, is an image row packed by _pack, and a product is
    one call of _right_multiplier's map.  Packed rows order as their
    image tuples do, so the search order and the representatives do not
    depend on the packing.
    """
    n = A.degree
    if n != spec.size:
        raise ValueError("degree of A must equal the order of the spec")
    if A.order > BRUTE_FORCE_CAP:
        raise CapExceededError(
            f"group order {A.order} exceeds cap {BRUTE_FORCE_CAP}")
    table = cayley_table(regular_representation(spec, "left").group)
    profile = _table_profile(table)
    hist = Counter(profile[0])
    chain = A._chain
    if chain.base[:1] != [0]:  # the cosets of A_0 need 0 first in the base
        chain = _Chain.schreier_sims(n, A.generators, base_hint=(0,))
    pack, times = _pack(n), _right_multiplier(n)
    level0 = chain.transversals[0]
    # h -> u * h for each h in A_0
    at_stabilizer = [times(pack(h.images)) for h in chain.elements(1)]
    orders = {}  # row of an element of A -> its order, 0 if no candidate

    def candidate_order(row):
        o = orders.get(row)
        if o is None:
            o = _semiregular_order(row)
            o = orders[row] = o if hist.get(o, 0) > 0 else 0
        return o

    by_image = {}  # y -> the candidates g with g(0) = y, sorted

    def candidates(y):
        if y not in by_image:
            u = level0.get(y)  # None when y is outside the orbit of 0
            coset = ()
            if u is not None:
                u = pack(u.images)
                coset = (at(u) for at in at_stabilizer)
            by_image[y] = sorted(g for g in coset if candidate_order(g))
        return by_image[y]

    conj_gens = [_conjugation(g) for g in A.generators]
    is_spec = isomorphism_test(table, profile)
    reps = []
    seen_conjugates = set()

    def extend(assigned, counts, gens, g):
        """The closure of assigned (closed under gens, each a map that
        multiplies on the right) with g added, and its order counts; None
        on a regularity or histogram conflict."""
        old = list(assigned.values())
        assigned = dict(assigned)
        counts = dict(counts)
        at_g = times(g)
        gens = gens + (at_g,)
        new = []
        # the second part reads new while the loop below appends to it
        products = itertools.chain(map(at_g, old),
                                   (s(x) for x in new for s in gens))
        for p in products:
            w = p[0]
            cur = assigned.get(w)
            if cur is None:
                o = candidate_order(p)
                if not o:
                    return None
                c = counts.get(o, 0) + 1
                if c > hist.get(o, 0):
                    return None
                counts[o] = c
                assigned[w] = p
                new.append(p)
            elif cur != p:
                return None
        return assigned, counts, gens

    def leaf(assigned):
        key = frozenset(assigned.values())
        if key in seen_conjugates:
            return
        if is_spec([assigned[y] for y in range(n)]):
            # base [0]: the elements are a strong set, assigned its transversal
            reps.append(PermGroup(n, (_unchecked(tuple(row))
                                      for row in assigned.values()),
                                  base=[0]))
        # conjugates of a rejected subgroup are rejected too
        seen_conjugates.update(orbit(key, conj_gens, _conjugate_key))

    # An explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, and it would keep every element the
    # search met alive until the next full garbage collection.  Branches are pushed
    # in reverse, so they are taken in candidates order.
    stack = [({0: pack(range(n))}, {1: 1}, ())]
    while stack:
        assigned, counts, gens = stack.pop()
        if len(assigned) == n:
            leaf(assigned)
            continue
        y = min(x for x in range(n) if x not in assigned)
        grown = [extend(assigned, counts, gens, g) for g in candidates(y)]
        stack.extend(s for s in reversed(grown) if s is not None)
    return reps


def babai_check(A, spec):
    """One conjugacy class of regular copies means the structure behind A
    is a CI-object for this group; two classes give a witness pair.  Both
    readings hold only when A is the automorphism group of a structure,
    that is, when A is k-closed for the arity k asked about: one class in
    A proves nothing when A^(k) holds more, nor two when it holds fewer."""
    transcript = []
    reps = regular_subgroups(A, spec)
    transcript.append({"event": "regular_subgroup_classes", "count": len(reps)})
    if not reps:
        # the search is exhaustive, so no class means no copy at all
        return CiVerdict("no_regular_copy", None, 0, transcript)
    if len(reps) == 1:
        return CiVerdict("ci_for_this_structure", None, 1, transcript)
    transcript.append({"event": "witness_pair",
                       "orders": [reps[0].order, reps[1].order]})
    return CiVerdict("not_ci_witness", (reps[0], reps[1]), len(reps),
                     transcript)


def holomorph_witness(spec):
    """Run the full witness pipeline on the inner holomorph A of a group.

    Takes C = A^(3) once, reads from it whether A is 3-closed, and asks
    whether the left and right copies are conjugate in C.  C is the
    automorphism group of a ternary structure that both copies act on
    regularly, so nonconjugate copies certify a non-CI ternary structure
    (Babai's lemma), whether A is 3-closed or not.
    """
    check_budget(spec.size, 3)
    A = inner_holomorph(spec)
    C = k_closure(A, 3)
    GL = regular_representation(spec, "left").group
    GR = regular_representation(spec, "right").group
    c = are_conjugate_subgroups(C, GL, GR)
    return {"holomorph_order": A.order,
            "is_3_closed": C.order == A.order,
            "left_right_conjugate": c is not None}


def _moved_labels(labels, at_g):
    """The block labels of the points after g^-1 moves a partition: the
    labels gathered at g's images, renumbered by first occurrence."""
    moved = at_g(labels)
    first = {b: i for i, b in enumerate(dict.fromkeys(moved))}
    return tuple(map(first.__getitem__, moved))


def partition_transporter(ambient, source, target):
    """Some w in ambient with w^-1(source) = target, or None.

    Breadth-first search over the orbit of the source partition; states
    are the points' block indices, blocks numbered by least point, edges
    are generators, and exhausting the orbit certifies that no
    transporter exists.  Generators are not the identity, so their
    degree is at least 2 and a gather at their images is a tuple.
    """
    want = tuple(target.block_index_of())
    moves = [(g, itemgetter(*g.images)) for g in ambient.generators]
    return next((w for labels, w in _breadth_first(
        tuple(source.block_index_of()), moves, _moved_labels,
        Permutation.identity(ambient.degree)) if labels == want), None)


def align_sylow_orbits(R, T, p):
    """A conjugator making the Sylow p-orbit partitions of R and T agree.

    Returns d in <R, T> such that the orbits of a Sylow p-subgroup of T^d
    coincide with the orbits of a Sylow p-subgroup of R; those shared
    orbits then form a normal block system of <R, T^d>.  None means the
    entire partition orbit was searched without a match.
    """
    if not (_is_prime(p) and p % 2 == 1):
        raise ValueError("p must be an odd prime")
    if R.order % p != 0:
        raise ValueError("p must divide the group order")
    tables = R._regular_rows(), T._regular_rows()
    if None in tables:
        raise ValueError("R and T must be regular")
    T = PermGroup(T.degree, T.generators, base=[0])  # see block_tower_search
    return _align_sylow_orbits(R, T, p, _joint(R, T, *tables))[1]


def _joint(R, T, ta, tb):
    """<R, T> for regular R and T with Cayley tables ta and tb, refused
    unless they are isomorphic and it is within the element cap."""
    if not isomorphism_test(tb)(ta):
        raise ValueError("R and T must be isomorphic")
    ambient = PermGroup(R.degree, list(R.generators) + list(T.generators))
    if ambient.order > BRUTE_FORCE_CAP:
        raise CapExceededError("ambient group exceeds the cap")
    return ambient


def _align_sylow_orbits(R, T, p, ambient):
    """R's Sylow p-orbit partition and align_sylow_orbits on checked
    input, ambient being <R, T>."""
    PR = BlockSystem(R.degree, sylow_subgroup(R, p).orbits())
    PT = BlockSystem(T.degree, sylow_subgroup(T, p).orbits())
    # orbits of (T_p)^d are d^-1 applied to the orbits of T_p
    return PR, partition_transporter(ambient, PT, PR)


def canonical_ratio_patterns(order):
    """The admissible block-size ratio sequences for a group of this order.

    The main pattern lists the primes of the order in nonincreasing order.
    The exceptional patterns replace the tail when a quotient of order 12
    or 24 forces blocks of size 4, or an order-24 quotient with a cyclic
    Sylow 2-subgroup interleaves a 2 before the 3.  Returns a dict
    mapping ratio tuple -> tag (None for the main pattern).
    """
    primes = prime_factors(order)
    e = primes.count(2)
    odd = sorted((q for q in primes if q != 2), reverse=True)
    patterns = {tuple(odd) + (2,) * e: None}
    if 3 in odd:
        head = tuple(q for q in odd if q != 3)
        if e == 2:
            patterns[head + (4, 3)] = "dicyclic_quotient"
        if e == 3:
            patterns[head + (2, 3, 2, 2)] = "z3_by_z8_quotient_full"
            patterns[head + (2, 4, 3)] = "z3_by_z8_quotient_short"
            patterns[head + (4, 3, 2)] = "z3_by_z8_quotient_short"
    return patterns


def _two_group_tail(R, T, ambient, transcript):
    """A conjugator d putting T^d in a Sylow 2-subgroup of ambient = <R, T>
    together with R, for R of 2-power order; <R, T^d> is then a 2-group.
    The identity when ambient is a 2-group already."""
    if _is_power_of(ambient.order, 2):
        return Permutation.identity(R.degree)
    P = sylow_subgroup(ambient, 2, containing=R)
    Pkeys = {g.images for g in P.elements()}
    for d in ambient.elements():
        dinv = d.inverse()
        if all((dinv * t * d).images in Pkeys for t in T.generators):
            transcript.append({"event": "two_group_conjugated",
                               "conjugator": list(d.images)})
            return d
    raise RuntimeError("no conjugate of T inside the chosen Sylow")


def _descend(R, T, ambient, transcript):
    """Recursive tower construction; ambient is <R, T>.

    Each level picks a conjugator delta, a normal block system of
    joint = <R, T^delta> and a tag, by the first rule that applies:
    align the Sylow p-orbits for the largest odd prime p dividing |R|;
    failing that, take a normal system of <R, T> itself (delta = 1, see
    _exceptional_descent); for R of 2-power order, conjugate T into a
    Sylow 2-subgroup with R and take the cycles of a central involution
    of the 2-group joint.  Then R and T^delta act on the blocks, the
    quotient pair descends, and its conjugator lifts back into joint.

    Returns (conjugator c, proper nontrivial systems of <R, T^c>
    ascending, exceptional tag or None), or three Nones when the fallback
    finds no system.
    """
    n = R.degree
    if len(prime_factors(n)) < 2:  # no proper nontrivial system
        return Permutation.identity(n), [], None
    odd = sorted({q for q in prime_factors(R.order) if q != 2}, reverse=True)
    tag = None
    if not odd:
        delta = _two_group_tail(R, T, ambient, transcript)
    else:
        base, delta = _align_sylow_orbits(R, T, odd[0], ambient)
        if delta is not None:
            transcript.append({"event": "aligned", "prime": odd[0],
                               "block_size": base.block_size})
        else:
            transcript.append({"event": "alignment_failed", "prime": odd[0]})
            base, tag = _exceptional_descent(ambient, transcript)
            if base is None:
                return None, None, None
            delta = Permutation.identity(n)
    Td = T.conjugate(delta)
    joint = ambient if delta.is_identity() \
        else PermGroup(n, R.generators + Td.generators)
    if not odd:
        # a 2-group has a central involution; central in a transitive
        # group, it fixes no point, so its cycles are the orbits of <z>
        z = next(g for g in joint.elements() if g.order() == 2
                 and all(g * h == h * g for h in joint.generators))
        base = BlockSystem(n, z.cycles())
    act = action_on_blocks(joint, base)
    RB = PermGroup(len(base), [act.image(g) for g in R.generators])
    TB = PermGroup(len(base), [act.image(g) for g in Td.generators])
    # act.group has RB's and TB's generators: it is <RB, TB>
    cq, subtower, subtag = _descend(RB, TB, act.group, transcript)
    if cq is None:
        return None, None, None
    lift = act.preimage(cq)
    if lift is None:
        raise RuntimeError("quotient conjugator has no preimage")
    tower = [base] + [pullback_system(s, base) for s in subtower]
    return delta * lift, tower, tag or subtag


def _exceptional_descent(joint, transcript):
    """Fallback when no odd-prime alignment exists: a normal block system
    of joint = <R, T> itself, with blocks of size 4, then 2, and its tag;
    (None, None) when there is none."""
    systems = all_block_systems(joint)
    for size in (4, 2):
        for bs in systems:
            if (bs.block_size == size
                    and classify_block_system(joint, bs)["is_normal"]):
                transcript.append({"event": "exceptional_aligned",
                                   "block_size": size})
                return bs, "exceptional_block_%d" % size
    transcript.append({"event": "exceptional_failed"})
    return None, None


def block_tower_search(R, T):
    """Find g making <R, T^g> normally imprimitive all the way down.

    Descends one level at a time (see _descend): each level conjugates T
    and picks a normal block system, by Sylow p-orbit alignment for the
    largest odd prime, a normal system of <R, T> as fallback, or a
    central involution once T shares a Sylow 2-subgroup with R, then
    recurses on the action on the blocks.  The tower is checked on
    <R, T^g>, and its ratio sequence matched against the admissible
    patterns for this order.  A pair of degree over MAX_SPEC_ORDER is
    refused with CapExceededError before either group is listed.
    """
    degree = max(R.degree, T.degree)
    if degree > MAX_SPEC_ORDER:
        raise CapExceededError(f"degree {degree} exceeds cap {MAX_SPEC_ORDER}")
    # one listing of each group decides its regularity and gives its
    # table; T, regular, then takes the base [0], so that reading its
    # order lists it no second time
    tables = R._regular_rows(), T._regular_rows()
    for rows, name in zip(tables, "RT"):
        if rows is None:
            raise ValueError(f"{name} must be regular")
    T = PermGroup(T.degree, T.generators, base=[0])
    verdict = group_in_family_R(R)
    if not verdict["member"]:
        raise ValueError("R is outside the supported family")
    ambient = _joint(R, T, *tables)
    transcript = []
    c, tower, tag = _descend(R, T, ambient, transcript)
    if c is None:
        return {"status": "failure", "transcript": transcript}
    n = R.degree
    full = [BlockSystem.singletons(n)] + tower
    if n > 1:  # on one point the singletons are already the one block
        full.append(BlockSystem.one_block(n))
    check = verify_tower(
        PermGroup(n, R.generators + T.conjugate(c).generators), full)
    if not (check["m_step"] and check["normal"]):
        return {"status": "failure", "transcript": transcript,
                "verify": check}
    ratios = check["index_sequence"]
    patterns = canonical_ratio_patterns(R.order)
    if tuple(ratios) in patterns:
        tag = patterns[tuple(ratios)] or tag
    else:
        transcript.append({"event": "pattern_mismatch", "ratios": ratios})
    return TowerResult(c, full, ratios, tag, transcript)

