"""Constructors for the concrete groups the library works with.

A GroupSpec is a symbolic description of an abstract group together with a
canonical element labeling, so regular representations and holomorphs get
reproducible point numbering.

Every spec multiplies by one rule over a list of factor rows, each row a
metacyclic (a, b, r, t) with a place value.  In a row, the element (x, i),
with x in Z_a and i in Z_b, has digit x*b + i, and

    (x1, i1)(x2, i2) = (x1 + r^i1*x2 + t*[i1 + i2 >= b] mod a, i1 + i2 mod b).

A label is the sum of its digits times their place values, and a product is
taken digit by digit.  Each row gives the generators b (if a > 1) and 1 (if
b > 1), times its place value.

    kind                          rows (a, b, r, t)
    cyclic(n)                     (n, 1, 1, 0)
    dihedral(m)                   (m, 2, -1, 0)
    dicyclic(m), odd m            (m, 4, -1, 0)
    dicyclic(m), even m           (2m, 2, -1, m)
    zn_semidirect_y(n, oy, act)   (n, oy, act, 0)
    frobenius(p, n)               (p, n, omega, 0)
    q8                            (4, 2, -1, 2)
    elementary_abelian_2(e)       e rows (2, 1, 1, 0)
    direct_product(factors)       the factors' rows, first factor most
                                  significant

omega is the smallest primitive n-th root of unity mod p.  For even m,
dicyclic(m) is the generalized quaternion group <a, x | a^2m = 1,
x^2 = a^m, x^-1 a x = a^-1> of order 4m, and dicyclic(2) is q8 label for
label.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import gcd, prod

from .perm import (PermGroup, Permutation, _is_power_of, _is_prime, orbit,
                   prime_factors)

# The integer parameters of each GroupSpec kind except direct_product, in
# the order that the constructors and the CLI's name syntax take them.
SPEC_PARAMS = {"cyclic": ("n",), "elementary_abelian_2": ("e",), "q8": (),
               "dihedral": ("m",), "dicyclic": ("m",),
               "zn_semidirect_y": ("n", "order_of_y", "action"),
               "frobenius": ("p", "n")}

# The largest spec order: the first read of the order of a regular
# representation or holomorph builds its stabilizer chain, which takes
# seconds at this order (see the README's caps section).
MAX_SPEC_ORDER = 2048

# The row (a, b, r, t) of each metacyclic kind, from its parameters; see the
# module docstring.  frobenius leaves r (omega) None: omega needs p prime,
# and _validate reads size before it checks that.
_METACYCLIC = {
    "cyclic": lambda p: (p["n"], 1, 1, 0),
    "dihedral": lambda p: (p["m"], 2, -1, 0),
    "dicyclic": lambda p: ((p["m"], 4, -1, 0) if p["m"] % 2
                           else (2 * p["m"], 2, -1, p["m"])),
    "zn_semidirect_y": lambda p: (p["n"], p["order_of_y"], p["action"], 0),
    "frobenius": lambda p: (p["p"], p["n"], None, 0),
    "q8": lambda p: (4, 2, -1, 2),
}


class GroupSpec:
    """Symbolic group with elements 0..|G|-1 and an explicit product rule."""

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        self._validate()
        # Factor rows (place, a*b, a, b, [r^i mod a for i in Z_b], t): the
        # digit of label g in a row is g // place % (a*b).
        if kind in _METACYCLIC:
            a, b, r, t = _METACYCLIC[kind](params)
            if r is None:
                r = self.omega()
            self._rows = [(1, a * b, a, b, [pow(r, i, a) for i in range(b)],
                           t)]
            return
        factors = (params["factors"] if kind == "direct_product"
                   else [GroupSpec.cyclic(2)] * params["e"])
        self._rows, place = [], 1
        for f in reversed(factors):
            self._rows += [(place * q, *row) for q, *row in f._rows]
            place *= f.size

    # -- constructors -----------------------------------------------------

    @classmethod
    def cyclic(cls, n):
        return cls("cyclic", n=n)

    @classmethod
    def elementary_abelian_2(cls, e):
        return cls("elementary_abelian_2", e=e)

    @classmethod
    def q8(cls):
        return cls("q8")

    @classmethod
    def dihedral(cls, m):
        return cls("dihedral", m=m)

    @classmethod
    def dicyclic(cls, m):
        return cls("dicyclic", m=m)

    @classmethod
    def direct_product(cls, factors):
        return cls("direct_product", factors=tuple(factors))

    @classmethod
    def zn_semidirect_y(cls, n, order_of_y, action):
        return cls("zn_semidirect_y", n=n, order_of_y=order_of_y,
                   action=action)

    @classmethod
    def frobenius(cls, p, n):
        return cls("frobenius", p=p, n=n)

    # -- validation and basic data ----------------------------------------

    def _validate(self):
        k, p = self.kind, self.params
        if k == "direct_product":
            names = ("factors",)
        elif isinstance(k, str) and k in SPEC_PARAMS:
            names = SPEC_PARAMS[k]
        else:
            raise ValueError(f"unknown kind {k!r}")
        for name in names:
            if name not in p:
                raise ValueError(f"{k} needs parameter {name!r}")
        for name, value in p.items():
            if name not in names:
                raise ValueError(f"{k} takes no parameter {name!r}")
            if name == "factors":
                if not (isinstance(value, tuple) and value and all(
                        isinstance(f, GroupSpec) for f in value)):
                    raise ValueError("factors must be a nonempty list of specs")
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        # bound e so that computing the order 2**e below stays cheap
        if k == "elementary_abelian_2" and not 0 <= p["e"] <= MAX_SPEC_ORDER:
            raise ValueError("exponent out of range")
        if self.size > MAX_SPEC_ORDER:
            raise ValueError(f"group order exceeds {MAX_SPEC_ORDER}")
        if k == "cyclic":
            if p["n"] < 1:
                raise ValueError("cyclic order must be positive")
        elif k == "dihedral":
            if p["m"] < 1:
                raise ValueError("dihedral parameter must be positive")
        elif k == "dicyclic":
            if p["m"] < 2:
                raise ValueError("dicyclic(m) requires m >= 2")
        elif k == "zn_semidirect_y":
            n, oy = p["n"], p["order_of_y"]
            if n < 1 or n % 2 == 0:
                raise ValueError("n must be odd")
            a = p["action"] % n
            if oy not in (2, 4, 8):
                raise ValueError("order of y must be 2, 4 or 8")
            if (a * a) % n != 1 % n:
                raise ValueError("action must square to the identity mod n")
            if a == 1 % n:
                raise ValueError(
                    "central y: rewrite as a direct product with a cyclic factor")
        elif k == "frobenius":
            pp, n = p["p"], p["n"]
            if not _is_prime(pp):
                raise ValueError("p must be prime")
            if n < 2 or (pp - 1) % n != 0:
                raise ValueError("n must divide p-1 and be at least 2")

    @property
    def size(self):
        k, p = self.kind, self.params
        if k == "elementary_abelian_2":
            return 2 ** p["e"]
        if k == "direct_product":
            return prod(f.size for f in p["factors"])
        a, b, _, _ = _METACYCLIC[k](p)
        return a * b

    # -- element arithmetic on labels --------------------------------------

    def mult(self, g, h):
        out = 0
        for place, size, a, b, powers, t in self._rows:
            x1, i1 = divmod(g // place % size, b)
            x2, i2 = divmod(h // place % size, b)
            i = i1 + i2
            if i >= b:
                out += ((x1 + powers[i1] * x2 + t) % a * b + i - b) * place
            else:
                out += ((x1 + powers[i1] * x2) % a * b + i) * place
        return out

    def inv(self, a):
        # the power of a just before the identity, label 0
        prev, acc = a, self.mult(a, a)
        while acc != 0:
            prev, acc = acc, self.mult(acc, a)
        return prev

    def generator_labels(self):
        return sorted(place * g for place, _, a, b, _, _ in self._rows
                      for g in [b] * (a > 1) + [1] * (b > 1))

    def omega(self):
        """Smallest primitive n-th root of unity mod p (frobenius only)."""
        if self.kind != "frobenius":
            raise ValueError("omega is only defined for frobenius specs")
        pp, n = self.params["p"], self.params["n"]
        for w in range(2, pp):
            if pow(w, n, pp) == 1 and all(pow(w, d, pp) != 1
                                          for d in range(1, n)):
                return w
        raise AssertionError("no primitive root found")

    def to_json(self):
        k, p = self.kind, self.params
        if k == "direct_product":
            return {"kind": k, "factors": [f.to_json() for f in p["factors"]]}
        return {"kind": k, **p}

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError(f"a spec must be a JSON object: {data!r}")
        data = dict(data)
        kind = data.pop("kind", None)
        if isinstance(data.get("factors"), list):
            data["factors"] = tuple(map(cls.from_json, data["factors"]))
        return cls(kind, **data)

    def __repr__(self):
        return f"GroupSpec({self.to_json()})"

    def __eq__(self, other):
        return isinstance(other, GroupSpec) and self.to_json() == other.to_json()


class LabeledPermGroup:
    """A permutation group whose points are labeled by GroupSpec elements."""

    def __init__(self, group, spec, side):
        self.group = group
        self.spec = spec
        self.side = side


def _translations(spec, side):
    """The left or right translations by the generator labels."""
    def act(g, x):
        return spec.mult(g, x) if side == "left" else spec.mult(x, g)
    return [Permutation(act(g, x) for x in range(spec.size))
            for g in spec.generator_labels()]


def regular_representation(spec, side="left"):
    """Left or right translation action on the element labels."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return LabeledPermGroup(PermGroup(spec.size, _translations(spec, side)),
                            spec, side)


def inner_holomorph(spec):
    """The group generated by both regular representations, <G_L, G_R>."""
    return PermGroup(spec.size, _translations(spec, "left")
                     + _translations(spec, "right"))


def holomorph_pair_permutation(spec, u, v):
    """The permutation x -> u^-1 * x * v of the element labels."""
    uinv = spec.inv(u)
    return Permutation(spec.mult(spec.mult(uinv, x), v)
                       for x in range(spec.size))


def zsigmondy_ppd(a, k):
    """Smallest primitive prime divisor of a^k - 1, or None.

    None occurs exactly for (2, 6) and for k = 2 with a + 1 a power of two.
    """
    if a < 2 or k < 2:
        raise ValueError("a and k must both be at least 2")
    lower = [a ** l - 1 for l in range(1, k)]
    return next((p for p in prime_factors(a ** k - 1)
                 if all(m % p for m in lower)), None)


def _two_group_type(orders):
    """Identify a 2-group of order <= 16 among the family's allowed types,
    from the orders of its elements."""
    order = len(orders)
    if order == 1:
        return "1"
    hist = Counter(orders)
    exponent = max(hist)
    if order == 2:
        return "z2"
    if order == 4:
        return "z4" if exponent == 4 else "z2^2"
    if order == 8:
        if exponent == 2:
            return "z2^3"
        if exponent == 8:
            return "z8"
        return "q8" if hist.get(2, 0) == 1 else "other8"
    if order == 16 and exponent == 2:
        return "z2^4"
    return f"other{order}"


FAMILY_CASE_A_TYPES = ("1", "z2", "z2^2", "z2^3", "z2^4", "z4", "q8")


def group_in_family_R(G):
    """Decide membership of an abstract group (given as permutations).

    Family members are Zn x R2 for n odd square-free and R2 one of the
    seven small 2-groups, or Zn x| <y> with o(y) in {2,4,8}, y noncentral
    and y^2 central.  Decided from one listing of G: element orders and
    commutation with G's generators.
    """
    not_member = {"member": False, "case": None, "witness": None}
    order = G.order
    odd = [q for q in prime_factors(order) if q != 2]
    if len(set(odd)) < len(odd):
        return not_member
    m = prod(odd)
    elems = G.elements()
    orders = [g.order() for g in elems]
    # the elements of odd order form a cyclic group C of order m exactly
    # when there are m of them and one has order m
    if sum(o % 2 for o in orders) != m or m not in orders:
        return not_member
    c = elems[orders.index(m)]

    def central(g):
        return all(g * h == h * g for h in G.generators)

    if central(c):
        # G = C x Q, and Q is the set of elements of 2-power order
        qtype = _two_group_type([o for o in orders if _is_power_of(o, 2)])
        if qtype in FAMILY_CASE_A_TYPES:
            return {"member": True, "case": "a",
                    "witness": {"n": m, "sylow_2": qtype}}
        if qtype == "z8":
            # Zn x Z8 arises as a subgroup/quotient of Zn x| <y> with
            # o(y) = 8, so the closed family admits it alongside case (a).
            return {"member": True, "case": "a",
                    "witness": {"n": m, "sylow_2": qtype,
                                "degenerate": "central order-8 element"}}
        return not_member
    # case (b): a cyclic Sylow 2-subgroup <y> with y^2 central and y not.
    # Every generator of every Sylow 2-subgroup gives the same answer.  y
    # needs no check that it normalizes C: C, the set of elements of odd
    # order, is closed under conjugation.
    q = order // m
    if q not in (2, 4, 8) or q not in orders:
        return not_member
    y = elems[orders.index(q)]
    if central(y * y) and not central(y):
        return {"member": True, "case": "b",
                "witness": {"n": m, "order_of_y": q}}
    return not_member


def isomorphic_to_spec(H, spec):
    """Abstract isomorphism between a regular permutation group and a spec;
    a non-regular H raises ValueError."""
    return isomorphic_groups(H, regular_representation(spec, "left").group)


def isomorphic_groups(A, B):
    """Isomorphism of two regular permutation groups, decided on their
    product tables; a non-regular A or B raises ValueError."""
    return isomorphism_test(cayley_table(B))(cayley_table(A))


def cayley_table(G):
    """The product table of a regular permutation group G.

    Row y is the image tuple of the element g_y with g_y(0) = y.  Since
    g_y * g_z sends 0 to g_y(z), rows[y][z] is the label of g_y * g_z, and
    label 0 is the identity.
    """
    rows = G._regular_rows()
    if rows is None:
        raise ValueError("a Cayley table needs a regular group")
    return rows


def _table_profile(t):
    """Element orders, greedy generators, their span in breadth-first
    order, and the fingerprint (order histogram, center size,
    derived-subgroup size) of a product table t."""
    n = len(t)

    def mul(x, s):
        return t[x][s]

    orders = []
    for row in t:  # row x multiplies by x on the left: 0, x, x^2, ...
        o, y = 1, row[0]
        while y:
            o, y = o + 1, row[y]
        orders.append(o)
    gens, span = [], [0]
    for x in sorted(range(n), key=lambda x: (-orders[x], x)):
        if len(span) == n:
            break
        if x not in span:
            gens.append(x)
            span = orbit(0, gens, mul)
    center = sum(all(t[x][g] == t[g][x] for g in gens) for x in range(n))
    # [a, b] for a generator a and every b spans the derived subgroup:
    # that span is normal, and a and b commute modulo it
    inv = [row.index(0) for row in t]
    comms = {t[t[t[inv[a]][inv[b]]][a]][b] for a in gens for b in range(n)}
    fingerprint = (tuple(sorted(Counter(orders).items())), center,
                   len(orbit(0, list(comms), mul)))
    return orders, gens, span, fingerprint


def _by_order(orders):
    """order -> the labels of the elements of that order, increasing."""
    by_order = {}
    for y, o in enumerate(orders):
        by_order.setdefault(o, []).append(y)
    return by_order


def isomorphism_test(tb, profile=None):
    """The test ta -> (is the group with product table ta isomorphic to the
    group with product table tb?), with tb's invariants computed once for
    many calls, or taken from profile, tb's _table_profile, when the
    caller has it.  Tables come from cayley_table, or are lists of rows
    packed as bytes.

    Equal fingerprints are required first.  Then each image of ta's greedy
    generators among same-order elements of tb is grown into a map over
    their span, failing on the first conflict; a bijection is accepted.
    """
    b_orders, _, _, b_fingerprint = profile or _table_profile(tb)
    by_order = _by_order(b_orders)

    def grows(ta, gens, span, images):
        """The map gens -> images grown over span by right multiplication:
        False on the first conflict, else whether it is a bijection."""
        f = {0: 0}
        pairs = list(zip(gens, images))
        for x in span:
            fx = f[x]
            for g, h in pairs:
                fy = tb[fx][h]
                if f.setdefault(ta[x][g], fy) != fy:
                    return False
        return len(set(f.values())) == len(ta)

    def test(ta):
        if len(ta) != len(tb):
            return False
        orders, gens, span, fingerprint = _table_profile(ta)
        if fingerprint != b_fingerprint:
            return False
        choices = itertools.product(*(by_order[orders[g]] for g in gens))
        return any(grows(ta, gens, span, images) for images in choices)

    return test


def cor2_groups(p, n, a, b):
    """The two explicit regular subgroups of the holomorph of a Frobenius
    group witnessing the non-CI construction for Zp x|_alpha Zn.

    Returns (G1, G2) inside inner_holomorph(frobenius(p, n)).
    """
    spec = GroupSpec.frobenius(p, n)
    if not 2 < n < p - 1:
        raise ValueError("need 2 < n < p-1")
    a %= n
    b %= n
    if gcd(a, n) == 1:
        raise ValueError("a must be a non-unit mod n (alpha non-injective)")
    if n % 2 == 0 and a % 2 != 0:
        raise ValueError("a must be even when n is even")
    if gcd(b, n) != 1:
        raise ValueError("b must be a unit mod n")
    if gcd((a - b) % n, n) != 1:
        raise ValueError("a - b must be invertible mod n")

    def F(x, i):
        return (x % p) * n + (i % n)

    g1 = [holomorph_pair_permutation(spec, F(1, 0), F(0, 0)),
          holomorph_pair_permutation(spec, F(0, a), F(0, b))]
    g2 = [holomorph_pair_permutation(spec, F(0, 0), F(1, 0)),
          holomorph_pair_permutation(spec, F(0, b), F(0, a))]
    return PermGroup(spec.size, g1), PermGroup(spec.size, g2)


def frobenius_natural_action(p, n):
    """Zp x| <omega> acting on Zp: translations and scaling by omega."""
    spec = GroupSpec.frobenius(p, n)
    w = spec.omega()
    gens = [Permutation((x + 1) % p for x in range(p)),
            Permutation((w * x) % p for x in range(p))]
    return PermGroup(p, gens)
