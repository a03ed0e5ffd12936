"""The four benchmark workloads: inputs built from a seed, and their checks.

``BUILDERS[workload](pkg, seed)`` returns a list of ``(name, job)`` pairs.
Calling ``job()`` runs one timed job and returns ``(answer, ok)``: the
answer is a JSON-ready value that does not depend on the seed, and ``ok``
says whether every check on the job passed.

Every input except in ``reproduce`` is conjugated by a seeded random
relabeling of the points, and every checked answer is invariant under
relabeling, so the fixed answers below hold for any seed.  Library
functions are looked up on ``pkg`` at call time, so the timers that
``tracing.install`` binds into the package are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from math import factorial
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


def relabeling(pkg, rng, n):
    """A uniformly random permutation of {0, ..., n-1}."""
    points = list(range(n))
    rng.shuffle(points)
    return pkg.perm.Permutation(points)


def relabel_gens(gens, c):
    """The generators conjugated by c, as c^-1 g c."""
    cinv = c.inverse()
    return [cinv * g * c for g in gens]


def relabel(pkg, G, rng):
    """G conjugated by a seeded random relabeling of its points."""
    return G.conjugate(relabeling(pkg, rng, G.degree))


def random_word(rng, gens, length):
    w = type(gens[0]).identity(gens[0].degree)
    for _ in range(length):
        w = w * rng.choice(gens)
    return w


def body_sha256(report):
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------- reproduce

def run_claim(pkg, claim, seed):
    """Exit code and report body of ``cayleykit reproduce <claim>``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pkg.cli.main(["reproduce", claim, "--seed", str(seed)])
    return code, json.loads(out.getvalue())["report"]


def _claim_job(pkg, claim, seed, want_sha):
    def job():
        code, report = run_claim(pkg, claim, seed)
        ok = (code == 0 and report["pass"] is True
              and (want_sha is None or body_sha256(report) == want_sha))
        return {"exit": code, "pass": report["pass"]}, ok
    return job


def reproduce(pkg, seed):
    """Each named claim through the CLI; bodies must match the recorded
    hashes.  Only tower-dic3 reads the seed; for a seed with no recorded
    hash its pass flag is the check."""
    expected = json.loads(EXPECTED_FILE.read_text())
    jobs = []
    for claim in sorted(pkg.repro.CLAIMS):
        if claim == "tower-dic3":
            want = expected["tower_dic3_sha256"].get(str(seed))
        else:
            want = expected["claim_sha256"][claim]
        jobs.append((claim, _claim_job(pkg, claim, seed, want)))
    return jobs


# ----------------------------------------------------------------- chain

def _symmetric_gens(pkg, n):
    P = pkg.perm.Permutation
    return [P.from_cycles(n, [(0, 1)]), P.from_cycles(n, [tuple(range(n))])]


def _alternating_gens(pkg, n):
    """A 3-cycle and an n-cycle; they generate A_n for odd n."""
    P = pkg.perm.Permutation
    return [P.from_cycles(n, [(0, 1, 2)]), P.from_cycles(n, [tuple(range(n))])]


def _wreath_gens(pkg, m, k):
    """S_m wr S_k on m*k points, blocks {0..m-1}, {m..2m-1}, ..."""
    P = pkg.perm.Permutation
    n = m * k
    swap = list(range(n))
    for i in range(m):
        swap[i], swap[m + i] = m + i, i
    return [P.from_cycles(n, [(0, 1)]), P.from_cycles(n, [tuple(range(m))]),
            P(swap), P([(x + m) % n for x in range(n)])]


def _odd_permutation(pkg, rng, n):
    p = relabeling(pkg, rng, n)
    if sum(len(c) - 1 for c in p.cycles()) % 2 == 0:
        p = p * pkg.perm.Permutation.from_cycles(n, [(0, 1)])
    return p


# (name, degree, generator builder, order, alternating?, relabeled copies).
# Build time varies with the relabeling: the work of one build varies by
# 12-22% (one standard deviation) for these wreath products and A_13, by
# 28% for S_16 and by more for S_n of lower degree.  Many relabeled copies
# of groups with low variation keep a run's figures steady from one seed to
# the next; one S_n family stays in for the symmetric-group case.
CHAIN_GROUPS = (
    ("S4wrS5", 20, lambda pkg: _wreath_gens(pkg, 4, 5),
     factorial(4) ** 5 * factorial(5), False, 5),
    ("S3wrS6", 18, lambda pkg: _wreath_gens(pkg, 3, 6),
     factorial(3) ** 6 * factorial(6), False, 8),
    ("S4wrS4", 16, lambda pkg: _wreath_gens(pkg, 4, 4),
     factorial(4) ** 4 * factorial(4), False, 12),
    ("A13", 13, lambda pkg: _alternating_gens(pkg, 13), factorial(13) // 2,
     True, 14),
    ("S16", 16, lambda pkg: _symmetric_gens(pkg, 16), factorial(16), False, 2),
)
CHAIN_SIFTS = 50  # sifted words per relabeled copy, plus as many odd ones
CHAIN_WORD_LENGTH = 30


def _chain_job(pkg, n, copies, order):
    def job():
        orders = set()
        members = rejected = 0
        for gens, words, odd in copies:
            G = pkg.perm.PermGroup(n, gens)
            orders.add(G.order)
            members += sum(G.contains(w) for w in words)
            rejected += sum(not G.contains(p) for p in odd)
        ok = (orders == {order} and members == len(copies) * CHAIN_SIFTS
              and rejected == sum(len(odd) for _, _, odd in copies))
        return {"orders": sorted(orders), "members": members,
                "rejected": rejected}, ok
    return job


def chain(pkg, seed):
    """Schreier-Sims from generators, then sifting, on relabeled copies."""
    rng = random.Random(seed)
    jobs = []
    for name, n, make_gens, order, alternating, count in CHAIN_GROUPS:
        copies = []
        for _ in range(count):
            gens = relabel_gens(make_gens(pkg), relabeling(pkg, rng, n))
            words = [random_word(rng, gens, CHAIN_WORD_LENGTH)
                     for _ in range(CHAIN_SIFTS)]
            odd = ([_odd_permutation(pkg, rng, n) for _ in range(CHAIN_SIFTS)]
                   if alternating else [])
            copies.append((gens, words, odd))
        jobs.append((name, _chain_job(pkg, n, copies, order)))
    return jobs


# --------------------------------------------------------------- closure

def _closure_cases(pkg):
    """(name, group builder, k, closure order)."""
    spec = pkg.zoo.GroupSpec

    def regular(s):
        return lambda: pkg.zoo.regular_representation(s, "left").group

    def holomorph(s):
        return lambda: pkg.zoo.inner_holomorph(s)

    # The 2- and 3-closure of a regular group is the group itself; the
    # 1-closure of a transitive group is the full symmetric group.
    return (
        ("cyclic64-k3", regular(spec.cyclic(64)), 3, 64),
        ("dihedral24-k3", regular(spec.dihedral(24)), 3, 48),
        ("dicyclic11-k3", regular(spec.dicyclic(11)), 3, 44),
        ("cyclic252-k2", regular(spec.cyclic(252)), 2, 252),
        ("dihedral100-k2", regular(spec.dihedral(100)), 2, 200),
        ("frobenius13_4-k2", regular(spec.frobenius(13, 4)), 2, 52),
        ("hol-frobenius5_4-k2", holomorph(spec.frobenius(5, 4)), 2,
         829_440_000),
        ("hol-frobenius5_4-k3", holomorph(spec.frobenius(5, 4)), 3, 400),
        ("hol-frobenius7_3-k3", holomorph(spec.frobenius(7, 3)), 3, 441),
        ("cyclic12-k1", regular(spec.cyclic(12)), 1, factorial(12)),
    )


def _closure_job(pkg, G, k, order):
    def job():
        C = pkg.closures.k_closure(G, k)
        ok = C.order == order and all(C.contains(g) for g in G.generators)
        return {"order": C.order}, ok
    return job


def closure(pkg, seed):
    """k-closures near the top of the degree budgets."""
    rng = random.Random(seed)
    return [(name, _closure_job(pkg, relabel(pkg, make(), rng), k, order))
            for name, make, k, order in _closure_cases(pkg)]


# ------------------------------------------------------------- conjugacy

# (p, n) of the Frobenius group, and the number of classes of regular
# copies of it in its inner holomorph, recorded on the seed commit.
BABAI_CASES = (((13, 4), 4), ((7, 3), 4), ((5, 4), 4))
# (p, n) for cor2_groups(p, n, 2, 1), and the order of the ambient the two
# groups generate.
COR2_CASES = (((13, 4), 2704), ((13, 6), 2028))
TOWER_SAMPLES = 10
TOWER_WORD_LENGTH = 40


def _babai_job(pkg, A, spec, classes):
    def job():
        verdict = pkg.ci.babai_check(A, spec)
        ok = (verdict.status == "not_ci_witness"
              and verdict.classes == classes)
        return {"status": verdict.status, "classes": verdict.classes}, ok
    return job


def _cor2_job(pkg, amb, G1, G2, order):
    def job():
        conjugator = pkg.ci.are_conjugate_subgroups(amb, G1, G2)
        ok = amb.order == order and conjugator is None
        return {"ambient_order": amb.order,
                "conjugate": conjugator is not None}, ok
    return job


def _tower_job(pkg, R, T, patterns):
    def job():
        result = pkg.ci.block_tower_search(R, T)
        ok = (isinstance(result, pkg.ci.TowerResult)
              and tuple(result.ratios) in patterns)
        return {"canonical_tower": ok}, ok
    return job


def conjugacy(pkg, seed):
    """Certified conjugacy questions on large ambients."""
    rng = random.Random(seed)
    zoo = pkg.zoo
    jobs = []
    for (p, n), classes in BABAI_CASES:
        spec = zoo.GroupSpec.frobenius(p, n)
        A = relabel(pkg, zoo.inner_holomorph(spec), rng)
        jobs.append((f"babai-frobenius{p}_{n}",
                     _babai_job(pkg, A, spec, classes)))
    for (p, n), order in COR2_CASES:
        G1, G2 = zoo.cor2_groups(p, n, 2, 1)
        c = relabeling(pkg, rng, G1.degree)
        G1, G2 = G1.conjugate(c), G2.conjugate(c)
        amb = pkg.perm.PermGroup(G1.degree,
                                 list(G1.generators) + list(G2.generators))
        jobs.append((f"cor2-{p}_{n}", _cor2_job(pkg, amb, G1, G2, order)))
    R, W = pkg.repro.dic3_partition_stabilizer()
    patterns = pkg.ci.canonical_ratio_patterns(R.order)
    for i in range(TOWER_SAMPLES):
        w = random_word(rng, list(W.generators), TOWER_WORD_LENGTH)
        c = relabeling(pkg, rng, R.degree)
        jobs.append((f"tower-dic3-{i}",
                     _tower_job(pkg, R.conjugate(c),
                                R.conjugate(w).conjugate(c), patterns)))
    return jobs


BUILDERS = {"reproduce": reproduce, "chain": chain, "closure": closure,
            "conjugacy": conjugacy}
WORKLOADS = tuple(BUILDERS)
