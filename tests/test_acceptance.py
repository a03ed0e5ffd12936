"""Acceptance gate: one test per headline claim, one printed verdict line
each.

Run with -s (or read the captured output section) to see the lines.  Every
test delegates to the claim pipelines in cayleykit.repro so the CLI
`reproduce` command and this gate exercise identical code paths.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from cayleykit.repro import run_claim

# Report-body hashes recorded by the bench: the default run of every claim
# except tower-dic3, whose default seed is not recorded, and tower-dic3 at
# seeds 0-15.
EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json")
    .read_text())
EXPECTED_SHA256 = EXPECTED["claim_sha256"]

CRITERIA = [
    ("01", "example-degree-20",
     "degree-20 ambient of order 400 is 3-closed with two regular classes"),
    ("02", "cor1-p7-n3",
     "order-441 double coset ambient separates left and right copies"),
    ("03", "frobenius-2closed-p7-n3",
     "natural Frobenius action of order 21 is its own 2-closure"),
    ("04", "cor2-p13-n4",
     "degree-52 pair generates order 2704 with no conjugator"),
    ("05", "closure-chain",
     "k-closures nest and match the brute-force oracle on small degrees"),
    ("06", "zsigmondy-table",
     "primitive prime divisor exceptions match direct factorization"),
    ("07", "blocks-oracle",
     "block system lists equal the exhaustive partition scan"),
    ("08", "tower-dic3",
     "sampled dicyclic conjugates all admit canonical block towers"),
    ("09", "regular-subgroups-oracle",
     "regular subgroup class counts match the subgroup lattice scan"),
    ("10", "family-closure",
     "family membership survives block restriction and quotient"),
]


def _body_sha256(body):
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict(num, claim_id, passed):
    word = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {claim_id}: {word}", file=sys.stderr)


@pytest.mark.parametrize("num,claim_id,summary", CRITERIA,
                         ids=[c[1] for c in CRITERIA])
def test_acceptance(num, claim_id, summary):
    body = run_claim(claim_id)
    _verdict(num, claim_id, body["pass"])
    assert body["pass"], summary
    if claim_id in EXPECTED_SHA256:
        assert _body_sha256(body) == EXPECTED_SHA256[claim_id], \
            "report body differs from the recorded one"


@pytest.mark.parametrize("seed", [0, 1])
def test_tower_dic3_seeded(seed):
    body = run_claim("tower-dic3", seed=seed)
    _verdict("08", f"tower-dic3 --seed {seed}", body["pass"])
    assert body["pass"]
    assert _body_sha256(body) == EXPECTED["tower_dic3_sha256"][str(seed)], \
        "report body differs from the recorded one"
