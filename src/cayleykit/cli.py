"""Command-line surface: construct groups, take closures, run CI checks,
search block towers, and reproduce named claims.

Exit codes: 0 pass, 1 fail, 2 usage error, 3 cap or budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .ci import TowerResult, babai_check, block_tower_search
from .closures import (DEGREE_BUDGET, BudgetExceededError, check_budget,
                       k_closure)
from .perm import CapExceededError, PermGroup, parse_group_json
from .repro import CLAIMS, run_claim
from .zoo import SPEC_PARAMS, GroupSpec, inner_holomorph, regular_representation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_NAME_RE = re.compile(r"^\s*([a-z0-9_]+)\s*(?:\(\s*([0-9,\s]*)\s*\))?\s*$")


def parse_spec(text):
    """A GroupSpec from JSON or from name syntax like 'frobenius(7,3)'."""
    text = text.strip()
    if text.startswith("{"):
        return GroupSpec.from_json(json.loads(text))
    m = _NAME_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse spec {text!r}")
    kind, args = m.group(1), m.group(2)
    args = [int(a) for a in args.split(",") if a.strip()] if args else []
    params = SPEC_PARAMS.get(kind, ())
    if kind in SPEC_PARAMS and len(args) > len(params):
        raise ValueError(f"{kind} takes {len(params)} argument(s), "
                         f"got {len(args)}")
    return GroupSpec(kind, **dict(zip(params, args)))


def _read_group(path):
    """The degree and generators in a group file.  No stabilizer chain is
    built, so a degree that cannot fit is refused before its chain runs
    for minutes."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return parse_group_json(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _group_json(G):
    return {**G.to_json(), "order": G.order}


def _emit(payload, out_path):
    text = json.dumps(payload, indent=1, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_construct(args):
    spec = parse_spec(args.spec)
    if args.holomorph:
        G = inner_holomorph(spec)
        label = "inner_holomorph"
    else:
        side = args.side or "left"
        G = regular_representation(spec, side).group
        label = f"{side}_regular"
    _emit({"spec": spec.to_json(), "construction": label,
           "group": _group_json(G)}, args.out)
    return EXIT_PASS


def cmd_closure(args):
    if args.fixture is not None:
        degree, gens = _read_group(args.fixture)
        check_budget(degree, args.k)
        G = PermGroup(degree, gens)
        source = {"fixture": args.fixture}
    else:
        spec = parse_spec(args.spec)
        check_budget(spec.size, args.k)
        G = regular_representation(spec, "left").group
        source = {"spec": spec.to_json()}
    C = k_closure(G, args.k)
    _emit({"source": source, "k": args.k,
           "closure": _group_json(C),
           "is_k_closed": C.order == G.order}, args.out)
    return EXIT_PASS


def cmd_ci_check(args):
    target = parse_spec(args.target_spec)
    spec = None
    if args.fixture is not None:
        degree, gens = _read_group(args.fixture)
    else:
        spec = parse_spec(args.spec)
        degree = spec.size
    if degree != target.size:
        raise ValueError(f"ambient degree {degree} must "
                         f"equal the target order {target.size}")
    check_budget(degree, 3)
    A = PermGroup(degree, gens) if spec is None else inner_holomorph(spec)
    # Babai's lemma needs a closed ambient, so the verdict is read in A^(3)
    C = k_closure(A, 3)
    verdict = babai_check(C, target)
    _emit({"ambient_order": A.order, "closure_order": C.order,
           "target": target.to_json(), "verdict": verdict.to_json()},
          args.out)
    return EXIT_PASS if verdict.status != "not_ci_witness" else EXIT_FAIL


def cmd_tower(args):
    first, second = (_read_group(path) for path in args.groups)
    if first[0] != second[0]:
        raise ValueError("the two groups must have the same degree")
    R, T = PermGroup(*first), PermGroup(*second)
    result = block_tower_search(R, T)
    if isinstance(result, TowerResult):
        _emit(result.to_json(), args.out)
        return EXIT_PASS
    _emit(result, args.out)
    return EXIT_FAIL


def cmd_reproduce(args):
    start = time.perf_counter()
    body = run_claim(args.claim, seed=args.seed)
    elapsed = time.perf_counter() - start
    _emit({"report": body, "wall_time_seconds": round(elapsed, 3)}, args.out)
    return EXIT_PASS if body["pass"] else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors as one JSON line on stderr, like other bad input."""

    def error(self, message):
        print(json.dumps({"error": f"{self.prog}: {message}"}),
              file=sys.stderr)
        self.exit(EXIT_USAGE)


def build_parser():
    parser = _Parser(
        prog="cayleykit",
        description="group constructions, k-closures and Cayley-isomorphism "
                    "checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a permutation group as JSON")
    p.add_argument("--spec", required=True)
    # a holomorph has no side; with no default, `--side left` counts as
    # given and is refused alongside --holomorph too
    form = p.add_mutually_exclusive_group()
    form.add_argument("--side", choices=["left", "right"])
    form.add_argument("--holomorph", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("closure", help="k-closure of a group")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec")
    source.add_argument("--fixture", help="path to a PermGroup JSON file")
    p.add_argument("--k", type=int, choices=sorted(DEGREE_BUDGET), default=2)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("ci-check",
                       help="conjugacy classes of regular subgroups")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec",
                        help="ambient = inner holomorph of this spec")
    source.add_argument("--fixture",
                        help="ambient from a PermGroup JSON file")
    p.add_argument("--target-spec", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ci_check)

    p = sub.add_parser("tower", help="block tower search for two regular "
                                     "groups from JSON files")
    p.add_argument("groups", nargs=2, metavar="GROUP_JSON")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_tower)

    p = sub.add_parser("reproduce", help="run a named claim pipeline")
    p.add_argument("claim", choices=sorted(CLAIMS))
    p.add_argument("--seed", type=int, help="sample seed; only tower-dic3 "
                   "reads it, and the other claims accept and ignore it")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_reproduce)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (CapExceededError, BudgetExceededError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
