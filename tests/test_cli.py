import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from cayleykit import ci, cli, perm
from cayleykit.cli import main, parse_spec
from cayleykit.perm import PermGroup, parse_group_json
from cayleykit.zoo import SPEC_PARAMS, GroupSpec

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
M12 = os.path.join(SRC, "cayleykit", "fixtures", "m12.json")

# JSON arrays nested deeper than the interpreter's recursion limit
DEEP = "[" * 3000 + "]" * 3000


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def usage_error(capsys, *argv):
    """Exit code and the parsed one-line JSON error printed on stderr."""
    code = main(list(argv))
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    return code, json.loads(err)


def no_chain(*args, **kwargs):
    raise AssertionError("a stabilizer chain was built")


def symmetric_file(tmp_path, n):
    """S_n as JSON: a transposition and an n-cycle."""
    path = tmp_path / f"s{n}.json"
    path.write_text(json.dumps({"degree": n, "generators": [
        [1, 0] + list(range(2, n)), list(range(1, n)) + [0]]}))
    return str(path)


def write_group_file(tmp_path, name, spec):
    from cayleykit.zoo import regular_representation
    G = regular_representation(spec, "left").group
    path = tmp_path / name
    path.write_text(json.dumps({
        "degree": G.degree,
        "generators": [list(g.images) for g in G.generators]}))
    return str(path)


class TestParseSpec:
    def test_name_forms(self):
        assert parse_spec("cyclic(12)").size == 12
        assert parse_spec("frobenius(7, 3)").size == 21
        assert parse_spec("q8").size == 8
        assert parse_spec("elementary_abelian_2(3)").size == 8

    def test_json_form(self):
        text = json.dumps(GroupSpec.dicyclic(5).to_json())
        spec = parse_spec(text)
        assert spec.size == 20 and spec.kind == "dicyclic"

    def test_rejects_garbage(self):
        for bad in ["", "cyclic(", "wat(3)", "q8(2)", "z4", "z8"]:
            with pytest.raises(ValueError):
                parse_spec(bad)


class TestConstruct:
    def test_regular(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code, payload = run(capsys, "construct", "--spec", "cyclic(6)",
                            "--out", str(out))
        assert code == 0
        assert payload["group"]["order"] == 6
        assert json.loads(out.read_text()) == payload

    def test_holomorph(self, capsys):
        code, payload = run(capsys, "construct", "--spec", "q8",
                            "--holomorph")
        assert code == 0
        assert payload["construction"] == "inner_holomorph"
        assert payload["group"]["order"] == 32

    def test_side_with_holomorph_is_usage_error(self, capsys):
        # the inner holomorph holds both regular representations, so a
        # side given with it is refused, not silently dropped
        for side in ("left", "right"):
            for argv in (["--side", side, "--holomorph"],
                         ["--holomorph", "--side", side]):
                code, payload = usage_error(capsys, "construct", "--spec",
                                            "q8", *argv)
                assert code == 2 and "not allowed" in payload["error"]

    def test_bad_spec_is_usage_error(self, capsys):
        code, _ = run(capsys, "construct", "--spec", "nope(1)")
        assert code == 2

    def test_wrong_argument_count_is_usage_error(self, capsys):
        for spec in ("cyclic(1,2)", "cyclic(0,5)"):
            code, payload = usage_error(capsys, "construct", "--spec", spec)
            assert code == 2 and "argument" in payload["error"]

    def test_wrongly_typed_json_parameter_is_usage_error(self, capsys):
        code, payload = usage_error(capsys, "construct", "--spec",
                                    '{"kind": "cyclic", "n": "a"}')
        assert code == 2 and "int" in payload["error"]
        for spec in ['{"kind": "cyclic", "n": true}',
                     '{"kind": "direct_product", "factors": [5]}',
                     '{"kind": "direct_product", "factors": 5}']:
            code, _ = usage_error(capsys, "construct", "--spec", spec)
            assert code == 2

    def test_missing_or_extra_json_parameter_is_usage_error(self, capsys):
        for spec, name in [('{"kind": "cyclic", "n": 1, "x": 2}', "'x'"),
                           ('{"kind": "cyclic"}', "'n'")]:
            code, payload = usage_error(capsys, "construct", "--spec", spec)
            assert code == 2 and name in payload["error"]

    def test_order_over_limit_is_usage_error(self, capsys):
        code, payload = usage_error(capsys, "construct", "--spec",
                                    "cyclic(2049)")
        assert code == 2 and "2048" in payload["error"]

    def test_zero_modulus_is_usage_error(self, capsys):
        code, payload = usage_error(capsys, "construct", "--spec",
                                    "zn_semidirect_y(0,2,1)")
        assert code == 2 and "odd" in payload["error"]

    @pytest.mark.parametrize("spec, message", [
        ("elementary_abelian_2(5000)", "exponent out of range"),
        ('{"kind": "elementary_abelian_2", "e": -1}', "exponent out of range"),
        ("zn_semidirect_y(3,3,2)", "order of y must be 2, 4 or 8"),
        ("frobenius(9,2)", "p must be prime"),
    ])
    def test_refused_parameters_are_usage_errors(self, capsys, spec,
                                                 message):
        code, payload = usage_error(capsys, "construct", "--spec", spec)
        assert code == 2 and payload == {"error": message}

    def test_over_deep_json_is_usage_error(self, capsys):
        spec = '{"kind": "direct_product", "factors": %s}' % DEEP
        code, payload = usage_error(capsys, "construct", "--spec", spec)
        assert code == 2 and "recursion" in payload["error"]


class TestClosure:
    def test_prime_cycle_2_closed(self, capsys):
        code, payload = run(capsys, "closure", "--spec", "cyclic(5)", "--k",
                            "2")
        assert code == 0
        assert payload["is_k_closed"]
        assert payload["closure"]["order"] == 5

    def test_regular_spec_is_listed_once(self, capsys, monkeypatch):
        # k_closure asks is_regular, and the order printed for is_k_closed
        # reuses that listing: G is listed once, and no Schreier-Sims runs
        listed = []
        prop = PermGroup.__dict__["_listed_regular"]
        listing = prop.func

        def counted(G):
            listed.append(G)
            return listing(G)

        monkeypatch.setattr(prop, "func", counted)
        monkeypatch.setattr(perm._Chain, "schreier_sims", no_chain)
        code, payload = run(capsys, "closure", "--spec", "cyclic(256)",
                            "--k", "2")
        assert code == 0 and payload["is_k_closed"]
        assert len(listed) == 1

    def test_needs_spec_or_fixture(self, capsys):
        code, _ = run(capsys, "closure", "--k", "2")
        assert code == 2

    def test_spec_and_fixture_is_usage_error(self, capsys):
        # two sources are refused; neither is silently dropped
        code, payload = run(capsys, "closure", "--spec", "cyclic(4)",
                            "--fixture", M12, "--k", "1")
        assert code == 2 and payload is None

    def test_empty_source_is_usage_error(self, capsys):
        for flag in ("--spec", "--fixture"):
            code, payload = usage_error(capsys, "closure", flag, "")
            assert code == 2 and "error" in payload

    def test_budget_exit_code(self, capsys):
        code, _ = run(capsys, "closure", "--spec", "cyclic(33)", "--k", "1")
        assert code == 3

    def test_fixture_over_budget_builds_no_chain(self, capsys, tmp_path,
                                                 monkeypatch):
        # S_120 is refused at k = 3 before its chain, which alone would
        # run for minutes, is built
        path = symmetric_file(tmp_path, 120)
        monkeypatch.setattr(perm._Chain, "schreier_sims", no_chain)
        code, payload = usage_error(capsys, "closure", "--fixture",
                                    path, "--k", "3")
        assert code == 3 and list(payload) == ["error"]

    def test_fixture_input(self, capsys, tmp_path):
        path = write_group_file(tmp_path, "z4.json", GroupSpec.cyclic(4))
        code, payload = run(capsys, "closure", "--fixture", path, "--k", "2")
        assert code == 0 and payload["source"] == {"fixture": path}

    def test_fixture_not_an_object_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[[1, 0]]")
        code, payload = usage_error(capsys, "closure", "--fixture",
                                    str(path))
        assert code == 2 and "JSON object" in payload["error"]

    def test_fixture_generator_not_a_list_is_usage_error(self, capsys,
                                                          tmp_path):
        path = tmp_path / "gens.json"
        path.write_text('{"degree": 3, "generators": [5]}')
        code, payload = usage_error(capsys, "closure", "--fixture",
                                    str(path))
        assert code == 2 and "generators" in payload["error"]
        for bad in ['{"degree": "3", "generators": []}',
                    '{"degree": 3, "generators": 5}']:
            path.write_text(bad)
            code, _ = usage_error(capsys, "closure", "--fixture", str(path))
            assert code == 2


    def test_fixture_without_generators_is_usage_error(self, capsys,
                                                        tmp_path):
        path = tmp_path / "nogens.json"
        path.write_text('{"degree": 4}')
        code, payload = usage_error(capsys, "closure", "--fixture",
                                    str(path))
        assert code == 2 and "no 'generators' key" in payload["error"]

    def test_over_deep_fixture_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(DEEP)
        code, payload = usage_error(capsys, "closure", "--fixture",
                                    str(path))
        assert code == 2 and "recursion" in payload["error"]

    def test_m12_fixture(self, capsys):
        # the README example: M12 is not 2-closed, its 2-closure is S12
        with open(M12) as fh:
            assert PermGroup(*parse_group_json(json.load(fh))).order == 95040
        code, payload = run(capsys, "closure", "--fixture", M12, "--k", "2")
        assert code == 0
        assert payload["closure"]["order"] == 479001600
        assert not payload["is_k_closed"]

    @pytest.mark.parametrize("argv,digest", [
        (["--fixture", "m12.json", "--k", "2"],
         "293d797b024363119b66768c078b12e9a8d573cc6797166ac8f174bbb2b26028"),
        (["--fixture", "m12.json", "--k", "3"],
         "9cecef5d26f90c16fa51f524b98e1b557eeaa98ced75c034af3159dd810f92d1"),
        (["--spec", "dihedral(12)", "--k", "3"],
         "533629881aeeac89b63ba20b3cd08e0686255af7c3369ad4b3770e7a09910975"),
        (["--spec", "frobenius(7,3)", "--k", "2"],
         "5f1961f1192df1612f9e589ca772ab790775c934677ea896cdfa6f1f9fb469ea"),
    ], ids=["m12-k2", "m12-k3", "dihedral12-k3", "frobenius7_3-k2"])
    def test_output_is_pinned(self, capsys, monkeypatch, argv, digest):
        # the closure's generators are the input's and then those the
        # automorphism search adds, so the whole output pins its search
        # order; the fixture is named relative to its own directory, which
        # the output echoes
        monkeypatch.chdir(os.path.dirname(M12))
        assert main(["closure"] + argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestCiCheck:
    def test_needs_spec_or_fixture(self, capsys):
        code, _ = run(capsys, "ci-check", "--target-spec", "cyclic(4)")
        assert code == 2

    def test_spec_and_fixture_is_usage_error(self, capsys, tmp_path):
        # two sources are refused; neither is silently dropped
        path = tmp_path / "s2.json"
        path.write_text(json.dumps({"degree": 4,
                                    "generators": [[1, 0, 2, 3]]}))
        code, payload = run(capsys, "ci-check", "--spec", "cyclic(4)",
                            "--fixture", str(path),
                            "--target-spec", "cyclic(4)")
        assert code == 2 and payload is None

    def test_single_class_passes(self, capsys):
        code, payload = run(capsys, "ci-check", "--spec", "cyclic(5)",
                            "--target-spec", "cyclic(5)")
        assert code == 0
        assert payload["verdict"]["status"] == "ci_for_this_structure"

    def test_witness_fails(self, capsys):
        code, payload = run(capsys, "ci-check", "--spec", "frobenius(5,4)",
                            "--target-spec", "dicyclic(5)")
        assert code == 1
        assert payload["verdict"]["status"] == "not_ci_witness"
        assert payload["verdict"]["classes"] == 2

    def test_verdict_is_read_in_the_3_closure(self, capsys):
        # Q8's inner holomorph, of order 32, holds two classes of regular
        # Q8 copies, but it is not 3-closed; its 3-closure, of order 64,
        # holds one, so the ambient as given would show a false witness
        code, payload = run(capsys, "ci-check", "--spec", "q8",
                            "--target-spec", "q8")
        assert code == 0
        assert payload["ambient_order"] == 32
        assert payload["closure_order"] == 64
        assert payload["verdict"]["status"] == "ci_for_this_structure"
        assert payload["verdict"]["classes"] == 1

    def test_degree_over_the_3_budget_exits_3(self, capsys, tmp_path,
                                               monkeypatch):
        # the 3-closure of S_65 is refused before any chain or table
        path = symmetric_file(tmp_path, 65)
        monkeypatch.setattr(perm._Chain, "schreier_sims", no_chain)
        for argv in (["--fixture", path], ["--spec", "cyclic(65)"]):
            code, payload = usage_error(capsys, "ci-check", *argv,
                                        "--target-spec", "cyclic(65)")
            assert code == 3 and list(payload) == ["error"]

    def test_no_regular_copy_passes(self, capsys, tmp_path):
        # S2 on 4 points is not even transitive
        path = tmp_path / "s2.json"
        path.write_text(json.dumps({"degree": 4,
                                    "generators": [[1, 0, 2, 3]]}))
        code, payload = run(capsys, "ci-check", "--fixture", str(path),
                            "--target-spec", "cyclic(4)")
        assert code == 0
        assert payload["verdict"]["status"] == "no_regular_copy"
        assert payload["verdict"]["classes"] == 0

    def test_fixture_of_wrong_degree_builds_no_chain(self, capsys, tmp_path,
                                                     monkeypatch):
        # S_60 is refused for a target of order 4 before its chain is built
        path = symmetric_file(tmp_path, 60)
        monkeypatch.setattr(perm._Chain, "schreier_sims", no_chain)
        code, payload = usage_error(capsys, "ci-check", "--fixture", path,
                                    "--target-spec", "cyclic(4)")
        assert code == 2 and list(payload) == ["error"]

    def test_spec_of_wrong_degree_takes_no_closure(self, capsys,
                                                   monkeypatch):
        # dihedral(32)'s inner holomorph acts on 64 points, not on the 5
        # of the target: refused before any closure, as a fixture is
        def no_closure(G, k):
            raise AssertionError("a closure was taken")

        monkeypatch.setattr(cli, "k_closure", no_closure)
        code, payload = usage_error(capsys, "ci-check", "--spec",
                                    "dihedral(32)", "--target-spec",
                                    "cyclic(5)")
        assert code == 2
        assert payload == {"error": "ambient degree 64 must equal the "
                                    "target order 5"}

    def test_fixture_without_generators_is_usage_error(self, capsys,
                                                        tmp_path):
        path = tmp_path / "nogens.json"
        path.write_text('{"degree": 4}')
        code, payload = usage_error(capsys, "ci-check", "--fixture",
                                    str(path), "--target-spec", "cyclic(4)")
        assert code == 2 and "no 'generators' key" in payload["error"]


class TestTower:
    def test_same_group(self, capsys, tmp_path):
        p1 = write_group_file(tmp_path, "a.json", GroupSpec.cyclic(12))
        p2 = write_group_file(tmp_path, "b.json", GroupSpec.cyclic(12))
        code, payload = run(capsys, "tower", p1, p2)
        assert code == 0
        assert payload["ratios"] == [3, 2, 2]

    def test_odd_order(self, capsys, tmp_path):
        p = write_group_file(tmp_path, "z15.json", GroupSpec.cyclic(15))
        code, payload = run(capsys, "tower", p, p)
        assert code == 0
        assert payload["ratios"] == [5, 3]

    def test_degree_one(self, capsys, tmp_path):
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps({"degree": 1, "generators": []}))
        code, payload = run(capsys, "tower", str(path), str(path))
        assert code == 0
        assert payload["ratios"] == []
        assert payload["tower"] == [{"degree": 1, "blocks": [[0]]}]

    def test_failure_prints_the_result_and_exits_1(self, capsys, tmp_path,
                                                  monkeypatch):
        def stuck(R, T, ambient, transcript):
            transcript.append({"event": "alignment_failed", "prime": 3})
            return None, None, None

        monkeypatch.setattr(ci, "_descend", stuck)
        p = write_group_file(tmp_path, "z12.json", GroupSpec.cyclic(12))
        code, payload = run(capsys, "tower", p, p)
        assert code == 1
        assert payload == {
            "status": "failure",
            "transcript": [{"event": "alignment_failed", "prime": 3}]}

    def test_non_regular_group_is_usage_error(self, capsys, tmp_path):
        z4 = write_group_file(tmp_path, "z4.json", GroupSpec.cyclic(4))
        s4 = symmetric_file(tmp_path, 4)
        for pair, name in (((s4, z4), "R"), ((z4, s4), "T")):
            code, payload = usage_error(capsys, "tower", *pair)
            assert code == 2
            assert payload == {"error": f"{name} must be regular"}

    def test_non_isomorphic_pair_is_usage_error(self, capsys, tmp_path):
        # both are family members of order 4
        z4 = write_group_file(tmp_path, "z4.json", GroupSpec.cyclic(4))
        v4 = write_group_file(tmp_path, "v4.json",
                              GroupSpec.elementary_abelian_2(2))
        code, payload = usage_error(capsys, "tower", z4, v4)
        assert code == 2
        assert payload == {"error": "R and T must be isomorphic"}

    def test_outside_family_is_usage_error(self, capsys, tmp_path):
        p = write_group_file(tmp_path, "z9.json", GroupSpec.cyclic(9))
        code, _ = run(capsys, "tower", p, p)
        assert code == 2

    def test_unequal_degrees_build_no_chain(self, capsys, tmp_path,
                                            monkeypatch):
        p12 = write_group_file(tmp_path, "z12.json", GroupSpec.cyclic(12))
        p60 = symmetric_file(tmp_path, 60)
        monkeypatch.setattr(perm._Chain, "schreier_sims", no_chain)
        for pair in ((p12, p60), (p60, p12)):
            code, payload = usage_error(capsys, "tower", *pair)
            assert code == 2 and list(payload) == ["error"]

    def test_degree_over_the_spec_cap_lists_nothing(self, capsys, tmp_path,
                                                    monkeypatch):
        # 2049 = 3 * 683, so the cyclic group is in family R; listing it
        # and its Cayley tables grows faster than n^2, so the pair is
        # refused before either group is listed
        n = 2049
        path = tmp_path / "z2049.json"
        path.write_text(json.dumps({"degree": n,
                                    "generators": [[*range(1, n), 0]]}))
        monkeypatch.setattr(PermGroup.__dict__["_listed_regular"], "func",
                            no_chain)
        code, payload = usage_error(capsys, "tower", str(path), str(path))
        assert code == 3 and list(payload) == ["error"]
        assert "2048" in payload["error"]

    def test_group_without_degree_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "nodegree.json"
        path.write_text('{"generators": []}')
        code, payload = usage_error(capsys, "tower", str(path), str(path))
        assert code == 2 and "no 'degree' key" in payload["error"]

    def test_one_group_without_degree_names_the_key(self, capsys, tmp_path,
                                                    monkeypatch):
        p4 = write_group_file(tmp_path, "z4.json", GroupSpec.cyclic(4))
        path = tmp_path / "nodegree.json"
        path.write_text('{"generators": []}')
        monkeypatch.setattr(perm._Chain, "schreier_sims", no_chain)
        for pair in ((p4, str(path)), (str(path), p4)):
            code, payload = usage_error(capsys, "tower", *pair)
            assert code == 2 and "no 'degree' key" in payload["error"]

    def test_missing_file(self, capsys, tmp_path):
        code, _ = run(capsys, "tower", str(tmp_path / "x.json"),
                      str(tmp_path / "y.json"))
        assert code == 2


class TestReproduce:
    def test_passing_claim(self, capsys):
        code, payload = run(capsys, "reproduce", "zsigmondy-table")
        assert code == 0
        assert payload["report"]["pass"]
        assert "wall_time_seconds" in payload

    def test_report_body_is_stable(self, capsys):
        _, first = run(capsys, "reproduce", "blocks-oracle")
        _, second = run(capsys, "reproduce", "blocks-oracle")
        assert first["report"] == second["report"]

    def test_unknown_claim(self, capsys):
        code, _ = run(capsys, "reproduce", "nonsense")
        assert code == 2


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("argv", [
    ["closure", "--spec", "cyclic(4)", "--fixture", M12, "--k", "1"],
    ["nonsense"],
    ["ci-check", "--spec", "cyclic(4)"],
], ids=["spec-and-fixture", "unknown-subcommand", "missing-target-spec"])
def test_argparse_error_is_one_json_line(capsys, argv):
    code, payload = usage_error(capsys, *argv)
    assert code == 2 and isinstance(payload["error"], str)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_python_m_cayleykit_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=SRC)

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "cayleykit", *argv],
                              env=env, capture_output=True, text=True)

    done = run_module("construct", "--spec", "cyclic(3)")
    assert done.returncode == 0
    assert json.loads(done.stdout)["group"]["order"] == 3
    done = run_module("closure", "--spec", "cyclic(4)", "--k", "9")
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1
    assert "error" in json.loads(done.stderr)


# Spec fuzzing.  Every integer stays at 8 or below, and valid specs of order
# above 256 are skipped: a regular representation of order 2048 alone takes
# seconds.
KINDS = sorted(SPEC_PARAMS) + ["direct_product", "nope"]
KEYS = sorted({name for names in SPEC_PARAMS.values() for name in names}
              | {"kind", "factors", "x"})
JUNK = st.one_of(st.booleans(), st.floats(-9, 9), st.text(max_size=3),
                 st.none(), st.lists(st.integers(-1, 8), max_size=2))
VALUES = st.one_of(st.integers(-1, 8), st.integers(0, 8), JUNK)
ARGS = st.lists(st.integers(0, 8), max_size=4).map(
    lambda xs: "(" + ",".join(map(str, xs)) + ")")
NAMES = st.builds(lambda k, a: k + a, st.sampled_from(KINDS),
                  st.one_of(st.just(""), ARGS))


@st.composite
def json_specs(draw, depth=2):
    """A spec object that is often valid, with keys dropped, added or
    given values of the wrong type."""
    kind = draw(st.sampled_from(KINDS))
    obj = {"kind": kind}
    for name in SPEC_PARAMS.get(kind, ("factors",)):
        if name != "factors":
            obj[name] = draw(VALUES)
        elif depth and draw(st.booleans()):
            obj[name] = draw(st.lists(
                st.one_of(json_specs(depth - 1), JUNK), max_size=3))
        else:
            obj[name] = draw(JUNK)
    if draw(st.booleans()):
        obj.pop(draw(st.sampled_from(sorted(obj))))
    if draw(st.booleans()):
        obj[draw(st.sampled_from(KEYS))] = draw(VALUES)
    return obj


def _size(text):
    try:
        return parse_spec(text).size
    except (ValueError, KeyError):
        return 0


@settings(max_examples=150, deadline=None)
@given(st.one_of(NAMES, json_specs().map(json.dumps)), st.booleans())
def test_construct_fuzz(text, holomorph):
    assume(_size(text) <= 256)
    argv = ["construct", "--spec", text] + ["--holomorph"] * holomorph
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and "error" in json.loads(err)
