"""Static checks on the package source, with the standard library's ast:
no unused import, one import statement per imported module, imports
from a listed set of standard-library modules only, no private
module-level function or class that nothing references, no public one
or public method of a public class that only tests and __init__ reach,
oracles that do not call the kernels they check, a partition oracle
that tests invariance on its own labels, no nested function
that reads its own name, none that its outer function never reads, no
assignment to the name of a cached_property, no read of an instance
dict, no defaulted parameter that no call passes or that every call
passes, no comparison of a degree with 256 in ci.py outside _pack, no
trial-division loop outside prime_factors and its listed peers, and no
group listed in blocks.py, where _join alone merges classes.
A classmethod is reached only as `Owner.name`, or as `cls.name` inside
its own class."""

import ast
import os
from collections import Counter

import pytest

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
PACKAGE = os.path.join(REPO, "src", "cayleykit")
MODULES = sorted(f for f in os.listdir(PACKAGE) if f.endswith(".py"))


def parse(name, directory=PACKAGE):
    with open(os.path.join(directory, name)) as fh:
        return ast.parse(fh.read(), filename=name)


def referenced(node):
    """The names a node reads: bare names, attribute names and names
    imported by `from ... import`."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def attributes_of(node, owners):
    """The attribute names a node reads off one of the bare names in
    owners, as in `GroupSpec.cyclic` or `cls.cyclic`."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id in owners}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_used(name):
    tree = parse(name)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(set(imported) - used) == []


@pytest.mark.parametrize("name", MODULES)
def test_one_import_statement_per_source_module(name):
    # `from .ci import a` and a later `from .ci import b` belong in one
    # statement
    sources = Counter((node.level, node.module)
                      for node in ast.walk(parse(name))
                      if isinstance(node, ast.ImportFrom))
    assert sorted(s for s, count in sources.items() if count > 1) == []


# Every module outside the package that src may import: the package uses
# the standard library only, and these load quickly
ALLOWED_IMPORTS = {"__future__", "argparse", "collections", "functools",
                   "itertools", "json", "math", "operator", "random", "re",
                   "sys", "time"}


def test_imports_come_from_the_allowed_stdlib_modules():
    imported = set()
    for name in MODULES:
        for node in ast.walk(parse(name)):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert sorted(imported - ALLOWED_IMPORTS) == []


def test_every_private_definition_is_referenced():
    # a reference from inside the definition itself, as in a recursive
    # call, does not count
    trees = {name: parse(name) for name in MODULES}
    unused = []
    for name, tree in trees.items():
        elsewhere = set()
        for other, other_tree in trees.items():
            if other != name:
                elsewhere |= referenced(other_tree)
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                continue
            here = set().union(*(referenced(n) for n in tree.body
                                 if n is not node))
            if node.name not in here | elsewhere:
                unused.append(f"{name}:{node.name}")
    assert unused == []


# Public names, and public methods of public classes, that no src code
# outside their own body reaches, each kept for a reason outside the
# package
UNREACHED_PUBLIC = {
    "perm.py:normalizer": "a span of the benchmark tracer",
    "ci.py:align_sylow_orbits": "a span of the benchmark tracer",
    "zoo.py:isomorphic_to_spec": "a span of the benchmark tracer",
    "blocks.py:minimal_block_containing":
        "the planned primitivity test of ROADMAP item 7 will call it",
    "blocks.py:BlockSystem.apply": "the reference breadth-first search in "
        "test_transporter_returns_the_block_system_word",
    "closures.py:ColoredStructure.encode": "reference_is_automorphism",
    "closures.py:ColoredStructure.decode": "reference_is_automorphism",
}


def test_every_public_definition_is_reached_from_src():
    # __init__ re-exports names; that does not count as a use.  A method
    # is reached by its name, read anywhere outside its own body; a
    # classmethod only as Owner.name, or as cls.name elsewhere in its class,
    # so that one GroupSpec.from_json reader does not reach every from_json
    trees = {name: parse(name) for name in MODULES if name != "__init__.py"}
    nodes = [(name, node, referenced(node))
             for name, tree in trees.items() for node in tree.body]

    def public(node, kinds=(ast.FunctionDef, ast.ClassDef)):
        return isinstance(node, kinds) and not node.name.startswith("_")

    def reached(node, outside):
        return any(node.name in reads
                   for _, other, reads in nodes if other is not outside)

    unreached = [f"{name}:{node.name}" for name, node, _ in nodes
                 if public(node) and not reached(node, node)]
    for name, cls, _ in nodes:
        if not (public(cls) and isinstance(cls, ast.ClassDef)):
            continue
        for m in cls.body:
            if not public(m, ast.FunctionDef):
                continue
            siblings = [other for other in cls.body if other is not m]
            if any(isinstance(d, ast.Name) and d.id == "classmethod"
                   for d in m.decorator_list):
                found = any(m.name in attributes_of(other, {cls.name})
                            for _, other, _ in nodes if other is not cls) \
                    or any(m.name in attributes_of(other, {cls.name, "cls"})
                           for other in siblings)
            else:
                found = reached(m, cls) or any(
                    m.name in referenced(other) for other in siblings)
            if not found:
                unreached.append(f"{name}:{cls.name}.{m.name}")
    assert sorted(unreached) == sorted(UNREACHED_PUBLIC)


def test_closure_oracles_do_not_use_the_kernels():
    # is_automorphism, brute_force_automorphisms and its walk
    # _color_preserving check orbit_coloring and automorphisms, so they
    # must not reach the tuple-table kernels or anything defined inside
    # automorphisms
    defs = {node.name: node for node in parse("closures.py").body
            if isinstance(node, ast.FunctionDef)}
    inner = {node.name for node in ast.walk(defs["automorphisms"])
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    kernels = {"_orbit_labels", "_tuple_codes"} | inner - {"automorphisms"}
    assert {"consistent", "complete"} <= kernels
    assert "_color_preserving" in referenced(
        defs["brute_force_automorphisms"])
    for oracle in ("is_automorphism", "brute_force_automorphisms",
                   "_color_preserving"):
        assert sorted(referenced(defs[oracle]) & kernels) == [], oracle


def test_regular_class_oracle_builds_no_library_table():
    # regular_class_scan checks regular_subgroups, which reads its spec's
    # table from cayley_table of a regular representation; the oracle
    # builds each table from the spec's product rule instead
    defs = {node.name: node for node in parse("repro.py").body
            if isinstance(node, ast.FunctionDef)}
    assert sorted(referenced(defs["regular_class_scan"])
                  & {"cayley_table", "regular_representation"}) == []


def test_partition_oracle_checks_invariance_itself():
    # invariant_partition_scan checks all_block_systems, and the library's
    # own invariance test serves BlockAction and classify_block_system, so
    # the scan tests each partition on its own label array instead
    defs = {node.name: node for node in parse("repro.py").body
            if isinstance(node, ast.FunctionDef)}
    assert "is_invariant_under" not in referenced(
        defs["invariant_partition_scan"])


def test_only_pack_decides_where_rows_stop_fitting_bytes():
    # in ci.py, _pack alone compares a degree with 256, and the code that
    # packs rows asks it, so every row of one search has one form and a
    # test can force image tuples on any input
    comparing, asking = set(), set()
    for top in parse("ci.py").body:
        for sub in ast.walk(top):
            if isinstance(sub, ast.Compare) and any(
                    isinstance(x, ast.Constant) and x.value == 256
                    for x in [sub.left, *sub.comparators]):
                comparing.add(getattr(top, "name", "<module>"))
            elif isinstance(sub, ast.Call) \
                    and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "_pack":
                asking.add(getattr(top, "name", "<module>"))
    assert comparing == {"_pack"}
    assert {"_conjugation", "regular_subgroups", "_element_keys"} <= asking


def self_reading_nested_functions(tree):
    """'outer.inner' for each function defined inside a function, outer
    the innermost, whose body reads its own name."""
    found = []
    stack = [(node, None) for node in tree.body]
    while stack:
        node, outer = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if outer is not None and node.name in {
                    sub.id for sub in ast.walk(node)
                    if isinstance(sub, ast.Name)}:
                found.append(f"{outer.name}.{node.name}")
            outer = node
        stack.extend((child, outer) for child in ast.iter_child_nodes(node))
    return found


def test_no_nested_function_reads_its_own_name():
    # a nested function that calls itself holds its own cell, a reference
    # cycle: it and everything its closure reaches outlive the call until
    # a full garbage collection.  Searches keep an explicit stack instead
    assert [f"{name}: {f}" for name in MODULES
            for f in self_reading_nested_functions(parse(name))] == []


def unread_nested_functions(tree):
    """'outer.inner' for each function defined inside a function, outer
    the innermost, whose name outer never reads outside inner itself."""
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack = list(ast.iter_child_nodes(outer))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inside = set(map(id, ast.walk(node)))
                reads = {sub.id for sub in ast.walk(outer)
                         if isinstance(sub, ast.Name)
                         and id(sub) not in inside}
                if node.name not in reads:
                    found.append(f"{outer.name}.{node.name}")
            elif not isinstance(node, ast.ClassDef):
                stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_nested_function_is_read():
    # a helper whose only caller was deleted is dead code that the
    # module-level reference checks cannot see
    assert [f"{name}: {f}" for name in MODULES
            for f in unread_nested_functions(parse(name))] == []


def cached_property_assignments(trees):
    """'module:line' for each assignment, in any module, to an attribute
    named like a cached_property that one of the modules defines."""
    cached = {node.name for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and any(isinstance(d, ast.Name) and d.id == "cached_property"
                      for d in node.decorator_list)}
    found = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                t = targets.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    targets.extend(t.elts)
                elif isinstance(t, ast.Starred):
                    targets.append(t.value)
                elif isinstance(t, ast.Attribute) and t.attr in cached:
                    found.append(f"{name}:{node.lineno}")
    return found


def test_no_cached_property_is_assigned():
    # a cached_property is computed in one place, when first read; code
    # that assigns its name installs a value by another route, and every
    # reader must then know which route ran first
    assert cached_property_assignments(
        {name: parse(name) for name in MODULES}) == []


def test_no_instance_dict_is_read():
    # a cached_property answers the same whether or not it has run; code
    # that looks in vars(obj) or obj.__dict__ to see which has two answers
    found = [f"{name}:{sub.lineno}" for name in MODULES
             for sub in ast.walk(parse(name))
             if (isinstance(sub, ast.Name) and sub.id == "vars")
             or (isinstance(sub, ast.Attribute) and sub.attr == "__dict__")]
    assert found == []


def defaulted_parameters(name, tree):
    """(key, callee name, parameter, positional index or None) for each
    defaulted parameter of a module-level function, or of a method of a
    module-level class, in one module.  A method is called by its own
    name, __init__ by its class's; the index counts from the first
    argument a call writes, so a method's self or cls is left out, and a
    keyword-only parameter has none.  Other dunder methods are called by
    operators, not by name, and are skipped."""
    defs = [(node.name, node.name, node, 0) for node in tree.body
            if isinstance(node, ast.FunctionDef)]
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for m in cls.body:
            if not isinstance(m, ast.FunctionDef) or (
                    m.name.startswith("__") and m.name != "__init__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in m.decorator_list)
            defs.append((f"{cls.name}.{m.name}",
                         cls.name if m.name == "__init__" else m.name, m,
                         0 if static else 1))
    out = []
    for qualname, callee, fn, implicit in defs:
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        out.extend((f"{name}:{qualname}({arg.arg})", callee, arg.arg,
                    i - implicit)
                   for i, arg in enumerate(positional) if i >= first)
        out.extend((f"{name}:{qualname}({arg.arg})", callee, arg.arg, None)
                   for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                   if default is not None)
    return out


def calls_by_callee(trees):
    """Callee name -> the calls in trees that name it, bare as in `f(x)`
    or as an attribute as in `G.f(x)`."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def passes(call, parameter, index):
    """Whether a call writes a parameter: by keyword, through **kwargs or
    *args, or positionally at its index."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index
        or any(isinstance(a, ast.Starred) for a in call.args[:index + 1]))


def sources(directory, tests):
    return [parse(f, directory) for f in sorted(os.listdir(directory))
            if f.endswith(".py") and (tests or not f.startswith("test_"))]


# Defaulted parameters that no call in src or perfbench passes, each kept
# for a reason that the call-site match cannot see
UNPASSED_PARAMETERS = {
    "repro.py:claim_tower_dic3(seed)": "run_claim calls it through CLAIMS",
}


def test_every_parameter_changes_something():
    # a default that no caller overrides is a constant dressed as an
    # option, and one that every caller overrides, tests included, is no
    # default at all
    perfbench = os.path.join(REPO, "perfbench")
    package = {name: parse(name) for name in MODULES}
    used = calls_by_callee(list(package.values())
                           + sources(perfbench, tests=False))
    every = calls_by_callee(list(package.values())
                            + sources(perfbench, tests=True)
                            + sources(os.path.join(REPO, "tests"), tests=True))
    unpassed, always = [], []
    for name, tree in package.items():
        for key, callee, parameter, index in defaulted_parameters(name, tree):
            if not any(passes(c, parameter, index)
                       for c in used.get(callee, [])):
                unpassed.append(key)
            calls = every.get(callee, [])
            if calls and all(passes(c, parameter, index) for c in calls):
                always.append(key)
    assert sorted(unpassed) == sorted(UNPASSED_PARAMETERS)
    assert always == []


def trial_division_loops(tree):
    """The names of the functions, methods and nested functions included,
    holding a while loop that tests `x * x <= y` or `y % x == 0`."""
    def divides(test):
        return any(
            isinstance(c, ast.Compare) and len(c.ops) == 1
            and isinstance(c.left, ast.BinOp) and (
                isinstance(c.ops[0], ast.LtE)
                and isinstance(c.left.op, ast.Mult)
                and ast.dump(c.left.left) == ast.dump(c.left.right)
                or isinstance(c.ops[0], ast.Eq)
                and isinstance(c.left.op, ast.Mod)
                and isinstance(c.comparators[0], ast.Constant)
                and c.comparators[0].value == 0)
            for c in ast.walk(test))

    return {f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and any(isinstance(w, ast.While) and divides(w.test)
                    for w in ast.walk(f))}


# The trial-division loops src keeps: the one factorization, the
# divide-out loop that runs once per element where a factorization would
# cost more, and the oracle that checks zsigmondy_ppd by its own loop
TRIAL_DIVISION = {"perm.py:prime_factors", "perm.py:_is_power_of",
                  "repro.py:smallest_primitive_prime_divisor"}


def test_one_trial_division():
    # primality, a prime-power part, an odd part and a primitive prime
    # divisor are each read from prime_factors, not from another loop
    assert sorted(f"{name}:{f}" for name in MODULES
                  for f in trial_division_loops(parse(name))) \
        == sorted(TRIAL_DIVISION)


def merges_classes(node):
    """Whether a function merges one indexed class into another: an
    item grown in place, `x[i] += ...`, `x[i].extend(...)` or
    `x[i].update(...)`, or set to a sum of items, `x[i] = x[i] + x[j]`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.AugAssign) \
                and isinstance(sub.target, ast.Subscript):
            return True
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr in ("extend", "update") \
                and isinstance(sub.func.value, ast.Subscript):
            return True
        if isinstance(sub, ast.Assign) \
                and any(isinstance(t, ast.Subscript) for t in sub.targets) \
                and isinstance(sub.value, ast.BinOp) \
                and isinstance(sub.value.left, ast.Subscript) \
                and isinstance(sub.value.right, ast.Subscript):
            return True
    return False


def test_blocks_list_no_group_and_join_alone_merges():
    # block systems come from joins and restrictions from Schreier's
    # lemma, both on generators: no routine in blocks.py lists a group,
    # and every merge of classes goes through the one join
    functions = [f for f in ast.walk(parse("blocks.py"))
                 if isinstance(f, ast.FunctionDef)]
    listing = sorted(f.name for f in functions for sub in ast.walk(f)
                     if isinstance(sub, ast.Call)
                     and isinstance(sub.func, ast.Attribute)
                     and sub.func.attr == "elements")
    assert listing == []
    assert sorted(f.name for f in functions if merges_classes(f)) \
        == ["_join"]
