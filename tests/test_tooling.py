"""Checks on the library source itself."""

import ast
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmet
from qmet.tolerances import ledger

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qmet"


def test_no_assert_in_library():
    # `python -O` strips assert statements, so no check may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_recursion_in_library():
    # recursion depth grows with the input, past Python's frame limit
    found = [
        f"{path.stem}.{func.name}"
        for path in sorted(SRC.glob("*.py"))
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == func.name
    ]
    assert found == []


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_point_axis_leads():
    # numpy reduces a trailing axis only n points long one output entry at a
    # time; the pair kernel moves the point axis to the front and reduces
    # with axis=0 (see pairs._lead), and the GH floor and search reduce over
    # leading axes as well, by .max/.min or by a ufunc's .reduce
    found = [
        f"{path.stem}.{func.name}"
        for path in (SRC / "pairs.py", SRC / "hull.py", SRC / "gh.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("max", "min", "reduce")
        and any(
            _literal(axis) in (-1, -2, 2)
            for axis in [kw.value for kw in node.keywords if kw.arg == "axis"]
            + node.args[1:2] * (node.func.attr == "reduce")
        )
    ]
    assert found == []


def _owned_nodes(path):
    """(enclosing function, node) for every node in a module; a node belongs
    to the innermost function around it ("<module>" at top level)."""
    todo = [(f"{path.stem}.<module>", ast.parse(path.read_text()))]
    while todo:
        owner, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append((f"{path.stem}.{child.name}", child))
                continue
            yield owner, child
            todo.append((owner, child))


def _owned_calls(path):
    """(enclosing function, called name) for every call in a module."""
    for owner, node in _owned_nodes(path):
        if isinstance(node, ast.Call):
            yield owner, getattr(node.func, "id", getattr(node.func, "attr", None))


def test_every_projection_is_a_retraction():
    # every caller lands on the hull through the exact two-step retract;
    # project_arrays is retract(f1), reached only from the public
    # project_to_hull, which checks ampleness first
    found = sorted(
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _owned_calls(path)
        if name in ("project_arrays", "project_to_hull")
    )
    assert found == ["pairs.project_to_hull"]


def test_one_block_rule():
    # pairs.row_blocks sizes every batched kernel: no other module names its
    # BLOCK_ELEMENTS, imports it or keeps a block constant of its own
    found = sorted(
        {
            f"{path.stem}.{name}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
            for name in [getattr(node, "id", getattr(node, "attr", getattr(node, "name", "")))]
            if name.endswith("_ELEMENTS")
        }
    )
    assert found == ["pairs.BLOCK_ELEMENTS"]


def test_one_distortion_kernel():
    # a relation's distortion is measured once, by gh._distortion: the
    # correspondences, the GH seed, rough isometries and the net GH bound
    found = {
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _owned_calls(path)
        if name == "_distortion"
    }
    assert found == {"gh.distortion", "gh._seed", "gh.verify_rough_isometry", "hull.net_gh_upper"}


def test_one_min_plus_relaxation():
    # every min-plus product runs in space._relax, one k at a time into an
    # output of the result's shape: the triangle scan, the closure, the
    # glued cross blocks and the subspace inf-convolution; no site takes
    # .min(...) of a broadcast sum, whose temporary grows with the inner axis
    found = {
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _owned_calls(path)
        if name == "_relax"
    }
    assert found == {
        "space.validate",
        "space.triangle_closure",
        "gh.glue_space",
        "pairs.extend_from_subspace",
    }
    summed = sorted(
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "min"
        and isinstance(node.func.value, ast.BinOp)
        and isinstance(node.func.value.op, ast.Add)
    )
    assert summed == []


def test_one_retraction_kernel():
    # a hull net's candidates, fresh or perturbed, and the net GH bound's
    # snapping reach the hull through pairs.retract_points in the row
    # blocks of hull._retract_rows, so hull.py keeps no conjugation kernel
    # of its own and retracts no row at a time
    found = {
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner, name in _owned_calls(path)
        if name == "retract_points"
    }
    assert found == {"hull._retract_rows"}


def test_hull_builds_pairs_only_on_read():
    # a net is one array from draw to return: hull.py builds an AmplePair in
    # the lazy view's __getitem__ alone, so no pair per candidate creeps back
    found = {owner for owner, name in _owned_calls(SRC / "hull.py") if name == "AmplePair"}
    assert found == {"hull.__getitem__"}


def test_one_near_pair_sweep():
    # hull nets merge at the space's own rounding level, slack(0.0, diam),
    # and one sweep finds every near pair: the dedup rule's pairs of kept
    # rows and candidates as well as the spread, so no absolute dedup
    # constant and no second sweep come back; _keep sweeps each batch whole,
    # as the level scales with diam, so it cuts no row blocks
    calls = list(_owned_calls(SRC / "hull.py"))
    assert {owner for owner, name in calls if name == "_projector"} == {"hull._close_pairs"}
    assert ("hull._keep", "row_blocks") not in calls
    paths = sorted(SRC.glob("*.py")) + [ROOT / "tests" / "helpers.py"]
    assert [path.name for path in paths if "DEDUP_TOL" in path.read_text()] == []


def test_schemas_list_the_ledger():
    # every --json envelope carries ledger() under "tolerances"; each schema
    # copies its keys by hand, so a key added to the ledger must reach them all
    keys = sorted(ledger())
    blocks = {
        path.name: schema["properties"]["tolerances"]
        for path in sorted((SRC / "schemas").glob("*.json"))
        for schema in [json.loads(path.read_text())]
        if "tolerances" in schema["properties"]
    }
    assert len(blocks) == 8
    for name, block in blocks.items():
        assert sorted(block["required"]) == keys, name
        assert sorted(block["properties"]) == keys, name


def test_one_witness_serializer():
    # a rough-isometry witness becomes JSON in io.witness_to_obj alone: the
    # gh and rough-iso --witness files and rough-iso's report share it, so no
    # second hand-built witness payload can drift from the first
    found = sorted(
        owner
        for path in sorted(SRC.glob("*.py"))
        for owner, node in _owned_nodes(path)
        if isinstance(node, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value == "eps_embed" for k in node.keys)
    )
    assert found == ["io.witness_to_obj"]


def test_only_dispatch_prints_in_cli():
    # each command returns (exit code, payload, lines); dispatch alone writes
    # the report, so the JSON envelope and the ledger line live in one place
    found = sorted({owner for owner, name in _owned_calls(SRC / "cli.py") if name == "print"})
    assert found == ["cli.dispatch"]


def _smoke(workload):
    """The benchmark's smoke run of one workload, as its printed result."""
    argv = ["--workload", workload, "--smoke", "--seconds", "0.1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def test_delta_cli_smoke_has_no_failed_operation():
    # the benchmark checks each delta report against its own numpy oracles;
    # a bracket that misses the constant counts as a failed operation
    result, err = _smoke("delta-cli")
    assert result["correct"] and result["failed"] == 0, err


def test_hull_stability_smoke_has_no_failed_operation():
    # each net point is checked for ampleness and minimality, the net
    # matrices for the base block and the net bound against the diameters
    result, err = _smoke("hull-stability")
    assert result["correct"] and result["failed"] == 0, err


def test_gh_search_smoke_has_no_failed_operation():
    # each search must be exact and its value half its correspondence's
    # distortion: brute force on small pairs, 0 on permuted copies and at
    # most half the entrywise gap on perturbations
    result, err = _smoke("gh-search")
    assert result["correct"] and result["failed"] == 0, err


def test_gh_fingerprint_matches_the_committed_file():
    # the fast panels of scripts/fingerprint.py: every search's value, exact
    # flag, nodes, correspondence and lower bound as FINGERPRINT.json has them
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "scripts" / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    want = json.loads((ROOT / "FINGERPRINT.json").read_text())
    got = fingerprint.fingerprint(("heavy-tail-8", "heavy-tail-10", "networks", "above-gate"))
    inputs = {name: d["inputs"] for name, d in got["panels"].items()}
    if want["numpy"] != np.__version__ and inputs != {n: want["panels"][n]["inputs"] for n in inputs}:
        pytest.skip(f"numpy {np.__version__} draws other panels than {want['numpy']} did")
    assert fingerprint.moved(want, got) == []


# public names that nothing in the library, the acceptance suite, the
# benchmark or the scripts reaches yet, kept on purpose
KEPT_UNREACHED = {
    "hausdorff": "the stability bound through the glued space builds on it",
    "glue_space": "the stability bound through the glued space builds on it",
    "find_center": "the paper's solved ball family, the tests' check on min_delta",
    "ample_completion": "the test strategies draw ample pairs with it",
    "space_to_csv": "writes the CSV format that parse_space reads",
}


def _used_names(path):
    """Names a module loads, each outside the top-level definition that
    binds it, so a function's own recursion or a class's own methods do not
    count as a use."""
    used = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                used.add(name)
    return used


def _imported(tree):
    """(bound name, line) for every import in a module but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_public_names_are_reached():
    # each exported name serves a command, an acceptance criterion, the
    # benchmark, a script or another library function
    init = SRC / "__init__.py"
    assert set(qmet.__all__) == {name for name, _ in _imported(ast.parse(init.read_text()))}
    reach = [p for p in sorted(SRC.glob("*.py")) if p != init]
    reach += [ROOT / "tests" / "test_acceptance.py"]
    reach += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*map(_used_names, reach))
    # an exemption lapses once the name is reached or gone
    assert set(KEPT_UNREACHED) <= set(qmet.__all__) - used
    assert sorted(set(qmet.__all__) - used - set(KEPT_UNREACHED)) == []


def test_no_unused_imports():
    # a deletion must take the imports that served only it along
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.stem}:{line} {name}" for name, line in _imported(tree) if name not in loaded]
    assert found == []
