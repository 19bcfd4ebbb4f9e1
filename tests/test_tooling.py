"""Checks on the library source itself."""

import ast
import json
import subprocess
import sys
from pathlib import Path

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
    # with axis=0 (see pairs._lead)
    found = [
        f"{path.stem}.{func.name}"
        for path in (SRC / "pairs.py", SRC / "hull.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("max", "min")
        and any(
            kw.arg == "axis" and _literal(kw.value) in (-1, -2, 2)
            for kw in node.keywords
        )
    ]
    assert found == []


def _owned_calls(path):
    """(enclosing function, called name) for every call in a module; a call
    belongs to the innermost function around it ("<module>" at top level)."""
    todo = [(f"{path.stem}.<module>", ast.parse(path.read_text()))]
    while todo:
        owner, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append((f"{path.stem}.{child.name}", child))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                yield owner, getattr(func, "id", getattr(func, "attr", None))
            todo.append((owner, child))


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
