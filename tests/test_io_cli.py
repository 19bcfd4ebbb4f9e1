import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings

from qmet import (
    demo_space,
    estimate_delta,
    gh_exact,
    parse_space,
    random_qspace,
    rough_inverse,
    rough_isometry_from_correspondence,
    sample_hull,
    space_to_csv,
    space_to_json,
)
from qmet import cli
from qmet.cli import MAX_MATRIX_POINTS, MAX_SAMPLES, build_parser, dispatch
from qmet.errors import ParseError, QmetError, ValidationError
from qmet.io import load_map
from qmet.tolerances import ledger

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMA_DIR = SRC / "qmet" / "schemas"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=12,
)


def square_matrices(entries):
    return st.integers(0, 4).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


# numeric square matrices reach the labels check; the rest stop earlier
SPACE_D = st.one_of(
    square_matrices(st.integers(0, 3) | st.floats(0, 3)), square_matrices(JSON_VALUES), JSON_VALUES
)


def plain(obj):
    """obj as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(obj))


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


@pytest.fixture
def demo_files(tmp_path):
    paths = {}
    for name in ("sierpinski", "line3", "metric2", "runit5"):
        p = tmp_path / f"{name}.json"
        p.write_text(space_to_json(demo_space(name)))
        paths[name] = str(p)
    p = tmp_path / "point.json"
    p.write_text('{"labels": ["p"], "d": [[0.0]]}')
    paths["point"] = str(p)
    return paths


class TestParsing:
    def test_inline_json(self):
        X = parse_space('{"labels":["0","1"],"d":[[0,0],[1,0]]}')
        assert X == demo_space("sierpinski")

    def test_inline_csv(self):
        X = parse_space("0,0\n1,0", fmt="csv")
        assert np.array_equal(X.d, demo_space("sierpinski").d)

    def test_csv_with_header(self):
        X = parse_space("a,b\n0,0\n1,0", fmt="csv")
        assert X.labels == ("a", "b")

    def test_ragged_csv(self):
        with pytest.raises(ParseError) as err:
            parse_space("0,0\n1", fmt="csv")
        assert "row 2" in str(err.value)

    def test_ragged_json(self):
        with pytest.raises(ParseError):
            parse_space('{"d": [[0, 0], [1]]}')

    def test_json_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_space('{"d": [[0, 0], [1, 0]')
        assert err.value.position is not None

    def test_validation_forwarded(self):
        with pytest.raises(ValidationError) as err:
            parse_space('{"d": [[0, 5, 1], [1, 0, 1], [1, 1, 0]]}')
        assert any(v.axiom == "M2" for v in err.value.report.violations)

    def test_json_roundtrip_bit_exact(self):
        rng = np.random.default_rng(0)
        from qmet import random_qspace

        for _ in range(5):
            X = random_qspace(4, rng)
            Y = parse_space(space_to_json(X))
            assert Y == X and np.array_equal(Y.d, X.d)

    def test_csv_roundtrip(self):
        X = demo_space("runit5")
        Y = parse_space(space_to_csv(X), fmt="csv")
        assert Y == X

    @pytest.mark.parametrize(
        "table",
        ["[0.7, 1]", "[0, true]", '[0, "1"]', "[0, null]", "[NaN, 0]", "[Infinity]"],
    )
    def test_map_rejects_non_integers(self, tmp_path, table):
        p = tmp_path / "map.json"
        p.write_text(f'{{"map": {table}}}')
        with pytest.raises(ParseError):
            load_map(p)

    def test_map_accepts_integral_floats(self, tmp_path):
        p = tmp_path / "map.json"
        p.write_text('{"map": [1.0, 0]}')
        assert load_map(p) == [1, 0]

    @pytest.mark.parametrize("labels", ["5", '"ab"', '{"0": "a", "1": "b"}', "true"])
    def test_labels_must_be_a_list(self, labels):
        with pytest.raises(ParseError, match="labels"):
            parse_space(f'{{"labels": {labels}, "d": [[0, 0], [1, 0]]}}')

    def test_non_utf8_input(self, tmp_path):
        p = tmp_path / "space.json"
        p.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ParseError, match="UTF-8"):
            parse_space(p)
        with pytest.raises(ParseError, match="UTF-8"):
            load_map(p)

    @pytest.mark.parametrize(
        "text",
        ['{"d": [[' + "9" * 5000 + "]]}", "[" * 100_000 + "]" * 100_000],
        ids=["long-integer", "deep-nesting"],
    )
    def test_json_past_decoder_limits(self, text):
        with pytest.raises(ParseError):
            parse_space(text, fmt="json")

    @settings(max_examples=100)
    @given(SPACE_D, JSON_VALUES)  # "labels": null is the same as no labels
    @example([[0]], 5)
    def test_any_d_and_labels_fail_typed(self, d, labels):
        try:
            parse_space(json.dumps({"d": d, "labels": labels}), fmt="json")
        except QmetError:
            pass

    def test_file_roundtrip(self, tmp_path):
        X = demo_space("line3")
        p = tmp_path / "space.json"
        p.write_text(space_to_json(X))
        assert parse_space(p) == X
        assert parse_space(str(p)) == X


class TestCLI:
    def run(self, capsys, *argv):
        code = dispatch(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def check_json(self, capsys, schema, *argv):
        code, out, _ = self.run(capsys, *argv)
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema(schema))
        return code, payload

    def test_demo_list(self, capsys):
        code, out, _ = self.run(capsys, "demo", "list")
        assert code == 0
        assert out.splitlines()[:4] == ["line3", "metric2", "runit5", "sierpinski"]

    def test_demo_json_schema(self, capsys):
        code, payload = self.check_json(capsys, "demo", "demo", "sierpinski", "--json")
        assert code == 0
        assert payload["space"]["d"] == [[0.0, 0.0], [1.0, 0.0]]

    def test_validate_human_report_has_ledger(self, capsys, demo_files):
        code, out, _ = self.run(capsys, "validate", demo_files["sierpinski"])
        assert code == 0
        assert "tolerances:" in out and "tau_tri" in out

    def test_validate_json_schema(self, capsys, demo_files):
        code, payload = self.check_json(
            capsys, "validate", "validate", demo_files["line3"], "--json"
        )
        assert code == 0
        assert payload["classification"]["satisfies_M2"]

    def test_validate_rejects_bad_matrix(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"d": [[0, 5, 1], [1, 0, 1], [1, 1, 0]]}')
        code, payload = self.check_json(capsys, "validate", "validate", str(p), "--json")
        assert code == 2
        assert not payload["ok"]

    def test_transform_json_schema(self, capsys, demo_files):
        code, payload = self.check_json(
            capsys,
            "transform",
            "transform",
            demo_files["sierpinski"],
            "--mode",
            "symmetrize",
            "--json",
        )
        assert code == 0
        assert payload["space"]["d"] == [[0.0, 1.0], [1.0, 0.0]]

    def test_hull_json_schema(self, capsys, demo_files):
        code, payload = self.check_json(
            capsys,
            "hull",
            "hull",
            demo_files["sierpinski"],
            "--samples",
            "20",
            "--seed",
            "4",
            "--matrix",
            "--json",
        )
        assert code == 0
        assert payload["count"] == len(payload["sample"]["points"])
        assert len(payload["matrix"]) == payload["count"]

    def test_oversize_matrix_is_refused_up_front(self, capsys, demo_files):
        # a net of up to 40,005 points would need a 40,005^2 matrix and an
        # O(m^3) validation; the cap is checked before any sampling
        code, out, err = self.run(capsys, "hull", demo_files["runit5"], "--samples", "40000",
                                  "--matrix")
        assert (code, out) == (2, "")
        assert err == f"error: --matrix net could have 40005 points (cap {MAX_MATRIX_POINTS})\n"

    def test_matrix_cap_is_inclusive(self, capsys, demo_files, monkeypatch):
        monkeypatch.setattr(cli, "MAX_MATRIX_POINTS", 25)
        argv = ["hull", demo_files["runit5"], "--matrix", "--samples"]
        assert self.run(capsys, *argv, "20")[0] == 0
        code, _, err = self.run(capsys, *argv, "21")
        assert code == 2 and "(cap 25)" in err

    def test_second_call_sees_the_defaults(self, capsys, demo_files, tmp_path):
        # the parser is built once per process; each call must still parse
        # into a fresh namespace
        out_path = tmp_path / "net.json"
        S = demo_files["sierpinski"]
        code, payload = self.check_json(
            capsys, "hull", "hull", S, "--samples", "3", "--json", "--out", str(out_path)
        )
        assert code == 0
        assert json.loads(out_path.read_text()) == payload["sample"]
        code, out, _ = self.run(capsys, "hull", S)
        count = len(sample_hull(demo_space("sierpinski"), 100, 0).points)
        assert code == 0
        assert out.startswith(f"hull net of 2-point space: {count} points (seed 0,")
        assert build_parser() is build_parser()

    def test_gh_exact_demo_pair(self, capsys, demo_files):
        code, out, _ = self.run(
            capsys, "gh", demo_files["sierpinski"], demo_files["point"], "--exact"
        )
        assert code == 0
        assert "gh = 0.5" in out

    def test_gh_json_schema_and_witness(self, capsys, demo_files, tmp_path):
        wpath = tmp_path / "w.json"
        code, payload = self.check_json(
            capsys,
            "gh",
            "gh",
            demo_files["sierpinski"],
            demo_files["metric2"],
            "--exact",
            "--witness",
            str(wpath),
            "--json",
        )
        assert code == 0
        assert payload["value"] == 0.5
        witness = json.loads(wpath.read_text())
        jsonschema.validate(witness, load_schema("witness"))

    def test_gh_budget_exit_code(self, capsys, demo_files):
        code, payload = self.check_json(
            capsys,
            "gh",
            "gh",
            demo_files["line3"],
            demo_files["runit5"],
            "--budget",
            "3",
            "--json",
        )
        assert code == 3
        assert not payload["exact"]

    def test_gh_budget_before_any_leaf_exits_3(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        spaces = [random_qspace(8, rng) for _ in range(4)]
        paths = []
        for name, X in zip("xy", spaces[2:]):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(space_to_json(X))
        code, payload = self.check_json(
            capsys, "gh", "gh", *map(str, paths), "--budget", "1", "--json"
        )
        assert code == 3
        assert not payload["exact"] and payload["nodes"] == 2
        # the seed correspondence, one cell per point, not the full 8 x 8
        assert len(payload["correspondence"]) <= 16
        assert payload["value"] == payload["distortion"] / 2.0

    def test_rough_iso_derived(self, capsys, demo_files):
        code, payload = self.check_json(
            capsys,
            "rough_iso",
            "rough-iso",
            demo_files["sierpinski"],
            demo_files["metric2"],
            "--json",
        )
        assert code == 0
        assert payload["eps"] <= 1.0 + 1e-12

    def test_rough_iso_with_map(self, capsys, demo_files, tmp_path):
        mpath = tmp_path / "map.json"
        mpath.write_text('{"map": [0, 1]}')
        code, payload = self.check_json(
            capsys,
            "rough_iso",
            "rough-iso",
            demo_files["sierpinski"],
            demo_files["metric2"],
            "--map",
            str(mpath),
            "--json",
        )
        assert code == 0
        assert payload["map"] == [0, 1]
        assert payload["eps_embed"] == 1.0

    def test_delta_json_schema(self, capsys, demo_files):
        code, payload = self.check_json(
            capsys,
            "delta",
            "delta",
            demo_files["sierpinski"],
            "--samples",
            "150",
            "--restarts",
            "4",
            "--seed",
            "7",
            "--json",
        )
        assert code == 0
        assert 0.45 <= payload["lower"] <= 0.5

    def test_delta_seed_determinism(self, capsys, demo_files):
        args = ("delta", demo_files["line3"], "--samples", "40", "--seed", "9", "--json")
        _, out1, _ = self.run(capsys, *args)
        _, out2, _ = self.run(capsys, *args)
        assert out1 == out2

    def test_fixpoint_json_schema(self, capsys, demo_files, tmp_path):
        mpath = tmp_path / "map.json"
        mpath.write_text('{"map": [0, 0, 1]}')
        code, payload = self.check_json(
            capsys,
            "fixpoint",
            "fixpoint",
            demo_files["line3"],
            "--map",
            str(mpath),
            "--json",
        )
        assert code == 0
        assert payload["gap"] == 0.0

    def test_fixpoint_rejects_expanding_map(self, capsys, demo_files, tmp_path):
        mpath = tmp_path / "map.json"
        mpath.write_text('{"map": [1, 0]}')
        code, _, err = self.run(
            capsys, "fixpoint", demo_files["sierpinski"], "--map", str(mpath)
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("table", ["[5, 0]", "[0]", "[-1, 0]"])
    @pytest.mark.parametrize("command", ["fixpoint", "rough-iso"])
    def test_bad_map_table_exits_2(self, capsys, demo_files, tmp_path, command, table):
        mpath = tmp_path / "map.json"
        mpath.write_text(f'{{"map": {table}}}')
        spaces = [demo_files["sierpinski"]] * (2 if command == "rough-iso" else 1)
        code, _, err = self.run(capsys, command, *spaces, "--map", str(mpath))
        assert code == 2
        assert err.startswith("error: map table")

    def test_missing_file_is_not_a_crash(self, capsys):
        code, _, err = self.run(capsys, "validate", "/nonexistent/space.json")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["demo", "list"], 0),  # fits the buffer: the flush meets the pipe
            (["hull", "runit5", "--samples", "40", "--json"], 0),  # print meets it
            (["gh", "line3", "runit5", "--budget", "3", "--json"], 3),
        ],
        ids=["flush", "print", "budget"],
    )
    def test_closed_stdout_is_not_a_crash(self, demo_files, argv, code):
        # as in `qmet demo list | head -1` once head has exited: no message,
        # and the exit code is the run's
        argv = [str(demo_files.get(a, a)) for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qmet", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code
        assert proc.stderr == b""

    @pytest.mark.parametrize(
        "argv",
        [
            ["hull", "sierpinski", "--samples", "-1"],
            ["delta", "sierpinski", "--samples", "0"],
            ["delta", "sierpinski", "--restarts", "-3"],
            ["gh", "sierpinski", "metric2", "--budget", "-5"],
            ["hull", "sierpinski", "--seed", "-1"],
            ["delta", "sierpinski", "--seed", "-1"],
            ["hull", "sierpinski", "--samples", "100000000000000000000"],
            ["delta", "sierpinski", "--samples", "100000000000000000000"],
            ["hull", "sierpinski", "--samples", str(MAX_SAMPLES + 1)],
        ],
    )
    def test_bad_count_is_a_usage_error(self, capsys, demo_files, argv):
        argv = [demo_files.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as err:
            dispatch(argv)
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["hull", "delta"])
    def test_samples_ceiling_is_inclusive(self, command):
        args = build_parser().parse_args([command, "s.json", "--samples", str(MAX_SAMPLES)])
        assert args.samples == MAX_SAMPLES

    @pytest.mark.parametrize("command", ["validate", "gh"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_is_a_usage_error(self, capsys, demo_files, command, tol):
        spaces = [demo_files["sierpinski"]] * (2 if command == "gh" else 1)
        with pytest.raises(SystemExit) as err:
            dispatch([command, *spaces, "--tol", tol])
        assert err.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_unknown_flag_rejected(self, demo_files):
        with pytest.raises(SystemExit):
            dispatch(["validate", demo_files["sierpinski"], "--frobnicate"])

    @pytest.mark.parametrize("body", [b'{"labels": 5, "d": [[0]]}', b"\xff\xfe\x00"])
    @pytest.mark.parametrize("role", ["space", "map"])
    def test_bad_input_file_exits_2(self, capsys, demo_files, tmp_path, body, role):
        p = tmp_path / "bad.json"
        p.write_bytes(body)
        argv = ["validate", str(p)] if role == "space" else [
            "fixpoint", demo_files["sierpinski"], "--map", str(p)
        ]
        code, out, err = self.run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_hull_past_float_range_exits_2(self, capsys, tmp_path):
        # a valid space whose candidates, drawn in [0, 2 diam], overflow
        p = tmp_path / "huge.json"
        p.write_text('{"d": [[0, 1e308], [1e308, 0]]}')
        code, out, err = self.run(capsys, "hull", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_hull_matrix_near_float_range_exits_0(self, capsys, tmp_path):
        # the net matrix is validated with a slack relative to its largest
        # entry; at the absolute TRIANGLE_TOL its rounding failed M2 (exit 2)
        p = tmp_path / "huge.json"
        p.write_text('{"d": [[0, 8e307], [8e307, 0]]}')
        code, out, err = self.run(capsys, "hull", str(p), "--samples", "50", "--matrix", "--json")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert len(payload["matrix"]) == payload["count"] > 2

    def test_hull_of_a_broken_triangle_exits_2(self, capsys, tmp_path):
        # a space the user supplies keeps the absolute tolerance: an excess
        # of 1e-6 is rejected before any net is drawn
        p = tmp_path / "bent.json"
        p.write_text('{"d": [[0, 1, 2.000001], [1, 0, 1], [1, 1, 0]]}')
        code, out, err = self.run(capsys, "hull", str(p), "--samples", "5", "--matrix")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "M2 at (0, 2, 1)" in err

    def test_failed_command_lists_witnesses_as_validate_does(self, capsys, tmp_path):
        # one formatter: a command that meets a ValidationError prints its
        # witnesses exactly as validate reports them
        p = tmp_path / "bent.json"
        p.write_text('{"d": [[0, 1, 2.000001], [1, 0, 1], [1, 1, 0]]}')
        _, out, _ = self.run(capsys, "validate", str(p))
        code, _, err = self.run(capsys, "hull", str(p), "--samples", "5")
        witnesses = [line for line in out.splitlines() if " at (" in line]
        assert code == 2 and witnesses and err.splitlines()[1:] == witnesses

    def test_sums_past_float_range_are_silent(self, capsys, tmp_path):
        # triangle sums, ampleness gaps and delta's box centres overflow to
        # +inf or are halved first, which changes no verdict and must print
        # no warning
        p = tmp_path / "huge.json"
        p.write_text('{"d": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]}')
        q = tmp_path / "wide.json"
        q.write_text('{"d": [[0, 1.5e308], [1.6e308, 0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (str(p), str(q)):
                for argv in (["validate", f], ["hull", f, "--samples", "0"], ["delta", f]):
                    code, out, err = self.run(capsys, *argv)
                    assert code == 0 and out and err == ""

    def test_unknown_demo_message(self, capsys):
        code, out, err = self.run(capsys, "demo", "frob")
        assert code == 2 and out == ""
        assert err.startswith("error: unknown demo 'frob'")

    def test_json_payloads_are_the_result_dataclasses(self, capsys, demo_files, tmp_path):
        def payload_of(command, *argv):
            code, out, _ = self.run(capsys, command, *argv, "--json")
            payload = json.loads(out)
            keys = list(payload)
            assert keys[0] == "command" and keys[-1] == "tolerances"
            assert payload.pop("command") == command
            assert payload.pop("tolerances") == ledger()
            return code, payload

        X = parse_space(demo_files["runit5"])
        code, payload = payload_of("validate", demo_files["runit5"])
        assert code == 0 and payload["classification"] == plain(asdict(X.classification))

        bad = tmp_path / "bad.json"
        bad.write_text('{"d": [[0, 5, 1], [1, 0, 1], [1, 1, 0]]}')
        with pytest.raises(ValidationError) as err:
            parse_space(bad)
        code, payload = payload_of("validate", str(bad))
        assert code == 2
        assert payload == {"ok": False, "classification": plain(asdict(err.value.report))}

        args = ("--samples", "40", "--restarts", "2", "--seed", "3")
        code, payload = payload_of("delta", demo_files["runit5"], *args)
        est = estimate_delta(X, samples=40)
        assert code == 0 and payload == plain(asdict(est))

        A, B = parse_space(demo_files["sierpinski"]), parse_space(demo_files["runit5"])
        code, payload = payload_of("rough-iso", demo_files["sierpinski"], demo_files["runit5"])
        w = rough_isometry_from_correspondence(gh_exact(A, B).correspondence)
        assert code == 0 and payload["inverse"] == plain(asdict(rough_inverse(w)))

    def test_demo_out_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "m2.json"
        code, _, _ = self.run(capsys, "demo", "metric2", "--out", str(out))
        assert code == 0
        assert parse_space(out) == demo_space("metric2")
