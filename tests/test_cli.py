import json

from crtypes.cli import main, load_model, parse_scalar
from crtypes.fixtures import all_fixtures
from crtypes.gaussian import gr
from crtypes.grammar import parse_poly, poly_to_string
from crtypes.poly import hypersurface_ring


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestModelLoading:
    def test_fixture_by_name_and_sign_flip(self):
        model = load_model("cubic-contact")
        assert model.sign_flipped
        assert model.a_contact == 4
        assert model.frame is not None

    def test_json_suffix_accepted(self):
        assert load_model("cubic-contact.json").name == "cubic-contact"

    def test_round_trip_on_fixture_corpus(self):
        for fx in all_fixtures():
            if fx.get("kind") == "tangency":
                continue
            ring = hypersurface_ring(fx["n"])
            p = parse_poly(ring, fx["rho"])
            assert parse_poly(ring, poly_to_string(p)) == p

    def test_parse_scalar(self):
        from fractions import Fraction

        assert parse_scalar("1i") == gr(0, 1)
        assert parse_scalar("-1/2") == gr(Fraction(-1, 2))
        assert parse_scalar("(1-2i)") == gr(1, -2)


class TestGoldenOutputs:
    def test_contact_cubic_model(self, capsys):
        code, out = run(capsys, "contact", "--model", "cubic-contact", "--s", "1")
        assert code == 0
        assert out == (
            '{\n'
            '  "command": "contact",\n'
            '  "degree_cap": 3,\n'
            '  "model": "cubic-contact",\n'
            '  "notes": [\n'
            '    "leading +2*Re(w) flipped to the -2*Re(w) convention via w -> -w"\n'
            '  ],\n'
            '  "report": {\n'
            '    "cap": 12,\n'
            '    "kind": "contact",\n'
            '    "value": "4",\n'
            '    "witness": "(t,0,0)"\n'
            '  },\n'
            '  "s": 1\n'
            '}\n'
        )

    def test_psh_refutation(self, capsys):
        code, out = run(
            capsys, "psh", "--poly", "z1*conj(z2) + 1/2*z1^2*conj(z1)^2", "--real-part"
        )
        assert code == 0
        assert out == (
            '{\n'
            '  "command": "psh",\n'
            '  "grid_scale": 1,\n'
            '  "poly": "1/2*z2*conj(z1) + 1/2*z1*conj(z2) + 1/2*z1^2*conj(z1)^2",\n'
            '  "verdict": {\n'
            '    "points_checked": 1,\n'
            '    "psd_on_grid": false,\n'
            '    "refuting_point": [\n'
            '      "0",\n'
            '      "1"\n'
            '    ]\n'
            '  }\n'
            '}\n'
        )

    def test_tangency_verify_2_3(self, capsys):
        code, out = run(capsys, "tangency", "verify", "--k", "2", "--m", "3")
        assert code == 0
        assert out == (
            '{\n'
            '  "command": "tangency verify",\n'
            '  "holomorphic_skipped": 480,\n'
            '  "k": 2,\n'
            '  "m": 3,\n'
            '  "max_densification": 0,\n'
            '  "problems": 4,\n'
            '  "refuted": 16,\n'
            '  "survivors": [],\n'
            '  "trivial_real_part": 0,\n'
            '  "verdict": "consistent"\n'
            '}\n'
        )

    def test_vftype_diag(self, capsys):
        code, out = run(capsys, "vftype", "--model", "diag-2-1")
        assert code == 0
        data = json.loads(out)
        assert data["report"]["value"] == "4"
        assert data["report"]["witness"] == "[S1,[S1b,[S1,S1b]]]"

    def test_determinism(self, capsys):
        _, first = run(capsys, "normalize", "--model", "cubic-contact")
        _, second = run(capsys, "normalize", "--model", "cubic-contact")
        assert first == second


class TestExitCodes:
    def test_malformed_polynomial(self, capsys):
        code = main(["psh", "--poly", "z1 ** 2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "column 5" in err

    def test_unknown_fixture(self, capsys):
        code = main(["contact", "--model", "no-such-model", "--s", "1"])
        assert code == 1

    def test_weight_violation_is_structured(self, capsys):
        # strongly pseudoconvex diagonal: k = 2 equals the weighted order
        import json as _json
        import tempfile, os

        data = {
            "n": 3,
            "rho": "-2*Re(w) + z1*conj(z1) + z2*conj(z2)",
            "frame": [["1", "conj(z1)"]],
            "a_contact": 4,
        }
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as fh:
            _json.dump(data, fh)
            path = fh.name
        try:
            code = main(["truncate", "--model", path])
            out = capsys.readouterr().out
            assert code == 2
            assert "error" in out
        finally:
            os.unlink(path)

    def test_tangency_fixture_rejected_by_model_commands(self, capsys):
        code = main(["contact", "--model", "tangency-nonpsh", "--s", "1"])
        assert code == 1

    def test_non_object_model_file(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        for text in ("[1,2]", '{"n": 3, "rho": "-2*Re(w) + z1*conj(z1)", "caps": [1]}'):
            path.write_text(text)
            code = main(["vftype", "--model", str(path)])
            err = capsys.readouterr().err
            assert code == 1
            assert err.startswith("error:") and "JSON object" in err

    def test_cap_below_one_in_model_file(self, tmp_path, capsys):
        path = tmp_path / "negative-cap.json"
        path.write_text(json.dumps({
            "n": 3,
            "rho": "-2*Re(w) + (z1*conj(z1))^2 + z2*conj(z2)",
            "caps": {"bracket_cap": -3},
        }))
        for command in ("vftype", "levitype"):
            code = main([command, "--model", str(path)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "bracket_cap must be an integer >= 1, got -3" in captured.err

    def test_cap_flag_zero_not_replaced_by_default(self, capsys):
        for command in ("vftype", "levitype", "sweep"):
            code = main([command, "--model", "diag-2-1", "--cap", "0"])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.out == ""
            assert "got 0" in captured.err

    def test_deep_parentheses(self, capsys):
        code = main(["psh", "--poly", "(" * 3000 + "z1" + ")" * 3000])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: parentheses nested deeper than 100")
        assert "line 1, column 101" in captured.err

    def test_field_types_in_model_file(self, tmp_path, capsys):
        base = {"n": 3, "rho": "-2*Re(w) + (z1*conj(z1))^2 + z2*conj(z2)"}
        bad = [
            ("n", [3], "n must be an integer"),
            ("n", True, "n must be an integer"),
            ("n", None, "n must be an integer"),
            ("rho", 5, "rho must be a string"),
            ("frame", ["1", "-conj(z1)"], "frame must be a list of lists of strings"),
            ("frame", [[1, 0]], "frame must be a list of lists of strings"),
            ("trial_set", "1", "trial_set must be a list of strings"),
            ("a_contact", [4], "a_contact must be an integer"),
            ("caps", {"coeff_set": [0, 1]}, "caps.coeff_set must be a list of strings"),
        ]
        path = tmp_path / "bad.json"
        for key, value, message in bad:
            path.write_text(json.dumps({**base, key: value}))
            code = main(["vftype", "--model", str(path)])
            captured = capsys.readouterr()
            assert code == 1, (key, value)
            assert captured.out == ""
            assert captured.err.startswith("error:") and message in captured.err

    def test_pure_w_term_in_chi(self, tmp_path, capsys):
        path = tmp_path / "pure-w.json"
        path.write_text(json.dumps({
            "n": 2, "rho": "-2*Re(w) + z1*conj(z1) + w*conj(w)"}))
        code = main(["contact", "--model", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in json.loads(captured.out)
        assert captured.err.startswith("error:") and "w*conj(w) has no z factor" in captured.err

    def test_null_optional_fields_accepted(self, tmp_path, capsys):
        path = tmp_path / "nulls.json"
        path.write_text(json.dumps({
            "n": 3,
            "rho": "-2*Re(w) + (z1*conj(z1))^2 + z2*conj(z2)",
            "frame": None, "trial_set": None, "a_contact": None,
        }))
        assert main(["vftype", "--model", str(path), "--cap", "3"]) == 0


class TestTextMode:
    def test_fixtures_text(self, capsys):
        code, out = run(capsys, "--text", "fixtures")
        assert code == 0
        assert "cubic-contact" in out
        assert "{" not in out.splitlines()[0]


class TestFixtureWriting:
    def test_write_and_reload(self, tmp_path, capsys):
        code, out = run(capsys, "fixtures", "--write", str(tmp_path))
        assert code == 0
        written = json.loads(out)["written"]
        assert len(written) == 12
        model = load_model(str(tmp_path / "cubic-contact.json"))
        assert model.a_contact == 4
