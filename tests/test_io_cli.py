import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import currentalg as ca
from currentalg.cli import run_command
from currentalg.io import (
    AlgebraFileError,
    algebra_from_dict,
    cochain_from_dict,
    emit_algebra,
    parse_algebra_file,
    parse_cochain_file,
    write_algebra_file,
)

from conftest import deformation_oracle

F = Fraction


def test_parse_examples(fixture_dir):
    alg = parse_algebra_file(fixture_dir / "r2.json")
    assert alg == ca.r2()
    alg = parse_algebra_file(fixture_dir / "m1_2.json")
    assert alg == ca.m1(2)
    qi = parse_algebra_file(fixture_dir / "real_rigid_2_1_qi.json")
    assert qi.field == ca.QI
    assert qi == ca.complexify(ca.real_rigid(2, 1))


def test_parse_rejects_lower_triangular():
    doc = {"name": "x", "kind": "lie", "field": "Q", "dim": 2,
           "constants": [[2, 1, 2, "1"]]}
    with pytest.raises(AlgebraFileError, match="lower-triangular"):
        algebra_from_dict(doc)


def test_parse_error_diagnostics():
    base = {"name": "x", "kind": "lie", "field": "Q", "dim": 2,
            "constants": []}
    cases = [
        ({**base, "dim": 0}, "dim"),
        ({**base, "kind": "weird"}, "kind"),
        ({**base, "constants": [[1, 2, 3, "1"]]}, "out of range"),
        ({**base, "constants": [[1, 2, 2, "1"], [1, 2, 2, "1"]]}, "duplicate"),
        ({**base, "constants": [[1, 2, 2, "1/0"]]}, "malformed"),
        ({**base, "constants": [[1, 2, 2, "0.5"]]}, "malformed"),
        ({**base, "extra": 1}, "unknown keys"),
        ({**base, "basis": ["a"]}, "basis"),
        ({**base, "dim": True}, "dim"),
        ({**base, "constants": [[True, 2, 2, "1"]]}, "out of range"),
        ({**base, "constants": [[1, 1, 2, "1"]]}, r"lower-triangular entry \(1,1\)"),
    ]
    for doc, needle in cases:
        with pytest.raises(AlgebraFileError, match=needle):
            algebra_from_dict(doc)


def test_cochain_parse_error_diagnostics(fixture_dir, tmp_path, capsys):
    base = {"field": "Q", "dim": 2, "degree": 2, "entries": []}
    cases = [
        ({**base, "dim": True}, r"<doc>\.dim: must be a positive integer"),
        ({**base, "entries": 5}, r"<doc>\.entries: must be a list"),
        ({**base, "entries": [[True, 2, 1, "1"]]},
         r"entries\[0\]: index i=True out of range"),
        ({**base, "entries": [[1, 2, 1, "0"], [1, 2, 1, "3"]]},
         r"entries\[1\]: duplicate key \(1,2,1\)"),
        ({**base, "entries": [[2, 1, 1, "1"]]}, "i < j"),
        ({**base, "degree": 2.0}, r"<doc>\.degree: only degree-2 cochains are supported"),
        ({**base, "degree": True}, r"<doc>\.degree: only degree-2 cochains are supported"),
        ({**base, "entries": [[1, 1, 2, "1"]]}, r"entry \(1,1\) must have i < j"),
        # the row cases pinned for algebra files, through the same row reader
        ({**base, "entries": [[1, 2, 3, "1"]]}, r"entries\[0\]: index k=3 out of range 1\.\.2"),
        ({**base, "entries": [[1, 2, 1, "1/0"]]}, r"entries\[0\]: malformed rational '1/0'"),
        ({**base, "entries": [[1, 2, 1, "0.5"]]}, r"entries\[0\]: malformed rational '0\.5'"),
        ({**base, "entries": [[1, 2, 1]]}, r"entries\[0\]: each entry must be \[i, j, k, coeff\]"),
        ({**base, "entries": [[1, 2, 1, "1"], "1,2,2,1"]},
         r"entries\[1\]: each entry must be \[i, j, k, coeff\]"),
    ]
    for doc, needle in cases:
        with pytest.raises(AlgebraFileError, match=needle):
            cochain_from_dict(doc)
        path = tmp_path / "cochain.json"
        path.write_text(json.dumps(doc))
        code, out, err = _run(capsys, "deform", str(fixture_dir / "abelian2.json"),
                              "--cochain", str(path), "--order", "1")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}") and "Traceback" not in err


def test_round_trip_corpus(fixture_dir):
    for path in sorted(fixture_dir.glob("*.json")):
        if path.name.startswith("cochain"):
            continue
        text = path.read_text()
        alg = parse_algebra_file(path)
        # emit . parse is the identity; parse . emit is canonicalization
        assert parse_algebra_file(io.StringIO(emit_algebra(alg))) == alg
        if path.name != "r2_corrupt3.json":
            assert emit_algebra(alg) == text  # fixtures are canonical


def test_emit_is_canonical_bytes():
    alg = ca.r2()
    out = io.StringIO()
    write_algebra_file(alg, out)
    again = parse_algebra_file(io.StringIO(out.getvalue()))
    assert emit_algebra(again) == out.getvalue()


def test_cochain_file(fixture_dir):
    c = parse_cochain_file(fixture_dir / "cochain_r2_x1.json")
    assert c.degree == 2 and c.dim == 2
    assert c.value((1, 2)) == (F(1), F(0))


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_validate(fixture_dir, capsys):
    code, out, _ = _run(capsys, "validate", str(fixture_dir / "r2.json"))
    assert code == 0
    assert "Jacobi: pass" in out

    code, out, _ = _run(capsys, "validate", str(fixture_dir / "r2_corrupt3.json"))
    assert code == 1
    assert "fail" in out and "(1, 2, 3, 2)" in out


def test_cli_validate_assoc(fixture_dir, capsys):
    code, out, _ = _run(capsys, "validate", str(fixture_dir / "m1_3.json"))
    assert code == 0
    assert "associativity: pass" in out


def test_cli_usage_errors(fixture_dir, capsys):
    code, _, err = _run(capsys, "validate", "no-such-file.json")
    assert code == 2
    code, _, err = _run(capsys, "cohomology", "--degree", "2",
                        str(fixture_dir / "m1_2.json"))
    assert code == 2
    code, _, err = _run(capsys, "harrison", str(fixture_dir / "r2.json"))
    assert code == 2
    code, _, err = _run(capsys, "frobnicate")
    assert code == 2


def test_cli_cohomology_and_harrison(fixture_dir, capsys):
    code, out, _ = _run(capsys, "--json", "cohomology", "--degree", "2",
                        str(fixture_dir / "r2.json"))
    assert code == 0
    data = json.loads(out)["data"]
    assert data["dim_H"] == 0 and data["dim_Z"] == 2

    code, out, _ = _run(capsys, "--json", "harrison",
                        str(fixture_dir / "null1.json"))
    assert code == 0
    assert json.loads(out)["data"]["dim_H"] == 1


def test_cli_cohomology_and_harrison_require_identities(fixture_dir, tmp_path, capsys):
    # Tables that fail their identities exit 1 before any rank is taken: a
    # non-Lie table whose H^2 would read 0, and two corrupt fixtures whose
    # ranks give inconsistent dimensions.
    bad = tmp_path / "bad3.json"
    write_algebra_file(ca.Algebra("bad3", ca.LIE, ca.Q, 3, {
        (1, 2): (-1, 1, 0), (1, 3): (1, 1, 1), (2, 3): (-1, -1, 1)}), bad)
    cases = [("cohomology", "--degree", "2", str(bad))]
    cases += [("cohomology", "--degree", d, str(fixture_dir / "r2_corrupt3.json"))
              for d in ("1", "2")]
    cases += [("harrison", str(fixture_dir / "m1_2_corrupt.json"))]
    for argv in cases:
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("identity check failed: ") and " first (" in err, argv


def test_cli_current_pipe(fixture_dir, tmp_path, capsys):
    out_file = tmp_path / "cur.json"
    code, _, _ = _run(capsys, "current", str(fixture_dir / "r2.json"),
                      str(fixture_dir / "m1_2.json"), "-o", str(out_file))
    assert code == 0
    flat = parse_algebra_file(out_file)
    assert flat == ca.current_algebra(ca.r2(), ca.m1(2))

    code, out, _ = _run(capsys, "rigidity", str(out_file))
    assert code == 0
    assert "RigidByH2Zero" in out


def test_cli_current_identity_failure(fixture_dir, capsys):
    code, _, err = _run(capsys, "current",
                        str(fixture_dir / "r2_corrupt3.json"),
                        str(fixture_dir / "m1_2.json"))
    assert code == 1
    assert "identity" in err.lower()


def test_cli_pierce(fixture_dir, capsys):
    code, out, _ = _run(capsys, "pierce", str(fixture_dir / "m1_2.json"),
                        "--idempotent", "1,0")
    assert code == 0
    assert "a11" in out and "a00" in out

    code, out, _ = _run(capsys, "pierce", str(fixture_dir / "m1_2.json"),
                        "--idempotent", "auto")
    assert code == 0

    code, out, _ = _run(capsys, "pierce", str(fixture_dir / "m1_2.json"),
                        "--idempotent", "2,0")
    assert code == 1

    code, out, _ = _run(capsys, "pierce", str(fixture_dir / "null2.json"),
                        "--idempotent", "auto")
    assert code == 1

    # Gaussian-rational coordinates in the CSV form
    code, out, _ = _run(capsys, "pierce",
                        str(fixture_dir / "real_rigid_2_1_qi.json"),
                        "--idempotent", "1/2,1/2i")
    assert code == 0
    assert "a11: dim=1" in out and "a00: dim=1" in out


def test_cli_pierce_rejects_malformed_coordinate(fixture_dir, capsys):
    # "0/11/2i" is two fractions before the i, not 0 + i/2
    code, _, err = _run(capsys, "pierce", str(fixture_dir / "real_rigid_2_1_qi.json"),
                        "--idempotent", "1/2,0/11/2i")
    assert code == 2 and "malformed Gaussian rational '0/11/2i'" in err


def test_cli_pierce_negative_first_coordinate(fixture_dir, capsys):
    # argparse alone reads "-0,1" after --idempotent as an option; each form takes it as the value
    m1_2 = str(fixture_dir / "m1_2.json")
    for argv in (["--idempotent", "-0,1"], ["--idempotent=-0,1"], ["--idem", "-0,1"]):
        code, out, _ = _run(capsys, "pierce", m1_2, *argv)
        assert code == 0 and "idempotent: 0, 1" in out
    for argv in (["--idempotent", "-1/2,0"], ["--idempotent=-1/2,0"]):
        code, out, _ = _run(capsys, "pierce", m1_2, *argv)
        assert code == 1 and "not a nonzero idempotent" in out and "-1/2, 0" in out
    # "--" as the value: argparse gives [] up to Python 3.12 and "--" from 3.13
    for argv in (["--idempotent", "--"], ["--idempotent=--"]):
        code, _, err = _run(capsys, "pierce", m1_2, *argv)
        assert code == 2 and "expected one argument" in err


def test_cli_unreadable_inputs_exit_2(fixture_dir, tmp_path, capsys):
    # int() reads at most 4300 digits by default; neither input may end in a traceback
    big = "9" * 5000
    code, _, err = _run(capsys, "pierce", str(fixture_dir / "m1_2.json"), "--idempotent", f"1,{big}")
    assert code == 2 and "malformed rational" in err
    huge = tmp_path / "huge.json"
    huge.write_text('{"name": "a", "kind": "lie", "field": "Q", "dim": %s, "constants": []}' % big)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xe9", "kind": "lie", "field": "Q", "dim": 1, "constants": []}')
    for path in (huge, latin1):
        code, _, err = _run(capsys, "validate", str(path))
        assert code == 2 and f"{path}: invalid JSON" in err


def test_cli_rigid_pq(fixture_dir, capsys):
    code, out, _ = _run(capsys, "rigid-pq", str(fixture_dir / "r2.json"),
                        str(fixture_dir / "m1_2.json"))
    assert code == 0
    assert "RigidByH2Zero" in out
    code, out, _ = _run(capsys, "rigid-pq", str(fixture_dir / "r2.json"),
                        str(fixture_dir / "null1.json"))
    assert code == 0
    assert "Inconclusive" in out


def test_cli_deform(fixture_dir, capsys):
    code, out, _ = _run(capsys, "deform", str(fixture_dir / "abelian2.json"),
                        "--cochain", str(fixture_dir / "cochain_r2_x1.json"),
                        "--order", "3")
    assert code == 0
    assert "ok_up_to: 3" in out

    code, out, _ = _run(capsys, "deform",
                        str(fixture_dir / "heisenberg3.json"),
                        "--cochain",
                        str(fixture_dir / "cochain_heis3_obstructed.json"),
                        "--order", "2")
    assert code == 1
    assert "order=1" in out and "1, 2, 3" in out

    for alg, cochain in (("abelian2", "cochain_r2_x1"),
                         ("heisenberg3", "cochain_heis3_obstructed")):
        algebra_path = fixture_dir / f"{alg}.json"
        cochain_path = fixture_dir / f"{cochain}.json"
        code, out, _ = _run(capsys, "--json", "deform", str(algebra_path),
                            "--cochain", str(cochain_path), "--order", "1000000")
        data = json.loads(out)["data"]
        # one cochain: every coefficient above order 2 vanishes
        ok_up_to, first = deformation_oracle(ca.TruncatedDeformation(
            base=parse_algebra_file(algebra_path),
            cochains=(parse_cochain_file(cochain_path),), order=2))
        if first is None:
            assert code == 0 and data["ok_up_to"] == 1000000
            assert data["first_obstruction"] is None
        else:
            assert code == 1 and data["ok_up_to"] == ok_up_to
            assert data["first_obstruction"] == {"order": first[0], "triple": list(first[1])}


def test_cli_analyze(fixture_dir, capsys):
    code, out, _ = _run(capsys, "--json", "analyze",
                        str(fixture_dir / "m1_2.json"))
    assert code == 0
    fp = json.loads(out)["data"]["fingerprint"]
    assert fp["idempotent_count"] == 3 and fp["unit_exists"] is True

    code, _, _ = _run(capsys, "analyze", str(fixture_dir / "r2_corrupt3.json"))
    assert code == 1


def test_cli_analyze_checks_the_identities_once(fixture_dir, capsys, monkeypatch):
    # fingerprint checks the identities first; the failure report is built
    # from a second check only when that one raises.
    check, calls = ca.algebra.check_identities, []

    def counted(alg):
        calls.append(alg.name)
        return check(alg)

    for module in (ca.algebra, ca.cli):
        monkeypatch.setattr(module, "check_identities", counted)
    code, _, _ = _run(capsys, "analyze", str(fixture_dir / "sl2.json"))
    assert code == 0 and calls == ["sl2"]

    corrupt = str(fixture_dir / "r2_corrupt3.json")
    code, out, _ = _run(capsys, "--json", "analyze", corrupt)
    assert code == 1 and json.loads(out) == {
        "command": "analyze", "ok": False,
        "data": {"fingerprint": {"name": "r2-corrupt3", "passed": False,
                                 "violations": [[1, 2, 3, 2]]}}}
    code, out, _ = _run(capsys, "analyze", corrupt)
    assert code == 1 and out == ("command: analyze\nfingerprint: name=r2-corrupt3, "
                                 "passed=no, violations=(1, 2, 3, 2)\n")


def test_cli_catalog(capsys, tmp_path):
    code, out, _ = _run(capsys, "catalog", "list")
    assert code == 0
    assert "realRigid" in out

    code, out, _ = _run(capsys, "catalog", "emit", "realRigid", "n=2", "s=1")
    assert code == 0
    alg = parse_algebra_file(io_from(out))
    assert alg == ca.real_rigid(2, 1)

    code, out, _ = _run(capsys, "--field", "Qi", "catalog", "emit", "M1", "q=2")
    assert code == 0
    assert parse_algebra_file(io_from(out)) == ca.complexify(ca.m1(2))

    code, _, _ = _run(capsys, "catalog", "emit", "nonsense")
    assert code == 2
    code, _, _ = _run(capsys, "catalog", "emit", "abelian", "n=two")
    assert code == 2


def io_from(text):
    return io.StringIO(text)


def test_cli_stdin_dash(fixture_dir, capsys, monkeypatch):
    text = (fixture_dir / "r2.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = _run(capsys, "rigidity", "-")
    assert code == 0
    assert "RigidByH2Zero" in out


def test_cli_exit_codes_stable_over_corpus(fixture_dir, capsys):
    for path in sorted(fixture_dir.glob("*.json")):
        if path.name.startswith("cochain"):
            continue
        expected = 1 if "corrupt" in path.name else 0
        code, _, _ = _run(capsys, "validate", str(path))
        assert code == expected, path.name


def test_cli_json_reports_validate_against_schema(fixture_dir, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    import currentalg

    schema_path = (Path(currentalg.__file__).parent / "schemas"
                   / "report.schema.json")
    schema = json.loads(schema_path.read_text())
    validator = jsonschema.Draft202012Validator(schema)

    runs = [
        ("--json", "validate", str(fixture_dir / "r2.json")),
        ("--json", "validate", str(fixture_dir / "r2_corrupt3.json")),
        ("--json", "analyze", str(fixture_dir / "sl2.json")),
        ("--json", "cohomology", "--degree", "1", str(fixture_dir / "r2.json")),
        ("--json", "harrison", str(fixture_dir / "m1_2.json")),
        ("--json", "pierce", str(fixture_dir / "m1_2.json"),
         "--idempotent", "1,0"),
        ("--json", "rigidity", str(fixture_dir / "r2.json")),
        ("--json", "rigid-pq", str(fixture_dir / "r2.json"),
         str(fixture_dir / "m1_2.json")),
        ("--json", "deform", str(fixture_dir / "abelian2.json"),
         "--cochain", str(fixture_dir / "cochain_r2_x1.json"), "--order", "2"),
        ("--json", "catalog", "list"),
        ("--json", "current", str(fixture_dir / "r2.json"),
         str(fixture_dir / "m1_2.json")),
        ("--json", "catalog", "emit", "sl2"),
    ]
    for argv in runs:
        code = run_command(list(argv))
        out = capsys.readouterr().out
        assert code in (0, 1)
        validator.validate(json.loads(out))


def test_algebra_schema_accepts_fixtures(fixture_dir):
    jsonschema = pytest.importorskip("jsonschema")
    import currentalg

    schema = json.loads((Path(currentalg.__file__).parent / "schemas"
                         / "algebra.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for path in sorted(fixture_dir.glob("*.json")):
        if path.name.startswith("cochain"):
            continue
        validator.validate(json.loads(path.read_text()))


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "currentalg.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 2  # usage error: no command


def test_runtime_needs_no_sympy():
    # a fresh interpreter in which `import sympy` fails
    src = Path(ca.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(Path(__file__).parent / "smoke_no_sympy.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("no sympy loaded")


def test_shell_pipeline(fixture_dir):
    build = subprocess.run(
        [sys.executable, "-m", "currentalg.cli", "current",
         str(fixture_dir / "r2.json"), str(fixture_dir / "m1_2.json")],
        capture_output=True, text=True)
    assert build.returncode == 0
    verdict = subprocess.run(
        [sys.executable, "-m", "currentalg.cli", "rigidity", "-"],
        input=build.stdout, capture_output=True, text=True)
    assert verdict.returncode == 0
    assert "H2: 0" in verdict.stdout and "RigidByH2Zero" in verdict.stdout
