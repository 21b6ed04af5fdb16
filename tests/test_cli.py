import json

import jsonschema

from latfact import cli, finite


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin_lattice(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "zmod:12")
    assert code == 0
    assert "mul_associative: True" in out


def test_validate_system_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "s-system:zmod-mult:4")
    assert code == 0
    assert "axiom_A: True" in out
    code, _, _ = run(capsys, "validate", "--builtin", "d-system:zmod:12")
    assert code == 0


def test_validate_broken_document(tmp_path, capsys):
    doc = finite.save(finite.materialize_from_divisors(12))
    doc["leq"][0][1] = 1  # 1 <= 2 alongside 2 <= 1: a cycle
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 2
    assert "antisymmetric" in err


def test_validate_axiom_failure_exits_one(tmp_path, capsys):
    doc = finite.save(finite.materialize_from_divisors(12))
    doc["mul"][1][2] = doc["mul"][2][1] = 0  # corrupt 2 * 3 keeping symmetry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "validate", "--file", str(path))
    assert code == 1
    assert "False" in out


def test_factor_commands(capsys):
    code, out, _ = run(capsys, "factor", "--builtin", "dedekind:3",
                       "--element", "2:2,3:1")
    assert code == 0
    assert "chain: 2:1,3:1 | 2:1" in out
    code, out, _ = run(capsys, "factor", "--builtin", "zmod:12", "--element", "4")
    assert code == 0
    assert "chain: 2 | 2" in out
    code, out, _ = run(capsys, "factor", "--builtin", "numerical:2,3",
                       "--element", "ideal:3+H")
    assert code == 1
    assert "witness engine" in out


def test_factor_parse_error(capsys):
    code, _, err = run(capsys, "factor", "--builtin", "dedekind:3",
                       "--element", "11:2")
    assert code == 2 and "unknown prime" in err
    code, _, err = run(capsys, "factor", "--builtin", "rank2",
                       "--element", "Quux(1)")
    assert code == 2


def test_check_sp_exit_codes(capsys):
    for selector in ("dedekind:3", "rank2", "numerical:2,3"):
        code, out, _ = run(capsys, "check-sp", "--builtin", selector)
        assert code == 0, selector
        assert "agreement: True" in out
    code, out, _ = run(capsys, "check-sp", "--builtin", "numerical:2,3",
                       "--flavor", "monoid-8.5")
    assert code == 0
    assert out.count("False") >= 6


def test_represent_commands(capsys):
    code, out, _ = run(capsys, "represent", "--builtin", "dedekind:3",
                       "--window", "40")
    assert code == 0
    assert "surjective_on_window: True" in out
    code, out, _ = run(capsys, "represent", "--builtin", "power-of-j:30")
    assert code == 0
    assert "spectrum_points: 3" in out
    code, out, _ = run(capsys, "represent", "--builtin", "rank2")
    assert code == 1
    assert "dimension 2" in out


def test_json_reports_validate_against_schema(capsys):
    for argv in (
        ["validate", "--builtin", "zmod:12", "--format", "json"],
        ["factor", "--builtin", "zmod:12", "--element", "4", "--format", "json"],
        ["check-sp", "--builtin", "rank2", "--format", "json"],
        ["represent", "--builtin", "power-of-j:30", "--format", "json"],
    ):
        code, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        jsonschema.validate(doc, cli.REPORT_SCHEMA)
        assert doc["command"] == argv[0]


def test_json_reports_deterministic(capsys):
    first = run(capsys, "check-sp", "--builtin", "dedekind:2", "--format", "json")
    second = run(capsys, "check-sp", "--builtin", "dedekind:2", "--format", "json")
    assert first == second


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "validate", "--builtin", "nonsense:1")
    assert code == 2 and "unknown builtin" in err


def test_props_single_criterion(capsys):
    code, out, _ = run(capsys, "props", "--criteria", "4")
    assert code == 0
    assert out.startswith("PASS criterion-4")


def test_timing_flag_attaches_timing(capsys):
    code, out, _ = run(capsys, "validate", "--builtin", "zmod:12",
                       "--format", "json", "--timing")
    doc = json.loads(out)
    assert code == 0 and "timing" in doc
    jsonschema.validate(doc, cli.REPORT_SCHEMA)


def test_window_below_one_is_malformed(capsys):
    for command in ("check-sp", "represent"):
        for budget in ("0", "-3"):
            code, out, err = run(capsys, command, "--builtin", "dedekind:2",
                                 "--window", budget)
            assert code == 2, (command, budget)
            assert out == "" and "--window must be at least 1" in err
        code, _, _ = run(capsys, command, "--builtin", "dedekind:2", "--window", "1")
        assert code == 0, command
