import hashlib
import json

import jsonschema
import pytest

from latfact import cli, finite, instances


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


@pytest.mark.parametrize("gens", [(3, 5), (3, 5, 7), (4, 5, 6)],
                         ids=["3,5", "3,5,7", "4,5,6"])
def test_numerical_labels_parse_back(gens):
    N = instances.numerical_monoid(gens)
    for x in N.window(budget=64):
        assert cli._parse_element(N, N.label(x)) == x, N.label(x)


def test_numerical_member_literals(capsys):
    # the condition-1 witness of the numerical:3,5 golden report
    code, out, err = run(capsys, "factor", "--builtin", "numerical:3,5",
                         "--element", "{3,6,8,9,11+}")
    assert code == 1 and "{3,6,8,9,11+} != M" in out and err == ""
    code, out, _ = run(capsys, "factor", "--builtin", "numerical:3,5",
                       "--element", "{3,5,6,8+}")
    assert code == 0 and "chain: M" in out
    for literal, message in (("{3,8+}", "it holds 3 but not 3 + 3"),
                             ("{1,8+}", "1 is not an element"),
                             ("{3,5+}", "contains the gap 7"),
                             ("{3,x+}", "malformed element literal")):
        code, out, err = run(capsys, "factor", "--builtin", "numerical:3,5",
                             "--element", literal)
        assert code == 2 and out == "" and message in err, literal


def test_factor_parse_error(capsys):
    code, _, err = run(capsys, "factor", "--builtin", "dedekind:3",
                       "--element", "11:2")
    assert code == 2 and "unknown prime" in err
    code, _, err = run(capsys, "factor", "--builtin", "rank2",
                       "--element", "Quux(1)")
    assert code == 2
    code, out, err = run(capsys, "factor", "--builtin", "dedekind:3",
                         "--element", "2:x")
    assert code == 2 and out == "" and "malformed element literal" in err


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


@pytest.mark.parametrize("selector, message", [
    ("nonsense:1", "unknown builtin"),
    ("zmod:1", "malformed builtin selector 'zmod:1': modulus"),
    ("numerical:4,6", "malformed builtin selector 'numerical:4,6': generators"),
    ("power-of-j:4", "malformed builtin selector 'power-of-j:4': j has exponent"),
    # validate checks tables; the closed-form builtins have none
    ("dedekind:3", "pass zmod:<n>, s-system:zmod-mult:<n>, d-system:zmod:<n> or --file"),
    ("rank2", "not the closed-form builtin 'rank2'"),
    ("numerical:3,5", "not the closed-form builtin 'numerical:3,5'"),
    ("power-of-j:30", "not the closed-form builtin 'power-of-j:30'"),
], ids=["nonsense:1", "zmod:1", "numerical:4,6", "power-of-j:4",
        "dedekind:3", "rank2", "numerical:3,5", "power-of-j:30"])
def test_unknown_builtin(capsys, selector, message):
    code, out, err = run(capsys, "validate", "--builtin", selector)
    assert code == 2 and message in err
    assert out == "" and "Traceback" not in err


def test_props_single_criterion(capsys):
    code, out, _ = run(capsys, "props", "--criteria", "4")
    assert code == 0
    assert out.startswith("PASS criterion-4")


def test_props_json_report(capsys):
    code, out, _ = run(capsys, "props", "--criteria", "1", "--format", "json")
    doc = json.loads(out)
    assert code == 0 and doc["all_pass"] is True
    (entry,) = doc["criteria"]
    assert set(entry) == {"key", "name", "passed", "detail", "elapsed_s"}
    assert entry["key"] == "criterion-1" and entry["passed"] is True
    assert isinstance(entry["elapsed_s"], float)


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


@pytest.mark.parametrize("command", ["validate", "factor", "check-sp", "represent"])
def test_unreadable_file_is_malformed(tmp_path, capsys, command):
    element = ["--element", "1"] if command == "factor" else []
    (tmp_path / "truncated.json").write_text('{"elements": [', encoding="utf-8")
    (tmp_path / "latin1.json").write_bytes(b'{"name": "\xe9"}')
    for name in ("missing.json", "truncated.json", "latin1.json"):
        code, out, err = run(capsys, command, "--file", str(tmp_path / name), *element)
        assert code == 2 and out == "", (command, name)
        assert err.startswith("parse error:") and "Traceback" not in err, (command, name)


def _two_chain_file(path):
    path.write_text(json.dumps({"name": "two-chain", "elements": ["0", "1"],
                                "leq": [[1, 1], [0, 1]], "mul": [[0, 0], [0, 1]]}),
                    encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv, exhaustive", [
    (["--builtin", "zmod:2"], True),
    (["--builtin", "zmod:7"], True),
    (["--file", "two-chain.json"], True),
    (["--builtin", "dedekind:2", "--window", "24"], False),
    (["--builtin", "power-of-j:30", "--window", "24"], False),
    (["--builtin", "rank2"], False),
    (["--builtin", "numerical:3,5", "--window", "40"], False),
], ids=["zmod:2", "zmod:7", "two-chain", "dedekind:2", "power-of-j:30", "rank2",
        "numerical:3,5"])
def test_check_sp_scopes_are_honest(tmp_path, monkeypatch, capsys, argv, exhaustive):
    # "exhaustive" means every element was checked: on a finite carrier
    # every condition is, and a sampled check never passes as exhaustive
    monkeypatch.chdir(tmp_path)
    _two_chain_file(tmp_path / "two-chain.json")
    code, out, _ = run(capsys, "check-sp", *argv, "--format", "json")
    scopes = [v["scope"] for v in json.loads(out)["verdicts"] if "scope" in v]
    assert code == 0 and len(scopes) == 6
    if exhaustive:
        assert set(scopes) == {"exhaustive"}
    else:
        assert "exhaustive" not in scopes


def test_seed_reaches_the_sampled_parts(capsys, monkeypatch):
    seen = []
    window = instances.DedekindExponentLattice.window
    validate = finite.FiniteMultLattice.validate
    monkeypatch.setattr(instances.DedekindExponentLattice, "window",
                        lambda self, budget=48, seed=0:
                        seen.append(("window", seed)) or window(self, budget, seed))
    monkeypatch.setattr(finite.FiniteMultLattice, "validate",
                        lambda self, seed=0:
                        seen.append(("validate", seed)) or validate(self, seed))
    for argv, call in ((["check-sp", "--builtin", "dedekind:2", "--window", "24"], "window"),
                       (["represent", "--builtin", "dedekind:2", "--window", "24"], "window"),
                       (["validate", "--builtin", "zmod:12"], "validate")):
        seen.clear()
        code, _, _ = run(capsys, *argv, "--seed", "3")
        assert code == 0 and (call, 3) in seen, argv
    # seeds pick different windows, so the flag is not decorative
    L = instances.dedekind(2)
    assert window(L, 24, 0).sample != window(L, 24, 1).sample


def _two_axiom_failures(path):
    doc = finite.save(finite.materialize_from_divisors(12))
    doc["mul"][1][2] = 0  # 2 * 3 no longer commutes
    doc["mul"][0][3] = 0  # the top no longer fixes 4
    path.write_text(json.dumps(doc), encoding="utf-8")


# sha256 of the --format json stdout; these pin the report bytes of the
# closed-form catalogs, the generic finite forms and ideal-system masks.
# Reports that name a finite:...#n lattice id are left out, because the
# id counts the lattices made so far in the process.
GOLDEN_REPORTS = {
    "check-sp --builtin dedekind:2 --window 24":
        "3f9c939769c0bc5fba303864dbf3f6daed41306a56f892abeec19100df70e95b",
    "check-sp --builtin rank2":
        "cd04806ff7c4c0b24a9c7d708fb8d7879e2fe4f4b4dd397eeb05954808873e03",
    "check-sp --builtin numerical:3,5 --window 40":
        "8dbf131de917ac00455e34872b72e199cf8cbc87cb08d0d6b85e29e6e4b29ff4",
    "check-sp --builtin power-of-j:30 --window 24":
        "e3c70e28ce0d17978e7cd13dbd81cc41aec4deefd41d6d86f82e1928e0034b50",
    "check-sp --builtin zmod:7":
        "a6c6f96a22217eeff6ba86645c12ddfad18c7300b1df70a26573b89c49c3df04",
    "represent --builtin dedekind:2 --window 24":
        "dffecce1b17f53fe6f05f21f8a4c87db93fee327572adf6447bf0c5024f13c91",
    "represent --builtin power-of-j:30 --window 24":
        "42efa99a6f6b9e1a4115ab2082f14bd56e0d3b8cc2f916d5e8f78e5406d2f12e",
    "represent --builtin zmod:7":
        "0b2eb743d94e82adc5d6ea2a1ab5e7ac64b4947da60e820059dba7790c7ba85e",
    "factor --builtin zmod:12 --element 4":
        "976e885dbd11bf8a07d6be163c488a7ce74d26215a7350e6402948285228631a",
    "factor --builtin dedekind:3 --element 2:2,3:1":
        "329f9e178ec77dce3cd3cb3f546d9cf971d025a3686b49b6c68814d337303bac",
    "factor --builtin d-system:zmod:12 --element mask:1":
        "93ac47e511f1a0af27ee9f8a222fc8f3e54e82090f3ceccd9f8e2626e1d66071",
    "validate --builtin d-system:zmod:12":
        "f84eccbe6bf5c6d68cda5894743b8cb2461d223642ad0342ae43daf5d6c7eb33",
    "validate --file bad.json":
        "6eeb339cd4426e764159f001a4b3c9788fbffab3f3a64c7935a975a439fc7359",
    # the benchmark's own sp-presented commands
    "check-sp --builtin numerical:3,4 --window 250":
        "e854ab5e26baeeb8f5783fb9cc16ba6f68930deec16e9c7034020813a6b797a7",
    "check-sp --builtin numerical:4,5,6 --window 120":
        "51ded865884119c3b1673cdf3048e64b7d6791811681edb958cc0e57e77eed51",
    "check-sp --builtin dedekind:5 --window 36":
        "24c7d9af72f7dc07fd572e8f722dd40598f99bdd0206e00ea338663d8eb7f3bd",
    "check-sp --builtin power-of-j:8671 --window 46":
        "8552d52a4dd289225503530a91c330490b8a933213cceda33fd588f14c7624a6",
}


def test_json_reports_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report config carries the file name
    _two_axiom_failures(tmp_path / "bad.json")
    digests = {}
    for command in GOLDEN_REPORTS:
        _, out, _ = run(capsys, *command.split(), "--format", "json")
        assert "#" not in out, command
        digests[command] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == GOLDEN_REPORTS
