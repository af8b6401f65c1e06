import json

import pytest

from setdev.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dev_text(capsys):
    code, out, _ = run(capsys, "dev", '{"dom":3,"cod":2,"table":[0,0,1]}')
    assert code == 0
    assert "kernel partition: [[0, 1], [2]]" in out
    assert "missed: []" in out
    assert "surjective" in out


def test_dev_identity(capsys):
    code, out, _ = run(capsys, "dev", '{"dom":3,"cod":3,"table":[0,1,2]}')
    assert code == 0
    assert "[[0], [1], [2]]" in out
    assert "bijective" in out


def test_dev_machine_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "machine", "dev", '{"dom":3,"cod":2,"table":[0,0,1]}')
    assert code == 0
    record = json.loads(out)
    assert record["mapping"] == {"dom": 3, "cod": 2, "table": [0, 0, 1]}
    assert record["partition"] == [[0, 1], [2]]
    assert record["missed"] == []
    assert record["flags"] == ["surjective"]


def test_dev_range_error(capsys):
    code, _, err = run(capsys, "dev", '{"dom":2,"cod":2,"table":[5,0]}')
    assert code == 2
    assert "outside the codomain" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("dev", '{"dom":3,"cod":2,"table":[0,0,1.0]}'),
        ("dev", '{"dom":true,"cod":2,"table":[0]}'),
        ("factor", '{"dom":2,"cod":2.0,"table":[0,1]}'),
        ("chu", '{"dom":2,"cod":2,"table":"01"}'),
        ("group", '{"dom":[4],"cod":[4],"matrix":[[2.0]]}'),
        ("group", '{"dom":[4.0],"cod":[4],"matrix":[[2]]}'),
        ("group", '{"dom":[2],"cod":[2],"matrix":[[true]]}'),
        ("group", '{"dom":4,"cod":[4],"matrix":[[2]]}'),
    ],
)
def test_non_integer_literal_is_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert "integer" in err


def test_dev_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "dev", '{"dom": 2, "cod": 2, "table": [0, }')
    assert code == 2
    assert "parse error at position" in err


def test_dev_dot(capsys):
    code, out, _ = run(capsys, "dev", "--dot", '{"dom":3,"cod":2,"table":[0,0,0]}')
    assert code == 0
    assert out.startswith("digraph deviation {")
    assert "style=dashed" in out  # missed element


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", '{"dom":3,"cod":3,"table":[0,0,2]}')
    assert code == 0
    assert '"table": [0, 0, 1]' in out
    assert '"table": [0, 2]' in out


def test_group_identity(capsys):
    code, out, _ = run(capsys, "group", '{"dom":[6],"cod":[6],"matrix":[[1]]}')
    assert code == 0
    assert "devg1 (domain / kernel): [6]" in out
    assert "devg2 (codomain / image): []" in out
    assert "isomorphism" in out


def test_group_mult_two(capsys):
    code, out, _ = run(capsys, "group", '{"dom":[4],"cod":[4],"matrix":[[2]]}')
    assert code == 0
    assert "devg1 (domain / kernel): [2]" in out
    assert "devg2 (codomain / image): [2]" in out


def test_group_ill_defined(capsys):
    code, _, err = run(capsys, "group", '{"dom":[2],"cod":[3],"matrix":[[1]]}')
    assert code == 2
    assert "not well-defined" in err


def test_chu_command(capsys):
    code, out, _ = run(capsys, "chu", '{"dom":2,"cod":2,"table":[0,0]}')
    assert code == 0
    assert "adjointness holds: True" in out
    assert "backward: [0, 3, 0, 3]" in out


def test_counterexamples_command(capsys):
    code, out, _ = run(capsys, "counterexamples", "--max-size", "2", "--max-triple-size", "2")
    assert code == 0
    assert "incomparability" in out


def test_counterexamples_machine_includes_group_patterns(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "counterexamples",
        "--max-size",
        "2",
        "--max-triple-size",
        "2",
        "--max-group-order",
        "4",
    )
    assert code == 0
    record = json.loads(out)
    assert record["devg2_incomparability"]["devg2_f_strictly_below_g"]["group"] == [2]
    assert record["dev2_incomparability"]["dev2_f_strictly_below_g"]["size"] == 2


def test_factor_machine_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "machine", "factor", '{"dom":3,"cod":3,"table":[0,0,2]}')
    assert code == 0
    record = json.loads(out)
    assert record["proj"] == {"dom": 3, "cod": 2, "table": [0, 0, 1]}
    assert record["mid"] == {"dom": 2, "cod": 2, "table": [0, 1]}
    assert record["incl"] == {"dom": 2, "cod": 3, "table": [0, 2]}


def test_group_machine_round_trip(capsys):
    code, out, _ = run(capsys, "--format", "machine", "group", '{"dom":[4],"cod":[4],"matrix":[[2]]}')
    assert code == 0
    record = json.loads(out)
    assert record["hom"] == {"dom": [4], "cod": [4], "matrix": [[2]]}
    assert record["devg1"] == [2] and record["devg2"] == [2]


def test_verify_single_claim(capsys):
    code, out, _ = run(capsys, "verify", "--claims", "T1.1", "--max-triple-size", "2")
    assert code == 0
    assert "T1.1" in out
    assert "1/1 claims" in out


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--claims", "NOPE")
    assert code == 2
    assert "unknown claim ids" in err


def test_verify_machine_round_trip(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "verify",
        "--claims",
        "T1.1,1.12",
        "--max-triple-size",
        "2",
    )
    assert code == 0
    lines = out.strip().split("\n")
    records = [json.loads(line) for line in lines]
    assert [r["id"] for r in records[:-1]] == ["T1.1", "1.12"]
    assert records[-1]["type"] == "summary"
    assert records[-1]["all_expected"] is True


def test_verify_exit_one_on_unexpected_verdict(capsys):
    # In a universe too small to exhibit the counterexample patterns, the
    # existential claim reports skipped, which mismatches its expectation.
    code, out, _ = run(
        capsys, "verify", "--claims", "T1.2-counterexample", "--max-triple-size", "1"
    )
    assert code == 1
    assert "skipped" in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--nope")
    assert code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "--format",
        "machine",
        "--output",
        str(target),
        "dev",
        '{"dom":2,"cod":2,"table":[0,1]}',
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["flags"] == ["injective", "surjective", "bijective"]
