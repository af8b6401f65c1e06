import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import setdev
from setdev import claims
from setdev.abgroup import MAX_TRIAL_DIVISOR
from setdev.cli import MAX_CARRIER, main
from setdev.verifier import registry


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("dev", '{"dom":2,"cod":2,"table":[0,1],"x":1}'), 'mapping literal needs exactly the keys "dom", "cod", "table"'),
        (("group", '{"dom":[2],"cod":[2],"matrix":[[1]],"x":1}'), 'hom literal needs exactly the keys "dom", "cod", "matrix"'),
    ],
    ids=["mapping", "hom"],
)
def test_literal_with_an_extra_key_is_usage_error(capsys, argv, message):
    # Every key is read by name, so only the keys guard can refuse one more.
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert message in err
    assert "Traceback" not in err


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
    assert out == (
        'mapping: {"dom": 3, "cod": 3, "table": [0, 0, 2]}\n'
        'proj (surjection): {"dom": 3, "cod": 2, "table": [0, 0, 1]}\n'
        'mid  (bijection) : {"dom": 2, "cod": 2, "table": [0, 1]}\n'
        'incl (injection) : {"dom": 2, "cod": 3, "table": [0, 2]}\n'
        "blocks: {0,1}, {2}\n"
    )


@pytest.mark.parametrize("command", [("dev",), ("dev", "--dot"), ("factor",)])
def test_mapping_carriers_are_capped(capsys, command):
    start = time.perf_counter()
    code, _, err = run(capsys, *command, '{"dom":1,"cod":100000000,"table":[0]}')
    assert code == 2
    assert f"capped at {MAX_CARRIER}" in err
    assert time.perf_counter() - start < 1.0
    code, _, _ = run(capsys, *command, json.dumps({"dom": 1, "cod": MAX_CARRIER + 1, "table": [0]}))
    assert code == 2
    code, out, _ = run(capsys, *command, json.dumps({"dom": 1, "cod": MAX_CARRIER, "table": [0]}))
    assert code == 0 and out


def test_triple_sizes_past_the_kernel_tags_are_refused(capsys):
    # T1.1 tags kernels in a byte: 52 fit at size 5, 203 at size 6 do not.
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--claims", "T1.1", "--max-triple-size", "6")
    assert code == 2 and not out
    assert "max_triple_size is capped at 5" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("command", [("dev",), ("factor",)])
def test_largest_identity_literal_is_fast(capsys, command):
    # Every block of the identity's kernel partition is a singleton, so
    # listing blocks must not scan the carrier once per block.
    n = MAX_CARRIER
    start = time.perf_counter()
    code, out, _ = run(capsys, *command, json.dumps({"dom": n, "cod": n, "table": list(range(n))}))
    assert code == 0 and out
    assert time.perf_counter() - start < 2.0


def test_hom_factoring_is_bounded(capsys):
    # 2^61 - 1 is prime: factoring it by trial division would not finish.
    start = time.perf_counter()
    prime = 2**61 - 1
    code, _, err = run(capsys, "group", json.dumps({"dom": [prime], "cod": [prime], "matrix": [[1]]}))
    assert code == 2
    assert f"no prime factor up to {MAX_TRIAL_DIVISOR}" in err
    assert time.perf_counter() - start < 5.0
    # Only the orders that are factored count: here gcd(|dom|, |cod|) = 2 and |cod| = 2.
    code, out, _ = run(capsys, "group", json.dumps({"dom": [prime * 2], "cod": [2], "matrix": [[1]]}))
    assert code == 0 and "surjective" in out
    code, out, _ = run(capsys, "group", json.dumps({"dom": [2, 4096], "cod": [2], "matrix": [[1, 0]]}))
    assert code == 0
    assert "devg1 (domain / kernel): [2]" in out and "devg2 (codomain / image): []" in out
    code, out, _ = run(capsys, "group", json.dumps({"dom": [2**39], "cod": [2**39], "matrix": [[1]]}))
    assert code == 0 and "isomorphism" in out


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


@pytest.mark.parametrize(
    "ids, message",
    [
        # An empty list used to run every claim, and "," ran none and exited 0.
        *[(ids, "none of them blank") for ids in ["", " ", ",", " , ", "T1.1,", ",T1.1", "T1.1,,1.12"]],
        # A repeated id used to emit the same record twice.
        ("T1.1,T1.1", "repeated claim ids: T1.1"),
        ("T1.1, 1.12,T1.1", "repeated claim ids: T1.1"),
        ("1.12,T1.1,1.12,T1.1", "repeated claim ids: 1.12, T1.1"),
    ],
)
def test_verify_claim_list_errors_are_usage_errors(capsys, ids, message):
    code, out, err = run(capsys, "verify", "--claims", ids, "--max-triple-size", "1")
    assert code == 2
    assert out == ""
    assert message in err


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


def test_verify_timings_charge_each_claim_of_a_group_its_own_calls(capsys):
    # The POWERSETS claims are swept as one group, and T1.1 and 1.12 as
    # another; each gets the time of its own check's calls, and the records
    # are otherwise the default bytes.
    group = [c.id for c in registry().values() if c.domain is claims.POWERSETS] + ["T1.1", "1.12"]
    assert len(group) == 9
    argv = ["--format", "machine", "verify", "--max-group-order", "4"]
    _, plain, _ = run(capsys, *argv)
    _, timed, _ = run(capsys, *argv, "--timings")
    records = [json.loads(line) for line in timed.splitlines()]
    millis = {r["id"]: r.pop("millis") for r in records if r["type"] == "claim"}
    assert all(millis[claim_id] > 0 for claim_id in group)
    assert "".join(json.dumps(r, sort_keys=True) + "\n" for r in records) == plain


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


@pytest.mark.parametrize(
    "command",
    [("verify", "--claims", "T1.1", "--max-triple-size", "1"), ("dev", '{"dom":1,"cod":1,"table":[0]}')],
    ids=["verify", "dev"],
)
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, command, where):
    # Exit 1 means a verdict differed, so a failed write must not end with it.
    target = tmp_path if where == "directory" else tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "--output", str(target), *command)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_unwritable_output_is_refused_before_any_claim_runs(tmp_path, capsys, monkeypatch):
    def no_claims(claim, universe):
        raise AssertionError("a claim ran before the output path was checked")

    monkeypatch.setattr(setdev.cli, "check_claim", no_claims)
    code, out, err = run(capsys, "--output", str(tmp_path), "verify")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(setdev.__file__).resolve().parents[1]))

    def run_module(*argv):
        return subprocess.run(
            [sys.executable, "-m", "setdev", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    ok = run_module("group", '{"dom":[4],"cod":[4],"matrix":[[2]]}')
    assert ok.returncode == 0
    assert "devg1 (domain / kernel): [2]" in ok.stdout
    assert run_module("verify", "--nope").returncode == 2


_SCALARS = st.one_of(
    st.integers(min_value=-2, max_value=9),
    st.booleans(),
    st.floats(width=16),
    st.text(max_size=3),
    st.none(),
)
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
_KEYS = st.sampled_from(["dom", "cod", "table", "matrix", "points"])
_LITERALS = st.one_of(
    # Near-valid mapping and hom literals, so that most reach the commands.
    st.fixed_dictionaries(
        {
            "dom": st.integers(0, 4),
            "cod": st.integers(0, 4),
            "table": st.lists(st.integers(-1, 4), max_size=5),
        }
    ).map(json.dumps),
    st.fixed_dictionaries(
        {
            "dom": st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8]), max_size=3),
            "cod": st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 8]), max_size=3),
            "matrix": st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=3),
        }
    ).map(json.dumps),
    st.dictionaries(_KEYS, _VALUES, max_size=4).map(json.dumps),
    _VALUES.map(json.dumps),
    st.text(max_size=12),
    # Deep nesting exhausts the JSON decoder's recursion limit.
    st.integers(0, 50_000).map(lambda depth: "[" * depth + "]" * depth),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(command=st.sampled_from(["dev", "factor", "group", "chu"]), literal=_LITERALS)
def test_literal_fuzz_exits_cleanly(command, literal):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, literal])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
