"""End to end tests for the command line interface.

Every test drives the installed module through a real subprocess so that
argument parsing, report serialization, exit codes, and the stdout/stderr
split are exercised exactly as a user sees them.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from ffstick import battery, cli
from ffstick.fieldcore import field_context
from ffstick.report import load_schema


def run_cli(*args, check=False, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ffstick.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {proc.stderr}")
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def test_stick_q_quadratic_modulus():
    proc = run_cli("stick", "q", "--p", "2", "--m", "1", "--ideal", "1,1,1", check=True)
    doc = report_of(proc)
    assert doc["summary"] == {"failed": 0, "total": 1}
    rec = doc["checks"][0]
    assert rec["status"] == "pass"
    gammas = rec["details"]["gammas"]
    # gamma_0 is the class of 1, gamma_1 the sum of the two degree-1 classes
    assert gammas[0]["coeffs"] == [[[1], 1]]
    assert gammas[1]["coeffs"] == [[[0, 1], 1], [[1, 1], 1]]
    assert rec["details"]["violations"] == []


def test_hecke_phi_linear_determinant():
    proc = run_cli("hecke", "phi", "--p", "3", "--m", "1", "--g", "0,1", "--n", "2",
                   check=True)
    details = report_of(proc)["checks"][0]["details"]
    assert details["value"] == 4
    assert details["closed"] == details["enum"] == 4


def test_no_arguments_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 2


def test_unknown_subcommand_is_usage_error():
    proc = run_cli("stick", "frobenius")
    assert proc.returncode == 2


def test_validation_error_exits_two_with_empty_stdout():
    proc = run_cli("stick", "q", "--p", "4", "--m", "1", "--ideal", "1,1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "prime" in proc.stderr


@pytest.mark.parametrize("field", [
    ("--p", "2305843009213693951"),  # a Mersenne prime: trial division to sqrt(p)
    ("--p", "3", "--m", "200000000"),  # 3^(2*10^8) is a 40 MB integer
])
def test_oversized_field_is_refused_at_once(field):
    # the timeout turns a limit checked too late into a failure, not a hang
    proc = run_cli("hecke", "phi", *field, "--g", "0,1", "--n", "2", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceeds the table based limit 4096" in proc.stderr


def test_nonmonic_ideal_rejected():
    proc = run_cli("carlitz", "psi", "--p", "3", "--m", "1", "--ideal", "0,1,2")
    assert proc.returncode == 2


def test_reports_validate_against_schema():
    schema = load_schema()
    commands = [
        ("stick", "q", "--p", "3", "--m", "1", "--ideal", "0,2,1"),
        ("stick", "theta", "--p", "3", "--m", "1", "--ideal", "0,2,1", "--n", "2"),
        ("stick", "verify", "--p", "2", "--m", "1", "--ideal", "1,1,1"),
        ("hecke", "phi", "--p", "2", "--m", "1", "--g", "0,0,1", "--n", "2"),
        ("hecke", "dcount", "--p", "2", "--m", "1", "--chain", "0,0,1;0,1"),
        ("hecke", "newton", "--p", "2", "--m", "1", "--x", "0,1", "--n", "2", "--r", "2"),
        ("hecke", "mult", "--p", "2", "--m", "1", "--chain", "0,1", "--chain2", "1,1"),
        ("carlitz", "psi", "--p", "2", "--m", "1", "--ideal", "0,0,1"),
        ("carlitz", "example39", "--p", "3", "--m", "1", "--ideal", "0,2,1"),
    ]
    for cmd in commands:
        doc = report_of(run_cli(*cmd, check=True))
        jsonschema.validate(doc, schema)
        assert doc["summary"]["failed"] == 0


def test_stderr_carries_timing_stdout_stays_clean():
    proc = run_cli("stick", "verify", "--p", "2", "--m", "1", "--ideal", "0,1",
                   check=True)
    assert "[time]" in proc.stderr
    assert "[time]" not in proc.stdout
    json.loads(proc.stdout)


def test_json_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("hecke", "phi", "--p", "2", "--m", "1", "--g", "0,1", "--n", "3",
                   "--json", str(out), check=True)
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["checks"][0]["details"]["value"] == 7


def test_theta_reports_frobenius_degree():
    proc = run_cli("stick", "theta", "--p", "3", "--m", "1", "--ideal", "0,2,1",
                   "--n", "3", check=True)
    details = report_of(proc)["checks"][0]["details"]
    assert details["F_degree"] == 3  # n * d with d = 1 for a quadratic modulus


def test_seeded_commands_are_deterministic():
    args = ("hecke", "newton", "--p", "2", "--m", "1", "--x", "0,1",
            "--n", "2", "--r", "3", "--seed", "41")
    first = run_cli(*args, check=True)
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout


def test_newton_fault_injection_fails_with_witness():
    proc = run_cli("hecke", "newton", "--p", "2", "--m", "1", "--x", "0,1",
                   "--n", "2", "--r", "2", "--inject-fault", "newton")
    assert proc.returncode == 1
    doc = report_of(proc)
    rec = doc["checks"][0]
    assert rec["status"] == "fail"
    assert "witness" in rec["details"]
    assert "lattice" in rec["details"]["witness"]


def test_coprime_rejection_in_mult():
    proc = run_cli("hecke", "mult", "--p", "2", "--m", "1",
                   "--chain", "0,1", "--chain2", "0,0,1")
    assert proc.returncode == 2


def test_verify_all_reduced_run_deterministic_and_valid():
    args = ("verify-all", "--seed", "13", "--pairs", "1", "--newton-budget", "200")
    first = run_cli(*args, check=True)
    second = run_cli(*args, check=True)
    assert first.stdout == second.stdout
    doc = report_of(first)
    jsonschema.validate(doc, load_schema())
    assert doc["summary"]["failed"] == 0
    ids = [c["check_id"] for c in doc["checks"]]
    assert ids == sorted(ids)
    prefixes = {"lseries", "hecke", "carlitz"}
    assert {i.split(".")[0] for i in ids} == prefixes
    # the tight budget must leave a visible record of skipped Newton cases
    ident = next(c for c in doc["checks"] if c["check_id"] == "hecke.newton_qbinom_identity")
    assert ident["details"]["skipped_over_budget"]


def test_verify_all_benchmark_report_bytes_are_pinned():
    # the report the perfbench battery workload runs and gates on
    proc = run_cli("verify-all", "--seed", "123", "--pairs", "2", "--newton-budget", "15000",
                   check=True)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "e097b7aadffbc34bdd3966cf9960d16d1ecf9e7d53b18c1e650fa065fa5e6c7b")


def test_verify_all_ten_pair_report_bytes_are_pinned():
    # the one report that reaches non-squarefree classification and
    # multiplicativity over sums whose coefficient 1 terms collide
    proc = run_cli("verify-all", "--seed", "7", "--pairs", "10", check=True)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "c184a60ce6bf08eac2c4c4e23c9a3d5b5a0d8f4b7d79cf6af21721dbd164be5d")


@pytest.mark.parametrize("args, digest", [
    (("stick", "theta", "--p", "3", "--ideal", "0,2,1,1", "--n", "3"),
     "a9f33dacaa38a3a0a8e829d182e5d10926f3cb94cf3dafee8c50ba900d297935"),
    (("carlitz", "example39", "--p", "5", "--ideal", "0,4,0,1"),
     "4bef90fcc77c81023e277d6f58d57523d3ca745973ad22bbe9329cb6e7b75fd0"),
    (("carlitz", "psi", "--p", "3", "--ideal", "0,2,1"),
     "ceb97cdb0760df1edd4d5811f84e871e95471659f72ae5e657cb15eaa74de2de"),
], ids=["stick-theta", "carlitz-example39", "carlitz-psi"])
def test_polynomial_product_report_bytes_are_pinned(args, digest):
    # Theta_3 multiplies FrobPoly elements and truncated series, example39 divides and
    # inverts in F_5(t)[X]/Psi, psi divides phi_I(X) by each Psi_g; no
    # verify-all section reaches these values
    proc = run_cli(*args, check=True)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize("args, option", [
    (("carlitz", "psi", "--p", "3"), ("--ideal", "0,2,1")),
    (("carlitz", "example39", "--p", "3"), ("--ideal", "0,2,1")),
    (("hecke", "phi", "--p", "2", "--n", "2"), ("--g", "0,0,1")),
    (("hecke", "newton", "--p", "2", "--n", "2", "--r", "2"), ("--x", "0,1")),
], ids=["carlitz-psi", "carlitz-example39", "hecke-phi", "hecke-newton"])
def test_a_trailing_zero_coefficient_leaves_the_report_unchanged(args, option):
    flag, poly = option
    plain = run_cli(*args, flag, poly, check=True).stdout
    assert run_cli(*args, flag, poly + ",0", check=True).stdout == plain


def test_verify_all_seed_changes_sampled_sections():
    a = report_of(run_cli("verify-all", "--seed", "1", "--pairs", "1",
                          "--newton-budget", "0", check=True))
    b = report_of(run_cli("verify-all", "--seed", "2", "--pairs", "1",
                          "--newton-budget", "0", check=True))
    assert a["config"]["seed"] == 1 and b["config"]["seed"] == 2
    assert a["summary"]["failed"] == b["summary"]["failed"] == 0


def test_workbench_threads_echoed(monkeypatch):
    import os
    env = dict(os.environ, WORKBENCH_THREADS="8")
    proc = subprocess.run(
        [sys.executable, "-m", "ffstick.cli", "hecke", "phi", "--p", "2", "--m", "1",
         "--g", "0,1", "--n", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["workbench_threads"] == 8


@pytest.mark.parametrize("exc", ["ArithmeticError", "ZeroDivisionError"])
def test_internal_arithmetic_error_is_not_a_usage_error(exc):
    # an invariant breach inside a computation must not read as bad input
    script = (
        "import sys\n"
        "from ffstick import cli\n"
        "def breach(*args, **kwargs):\n"
        f"    raise {exc}('internal invariant breached')\n"
        "cli.phi_count = breach\n"
        "sys.exit(cli.main(['hecke', 'phi', '--p', '2', '--m', '1', '--g', '0,1', '--n', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode not in (0, 2)
    assert exc in proc.stderr
    assert proc.stdout == ""


def test_help_says_workbench_threads_is_only_echoed():
    proc = run_cli("--help", check=True)
    assert "WORKBENCH_THREADS is only echoed" in " ".join(proc.stdout.split())


def test_newton_negative_colength_is_usage_error():
    proc = run_cli("hecke", "newton", "--p", "2", "--m", "1", "--x", "0,1",
                   "--n", "2", "--r", "-1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "colength" in proc.stderr


def test_newton_zero_colength_is_usage_error():
    # at r = 0 the recurrence is the identity, which never vanishes: a
    # usage error, not a failed check with a witness
    proc = run_cli("hecke", "newton", "--p", "3", "--m", "1", "--x", "0,1",
                   "--n", "2", "--r", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "colength must be positive" in proc.stderr


def test_newton_without_test_lattices_is_usage_error():
    proc = run_cli("hecke", "newton", "--p", "2", "--m", "1", "--x", "0,1",
                   "--n", "2", "--r", "2", "--lattices", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "test lattice" in proc.stderr


@pytest.mark.parametrize("count", ["0", "-3"])
def test_mult_without_test_lattices_is_usage_error(count):
    proc = run_cli("hecke", "mult", "--p", "2", "--m", "1",
                   "--chain", "0,1", "--chain2", "1,1", "--lattices", count)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "test lattice" in proc.stderr


def test_verify_all_without_chain_pairs_is_usage_error():
    proc = run_cli("verify-all", "--pairs", "0", "--newton-budget", "0", "--n-max", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "chain pair" in proc.stderr
    assert "series identity batteries" not in proc.stderr  # no section ran


def test_verify_all_with_a_negative_newton_budget_is_usage_error():
    # a negative budget would skip every Newton cell, as 0 does, and still pass
    proc = run_cli("verify-all", "--newton-budget", "-1", "--pairs", "1", "--n-max", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "newton_budget must not be negative" in proc.stderr
    assert not any(label in proc.stderr for label, _, _ in battery.FAMILIES)  # no section ran


def test_verify_all_without_series_rank_is_usage_error():
    proc = run_cli("verify-all", "--n-max", "0", "--pairs", "1", "--newton-budget", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "n_max must be positive" in proc.stderr
    assert not any(label in proc.stderr for label, _, _ in battery.FAMILIES)  # no section ran


REDUCED_BATTERY = ("verify-all", "--seed", "123", "--pairs", "1", "--newton-budget", "200")


def test_verify_all_newton_fault_fails_only_newton_records():
    proc = run_cli(*REDUCED_BATTERY, "--inject-fault", "newton")
    assert proc.returncode == 1
    checks = report_of(proc)["checks"]
    failing = [c for c in checks if c["status"] == "fail"]
    assert failing
    for rec in failing:
        assert rec["check_id"].startswith("hecke.newton[")
        assert "lattice" in rec["details"]["witness"]
    others = [c for c in checks if not c["check_id"].startswith("hecke.newton[")]
    assert others and all(c["status"] == "pass" for c in others)


def test_verify_all_newton_fault_report_bytes_are_pinned():
    # the witness names the first canonical residue term, so the order in
    # which newton_verify merges its terms must not move these bytes
    proc = run_cli(*REDUCED_BATTERY, "--inject-fault", "newton")
    assert proc.returncode == 1
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "81e3fcf3704b5b39ac9b96d035251b85220d3f53bbda0957c04acc9f55a20ca3")


def test_verify_all_mult_fault_fails_only_mult_records():
    proc = run_cli(*REDUCED_BATTERY, "--inject-fault", "mult")
    assert proc.returncode == 1
    checks = report_of(proc)["checks"]
    failing = [c for c in checks if c["status"] == "fail"]
    assert failing
    for rec in failing:
        assert rec["check_id"].startswith("hecke.mult[")
        assert {"lattice", "residue_term"} <= set(rec["details"]["witness"])
    others = [c for c in checks if not c["check_id"].startswith("hecke.mult[")]
    assert others and all(c["status"] == "pass" for c in others)


def test_verify_all_series_fault_fails_only_the_first_euler_dual():
    # the fault corrupts the z^1 coefficient of the Euler-product side for
    # the first modulus of the series section, t over F_2, and nothing else
    proc = run_cli(*REDUCED_BATTERY, "--inject-fault", "series")
    assert proc.returncode == 1
    checks = report_of(proc)["checks"]
    failing = [c for c in checks if c["status"] == "fail"]
    assert [c["check_id"] for c in failing] == ["lseries.euler_dual[q=2,I=0,1]"]
    assert failing[0]["details"]["first_mismatch"] == 1
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "859a748ecd08a37a5dc849dbaf91922882d60a0fd2168bc531f1e5e0e3c85c25")


def test_verify_all_phi_fault_fails_only_the_first_phi_dual():
    # the fault corrupts the z^1 coefficient of the rank-1 lattice-route copy
    # for the first modulus, t over F_2; the cached series, which the
    # factorization, telescoping and pattern checks read, stays intact
    proc = run_cli(*REDUCED_BATTERY, "--inject-fault", "phi")
    assert proc.returncode == 1
    checks = report_of(proc)["checks"]
    failing = [c for c in checks if c["status"] == "fail"]
    assert [c["check_id"] for c in failing] == ["lseries.phi_dual[q=2,I=0,1]"]
    assert failing[0]["details"]["first_mismatch"] == {"n": 1, "m": 1}
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "1518520d41fc7ef7fdc88858c17e0c35fc2fccf4eaed2ffcfdec17e073fb856c")


def test_verify_all_sections_are_the_perfbench_sections():
    # perfbench's battery workload marks a run incorrect unless its [time]
    # labels are tracing.SECTIONS in order; tracing.py needs only the
    # standard library to load
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert [label for label, _, _ in battery.FAMILIES] == tracing.SECTIONS
    stderr = run_cli(*REDUCED_BATTERY, check=True).stderr
    timed = [line[len("[time] "):line.rindex(": ")] for line in stderr.splitlines()
             if line.startswith("[time] ")]
    assert timed == tracing.SECTIONS + ["verify-all total"]


def _family_ids(label):
    """The check ids the family emits when it runs alone on the reduced
    battery's arguments, with no fault."""
    (build,) = [b for name, b, _ in battery.FAMILIES if name == label]
    args = cli.build_parser().parse_args(REDUCED_BATTERY)
    ctxs = {p ** m: field_context(p, m, seed=args.seed) for p, m in ((2, 1), (3, 1), (2, 2), (5, 1))}
    return {rec["check_id"] for rec in build(ctxs, args, None)}


@pytest.mark.parametrize("fault", sorted(battery.FAULTS))
def test_each_fault_fails_only_records_of_its_family(fault):
    proc = run_cli(*REDUCED_BATTERY, "--inject-fault", fault)
    assert proc.returncode == 1
    failing = {c["check_id"] for c in report_of(proc)["checks"] if c["status"] == "fail"}
    assert failing
    assert failing <= _family_ids(battery.FAULTS[fault])


def test_inject_fault_choices_come_from_the_family_table():
    (newton_faults,) = [f for label, _, f in battery.FAMILIES if label == "Newton recurrence grid"]
    assert newton_faults
    parser = cli.build_parser()
    newton = ["hecke", "newton", "--p", "2", "--x", "0,1", "--n", "2", "--r", "2"]
    for fault in battery.FAULTS:
        assert parser.parse_args(["verify-all", "--inject-fault", fault]).inject_fault == fault
        if fault in newton_faults:
            assert parser.parse_args([*newton, "--inject-fault", fault]).inject_fault == fault
        else:
            with pytest.raises(SystemExit):
                parser.parse_args([*newton, "--inject-fault", fault])
    with pytest.raises(SystemExit):
        parser.parse_args(["verify-all", "--inject-fault", "no-such-fault"])


@pytest.mark.parametrize("method", ["generating", "lattice"])
def test_theta_record_fails_when_the_routes_disagree(method, monkeypatch, capsys):
    from ffstick import cli

    real = cli.theta_n

    def skewed(S, n, method="generating"):
        th = real(S, n, method=method)
        return th + th if method == "lattice" else th

    monkeypatch.setattr(cli, "theta_n", skewed)
    argv = ["stick", "theta", "--p", "3", "--ideal", "0,2,1", "--n", "2", "--method", method]
    assert cli.main(argv) == 1
    rec = json.loads(capsys.readouterr().out)["checks"][0]
    assert rec["status"] == "fail"
    assert rec["check_id"] == "lseries.theta_n[q=3,I=0,2,1,n=2]"


def test_a_prime_in_no_unit_class_is_a_failing_record(monkeypatch, capsys):
    from ffstick import cli
    from ffstick.groupring import UnitGroup

    real = UnitGroup.class_index

    def broken(self, g):
        if tuple(g) == (1, 1):
            raise ValueError("residue () is not a unit modulo the context ideal")
        return real(self, g)

    monkeypatch.setattr(UnitGroup, "class_index", broken)
    assert cli.main(["stick", "verify", "--p", "3", "--ideal", "1,0,1"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["check_id"] for c in checks if c["status"] == "fail"] == ["lseries.euler_dual"]
    (rec,) = [c for c in checks if c["check_id"] == "lseries.euler_dual"]
    assert rec["details"]["witness"] == {"prime": [1, 1]}


def test_subcommand_records_match_verify_all():
    battery = report_of(run_cli(*REDUCED_BATTERY, check=True))["checks"]

    newton = report_of(run_cli("hecke", "newton", "--p", "2", "--x", "0,1", "--n", "2",
                               "--r", "2", "--seed", "123", check=True))["checks"][0]
    twin = next(c for c in battery if c["check_id"] == "hecke.newton[q=2,x=0,1,n=2,r=2]")
    for key in ("check_id", "anchor", "status"):
        assert newton[key] == twin[key]
    assert newton["details"].pop("identity_ok") is True
    assert newton["details"] == twin["details"]

    tail = report_of(run_cli("stick", "q", "--p", "2", "--ideal", "0,1", "--seed", "123",
                             check=True))["checks"][0]
    # the series batteries emit the same id with q and I in the details; the
    # tail law sampling record carries the window and its violations only
    sampled = [c for c in battery if c["check_id"] == tail["check_id"]
               and set(c["details"]) == {"window", "violations"}]
    assert len(sampled) == 1
    assert tail["anchor"] == sampled[0]["anchor"]
    assert tail["details"]["window"] == sampled[0]["details"]["window"]
    assert tail["details"]["violations"] == sampled[0]["details"]["violations"]
