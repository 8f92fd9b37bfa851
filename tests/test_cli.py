import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import strongconn
from strongconn import fileformat
from strongconn.cli import Options, main, read_options
from strongconn.connection import brute_force_connections
from strongconn.fileformat import parse_instance, parse_instance_dict, write_instance
from strongconn.golden import build_golden, instance_from_extension, write_golden_files
from strongconn.instances import build_graded_extension
from strongconn.linmaps import LinMap, SpaceLabel, kron_all
from strongconn.pipeline import run_pipeline
from strongconn.scalars import Field


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_golden_files(str(d))
    return d


def test_cli_pass_run_exit_zero(golden_dir, capsys):
    rc = main([str(golden_dir / "group_self_z2.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "summary:" in out


def test_cli_failing_run_exit_one(golden_dir, capsys):
    rc = main([str(golden_dir / "sweedler_h4.json")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL cointegral-exists" in out


def test_cli_json_output_and_out_path(golden_dir, tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = main([str(golden_dir / "trivial_dim2.json"), "--format", "json",
               "--out", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["format"] == "strongconn-report"
    assert doc["failure_count"] == 0
    assert "connection" in doc["derived"]


def test_cli_byte_identical_reports(golden_dir, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for name in ("group_self_z4", "homogeneous_z4_z2"):
        src = str(golden_dir / f"{name}.json")
        assert main([src, "--format", "json", "--out", str(a)]) == 0
        assert main([src, "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_cli_stage_subset(golden_dir, capsys):
    rc = main([str(golden_dir / "group_self_z2.json"),
               "--stages", "validate,cointegral"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cointegral-exists" in out
    assert "section-exists" not in out


def test_cli_dependency_error_exit_two(golden_dir, capsys):
    rc = main([str(golden_dir / "trivial_dim2.json"), "--stages", "verify"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "verify" in err


def test_cli_missing_file_exit_two(capsys):
    rc = main(["/nonexistent/instance.json"])
    assert rc == 2


def test_cli_malformed_json_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{", encoding="utf-8")
    assert main([str(p)]) == 2


@pytest.mark.parametrize("content", [
    b'{"name": "\xff"}',  # not UTF-8
    b'{"name": ' + b"7" * 5000 + b"}",  # an integer past the digit limit
    b"[" * 100000 + b"]" * 100000,  # nesting past the recursion limit
], ids=["not-utf8", "huge-integer", "deep-nesting"])
def test_cli_malformed_file_bytes_are_input_errors(tmp_path, capsys, content):
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    assert main([str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("role", ["c_antipode_inv", "a_antipode_inv"])
def test_cli_a_designated_antipode_inverse_is_an_input_error(golden_dir, tmp_path,
                                                             capsys, role):
    """An antipode's inverse is solved, never designated."""
    doc = json.loads((golden_dir / "group_self_z4.json").read_text(encoding="utf-8"))
    doc["designations"][role] = "c_antipode"
    p = tmp_path / "inverse.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown designation {role!r}\n"


def test_cli_space_inside_a_scalar_is_an_input_error(golden_dir, tmp_path, capsys):
    # x^2 = 2 with its "2" mistyped as "2 5"; read without the space,
    # x^2 = 25 passes every check, so the typo must stop the run
    doc = json.loads((golden_dir / "graded_n2_t2.json").read_text(encoding="utf-8"))
    entries = doc["tensors"]["mul"]["entries"]
    n = next(i for i, e in enumerate(entries) if e[-1] == "2")
    entries[n][-1] = "2 5"
    p = tmp_path / "typo.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: tensor 'mul' entry {n}: malformed rational '2 5'\n"


def test_cli_dim_cap(tmp_path, capsys):
    inst = build_golden("group_self_z4")
    p = tmp_path / "z4.json"
    write_instance(inst, str(p))
    assert main([str(p), "--dim-cap", "3"]) == 2


def test_cli_field_degree_over_dim_cap_exits_two(golden_dir, tmp_path, capsys,
                                                 monkeypatch):
    # the degree is checked before the field and its power table exist
    built = []
    monkeypatch.setattr(fileformat, "Field", lambda *a: built.append(a))
    doc = json.loads((golden_dir / "group_self_z2.json").read_text(encoding="utf-8"))
    doc["field"] = {"kind": "number_field", "min_poly": [1] + [0] * 39 + [1]}
    p = tmp_path / "deg40.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    assert main([str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field degree 40 > cap 32\n"
    assert main([str(p), "--dim-cap", "3"]) == 2
    assert capsys.readouterr().err == "error: field degree 40 > cap 3\n"
    assert built == []


RING = Field.number_field([-1, 0, 1])  # 1 + x and 1 - x divide zero
ZERO_DIVISOR = "zero divisor in a reducible quotient"


def with_a_basis_through_a_zero_divisor(inst):
    """inst with A's basis changed by P = [[1, 1 + x], [0, 1]], which is
    invertible, so that eliminating psi pivots on 1 + x."""
    u = RING.one + RING.generator()
    A = SpaceLabel.base("A", inst.spaces["A"])
    fwd = LinMap(RING, A, A, [[RING.one, u], [RING.zero, RING.one]])
    back = LinMap(RING, A, A, [[RING.one, -u], [RING.zero, RING.one]])

    def along(label, a_map):
        maps = [a_map if n == "A" else LinMap.identity(RING, SpaceLabel.base(n, d))
                for n, d in label.factors]
        return kron_all(*maps) if maps else LinMap.identity(RING, label)

    tensors = {k: along(t.codomain, fwd) @ t @ along(t.domain, back)
               for k, t in inst.tensors.items()}
    return inst._replace(tensors=tensors)


def test_cli_zero_divisor_is_an_input_error(tmp_path, capsys):
    # a zero divisor met as a pivot outside the Galois check (here while
    # inverting psi) exists only when min_poly is reducible
    inst = instance_from_extension("zero_divisor", build_graded_extension(2, 1, RING))
    p = tmp_path / "zero_divisor.json"
    write_instance(with_a_basis_through_a_zero_divisor(inst), str(p))
    for stages in ([], ["--stages", "validate"]):
        assert main([str(p)] + stages) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ZERO_DIVISOR}\n"


@pytest.mark.parametrize("stages,summary", [
    ([], "summary: 36 checks, 1 failures"),
    (["--stages", "validate"], "summary: 29 checks, 1 failures"),
])
def test_cli_zero_divisor_in_the_galois_check_keeps_the_report(tmp_path, capsys,
                                                               stages, summary):
    # every structural check passes; the canonical map's elimination then
    # pivots on the zero divisor 1 + x (the skips: test_stage_reasons)
    ext = build_graded_extension(2, RING.one + RING.generator(), RING)
    p = tmp_path / "zero_divisor.json"
    write_instance(instance_from_extension("zero_divisor", ext), str(p))
    assert main([str(p)] + stages) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    fails = [line for line in lines if " FAIL " in line]
    assert len(fails) == 1
    assert fails[0].endswith(f'] FAIL galois  {{"reason": "{ZERO_DIVISOR}"}}')
    assert sum(" PASS " in line for line in lines) >= 28
    assert lines[-1] == summary


def default_of(fn, param: str):
    return inspect.signature(fn).parameters[param].default


def test_cli_defaults_are_the_library_defaults():
    args = read_options(["instance.json"])
    assert args.dim_cap == default_of(parse_instance, "dim_cap") == \
        default_of(parse_instance_dict, "dim_cap")
    assert args.oracle_cap == default_of(run_pipeline, "oracle_cap") == \
        default_of(brute_force_connections, "cap")


def test_cli_oracle_cap_skips(golden_dir, capsys):
    rc = main([str(golden_dir / "group_self_z4.json"),
               "--oracle-cap", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP oracle" in out
    assert '{"reason": "64 unknowns exceed the oracle cap 10"}' in out


def test_cli_oracle_cap_zero_skips_the_oracle(golden_dir, capsys):
    rc = main([str(golden_dir / "group_self_z4.json"), "--oracle-cap", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SKIP oracle" in out


@pytest.mark.parametrize("flags,message", [
    (["--oracle-cap", "-1"], "error: --oracle-cap must not be negative, got -1"),
    (["--dim-cap", "-5"], "error: --dim-cap must be at least 1, got -5"),
    (["--dim-cap", "0"], "error: --dim-cap must be at least 1, got 0"),
    (["--stages", ",,"], "error: --stages ',,' names no stage"),
    (["--stages", ""], "error: --stages '' names no stage"),
], ids=["oracle-cap-negative", "dim-cap-negative", "dim-cap-zero",
        "stages-commas", "stages-empty"])
def test_cli_bad_option_values_are_usage_errors(golden_dir, capsys, flags, message):
    rc = main([str(golden_dir / "group_self_z4.json"), *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


@pytest.mark.parametrize("argv,message", [
    (["FILE", "--dim-cap=0"], "--dim-cap must be at least 1, got 0"),
    (["FILE", "--oracle", "-1"], "--oracle-cap must not be negative, got -1"),
    (["FILE", "--o", "8"], "ambiguous option --o: could be --out, --oracle-cap"),
    (["FILE", "--depth", "8"], "unknown option --depth"),
    (["-x", "FILE"], "unknown option -x"),
    (["FILE", "--dim-cap"], "--dim-cap needs a value"),
    (["FILE", "--dim-cap", "abc"], "--dim-cap needs an integer, got 'abc'"),
    (["FILE", "--format", "xml"], "--format must be one of text, json, got 'xml'"),
    (["FILE", "--help=yes"], "--help takes no value"),
    (["--format", "json"], "no instance file given"),
    (["FILE", "FILE"], "one instance file expected, got 2: FILE FILE"),
    (["FILE", "--help"], None),
    (["-h"], None),
    (["--he", "FILE", "--bogus"], None),
], ids=["equals-form", "prefix", "ambiguous", "unknown", "unknown-short",
        "missing-value", "cap-not-integer", "format-not-a-choice",
        "help-with-value", "no-instance", "two-instances", "help", "help-short",
        "help-prefix"])
def test_cli_usage_errors_are_one_line(golden_dir, capsys, argv, message):
    """Each usage error returns 2 and prints one error: line, without the
    usage block and without raising SystemExit; a message of None is a
    call for help, which prints the usage and the defaults and returns 0."""
    instance = str(golden_dir / "group_self_z4.json")
    rc = main([instance if word == "FILE" else word for word in argv])
    captured = capsys.readouterr()
    if message is None:
        assert rc == 0
        assert captured.err == ""
        assert captured.out.startswith("Usage:\n\n    strongconn INSTANCE.json")
        assert "--dim-cap 32, --oracle-cap 4096" in captured.out
        return
    assert rc == 2
    assert captured.out == ""
    assert captured.err == f"error: {message.replace('FILE', instance)}\n"


def test_cli_option_forms_read_alike(golden_dir, tmp_path):
    """--opt value, --opt=value and a unique prefix name the same run,
    and the word after an option is its value even when it begins with
    a dash; -- ends the options."""
    src = str(golden_dir / "graded_n2_t2.json")
    forms = {"long": [src, "--format", "json", "--stages", "validate,cointegral"],
             "equals": ["--format=json", "--stages=validate,cointegral", src],
             "prefix": ["--f", "json", "--st=validate,cointegral", src]}
    reports = {}
    for name, argv in forms.items():
        out = tmp_path / f"{name}.json"
        assert main(["--ou", str(out), *argv]) == 0
        reports[name] = out.read_bytes()
    assert reports["long"] == reports["equals"] == reports["prefix"]
    assert read_options(["--out", "-r", "--", "-i.json"]) == \
        Options("-i.json", out="-r")


def test_console_entry_point_subprocess(golden_dir):
    # one end-to-end run through the module entry point, importing the
    # same strongconn package as this test process
    src = str(Path(strongconn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "strongconn.cli",
         str(golden_dir / "graded_n2_t2.json"), "--format", "json"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["failure_count"] == 0


def test_cli_unexpected_exception_exit_two(golden_dir, monkeypatch, capsys):
    import strongconn.cli

    def broken(*args, **kwargs):
        raise AttributeError("'NoneType' object has no attribute 'rows'")

    monkeypatch.setattr(strongconn.cli, "run_pipeline", broken)
    rc = main([str(golden_dir / "trivial_dim2.json")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert err == ("internal error: AttributeError: "
                   "'NoneType' object has no attribute 'rows'\n")
