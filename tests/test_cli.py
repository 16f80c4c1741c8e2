import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricfan
from toricfan.cli import run
from toricfan.fan import Fan
from toricfan.gallery import get_fan


@pytest.fixture()
def fan_file(tmp_path):
    def write(name, fan):
        path = tmp_path / name
        path.write_text(json.dumps(fan.to_dict(), sort_keys=True))
        return str(path)

    return write


def test_check_p2(capsys, fan_file):
    path = fan_file("p2.json", get_fan("pn", 2).fan)
    assert run(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["smooth"] and out["complete"] and out["projective"]
    assert out["rho"] == 1 and out["fano"] is True


def test_check_oda_certificate(capsys, fan_file, oda):
    path = fan_file("oda.json", oda.fan)
    assert run(["check", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["projective"] is False
    assert out["certificate"]
    assert out["rho"] == 4


def test_check_invalid_fan_exits_1(capsys, tmp_path):
    bad = {"dim": 2, "rays": [[1, 0], [1, 2], [0, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["check", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["smooth"] is False


def test_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert run(["check", str(path)]) == 2
    assert run(["check", str(tmp_path / "missing.json")]) == 2
    path.write_bytes(b"\xff\xfe{}")  # not UTF-8
    capsys.readouterr()
    assert run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot read" in captured.err and "Traceback" not in captured.err


def test_duplicate_maximal_cone_exits_2(capsys, tmp_path):
    # P^2 with one cone listed twice, in another order: rejected, not merged
    data = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2], [1, 0]]}
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_byte_stable_output(capsys, fan_file, oda):
    path = fan_file("oda.json", oda.fan)
    run(["check", path])
    first = capsys.readouterr().out
    run(["check", path])
    second = capsys.readouterr().out
    assert first == second


def test_mori_report(capsys, fan_file, f1):
    path = fan_file("f1.json", f1)
    assert run(["mori", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["walls"]) == 4
    assert len(out["classes"]) == 3
    assert sum(1 for c in out["classes"] if c["extremal"]) == 2
    kinds = {c["contraction"]["kind"]["type"] for c in out["classes"] if c["extremal"]}
    assert kinds == {"fibration", "birational"}


def test_blowup_blowdown_round_trip(capsys, fan_file, tmp_path, p3):
    path = fan_file("p3.json", p3)
    assert run(["blowup", path, "--center", "0,1"]) == 0
    blown = json.loads(capsys.readouterr().out)
    blown_path = tmp_path / "blown.json"
    blown_path.write_text(json.dumps(blown))
    assert run(["blowdown", str(blown_path), "--ray", "4", "--sum", "0,1"]) == 0
    restored = Fan.from_dict(json.loads(capsys.readouterr().out))
    assert restored == p3


def test_blowdown_bad_sum_exits_1(capsys, fan_file, f1):
    path = fan_file("f1.json", f1)
    assert run(["blowdown", path, "--ray", "1", "--sum", "0,3"]) == 1


def test_analyze_oda(capsys, fan_file, oda):
    path = fan_file("oda.json", oda.fan)
    assert run(["analyze", path, "--curve", "1,4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["x_projective"] is False and out["xt_projective"] is True
    assert {f["kind"] for f in out["findings"]} == {"ForbiddenFlip"}


def test_gallery_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "oda.json"
    assert run(["gallery", "oda3", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["check", str(out_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["projective"] is False
    assert run(["gallery", "does-not-exist"]) == 2
    assert run(["gallery", "xab", "1"]) == 2
    unwritable = tmp_path / "missing-dir" / "oda.json"
    capsys.readouterr()
    assert run(["gallery", "oda3", "--out", str(unwritable)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not unwritable.exists()
    assert "cannot write" in captured.err and "Traceback" not in captured.err


def test_ewald_commands(capsys, fan_file, p2):
    path = fan_file("p2.json", p2)
    assert run(["ewald", "suspend", path, "--v", "1,0"]) == 0
    suspended = json.loads(capsys.readouterr().out)
    assert suspended["dim"] == 3 and len(suspended["rays"]) == 5
    assert run(["ewald", "blowdown", path, "--ray", "0"]) == 0
    down = json.loads(capsys.readouterr().out)
    assert down["dim"] == 3 and len(down["rays"]) == 4


def test_ewald_tower_cli(capsys, fan_file, oda):
    path = fan_file("oda.json", oda.fan)
    assert run(["ewald", "tower", path, "--curve", "1,4", "--steps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["tower"]) == 2
    assert out["tower"][-1]["fan"]["dim"] == 4


def test_tower_on_projective_base_exits_1(capsys, fan_file, p3):
    path = fan_file("p3.json", p3)
    assert run(["ewald", "tower", path, "--curve", "0,1", "--steps", "1"]) == 1


def test_tower_output_records_divisor_choice(capsys, fan_file, oda):
    path = fan_file("oda.json", oda.fan)
    assert run(["ewald", "tower", path, "--curve", "0,6", "--steps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tower"][0]["divisor"] == 0
    assert "divisor" not in out["tower"][-1]


def test_invariant_violation_exits_3(capsys, fan_file, oda, monkeypatch):
    import toricfan.analyzer as analyzer_mod

    def boom(fan, curve):
        raise analyzer_mod.InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(analyzer_mod, "analyze_pair", boom)
    path = fan_file("oda.json", oda.fan)
    assert run(["analyze", path, "--curve", "1,4"]) == 3


def test_failed_self_check_exits_3(capsys, fan_file, oda, monkeypatch):
    import toricfan.mori as mori_mod

    def boom(fan):
        raise AssertionError("forced re-verification failure")

    monkeypatch.setattr(mori_mod, "is_projective", boom)
    path = fan_file("oda.json", oda.fan)
    assert run(["check", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("invariant violation: forced re-verification failure")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": true, "rays": [[true]], "max_cones": [[0]]}',
        '{"dim": 1, "rays": [[1.0], [-1]], "max_cones": [[0], [1]]}',
        '{"dim": 1, "rays": [[1], [-1]], "max_cones": [[0], [true]]}',
    ],
)
def test_json_booleans_and_floats_exit_2(capsys, tmp_path, text):
    path = tmp_path / "coerced.json"
    path.write_text(text)
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr().out == ""


def test_negative_tower_steps_exit_2(capsys, fan_file, oda):
    path = fan_file("oda.json", oda.fan)
    assert run(["ewald", "tower", path, "--curve", "1,4", "--steps", "-2"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "{}", "--center", "0,99"],
        ["blowdown", "{}", "--ray", "0", "--sum", "1,99"],
        ["analyze", "{}", "--curve", "1,99"],
        ["ewald", "tower", "{}", "--curve", "9,9", "--steps", "1"],
        ["ewald", "suspend", "{}", "--v", "1,2"],
    ],
)
def test_out_of_range_indices_and_short_vectors_exit_2(capsys, fan_file, oda, argv):
    path = fan_file("oda.json", oda.fan)
    assert run([a.format(path) for a in argv]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "{}", "--center", "0,3"],
        ["analyze", "{}", "--curve", "0,3"],
        ["ewald", "tower", "{}", "--curve", "0,3", "--steps", "1"],
    ],
)
def test_in_range_non_faces_still_exit_1(capsys, fan_file, oda, argv):
    path = fan_file("oda.json", oda.fan)
    assert run([a.format(path) for a in argv]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{}", "--curve", "١,٤"],  # Arabic-Indic digits 1, 4
        ["analyze", "{}", "--curve", "0_1,4"],
        ["analyze", "{}", "--curve", "1, 4"],
        ["blowup", "{}", "--center", "+0,1"],
        ["blowdown", "{}", "--ray", "0_6", "--sum", "1,4"],
        ["ewald", "suspend", "{}", "--v", "0,１,0"],  # fullwidth digit one
        ["ewald", "blowdown", "{}", "--ray", "٢"],
        ["ewald", "tower", "{}", "--curve", "1,4", "--steps", "0_1"],
        ["ewald", "tower", "{}", "--curve", "1,4", "--steps", " 1"],
        ["gallery", "ewald-tower", "1_0"],
        ["gallery", "pn", "٢"],
    ],
)
def test_malformed_integers_exit_2(capsys, fan_file, oda, argv):
    path = fan_file("oda.json", oda.fan)
    assert run([a.format(path) for a in argv]) == 2
    assert capsys.readouterr().out == ""


def test_negative_integers_still_parse(capsys):
    assert run(["gallery", "xab", "-1", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 3


def _exception_classes(base):
    out = {}
    for sub in base.__subclasses__():
        out[sub.__name__] = sub
        out.update(_exception_classes(sub))
    return out


EXIT_CODES = {
    "MalformedInput": 2,
    "UnknownName": 2,
    "BadParams": 2,
    "PropertyFailure": 1,
    "NotComplete": 1,
    "NotAWall": 1,
    "NotAFace": 1,
    "SumMismatch": 1,
    "BadStarShape": 1,
    "ResultSingular": 1,
    "NoImage": 1,
    "VMismatch": 1,
    "NoSuitableDivisor": 1,
    "NotATowerPair": 1,
    "NotExtremal": 1,
    "NoFiberWall": 1,
    "InvariantViolation": 3,
}


def test_every_toric_error_carries_its_exit_code(capsys, fan_file, oda, monkeypatch):
    import toricfan.analyzer  # noqa: F401  (defines subclasses)
    import toricfan.gallery  # noqa: F401
    import toricfan.mori as mori_mod
    from toricfan.fan import InvariantViolation, MalformedInput, PropertyFailure, ToricError

    assert set(ToricError.__subclasses__()) == {MalformedInput, PropertyFailure, InvariantViolation}
    classes = _exception_classes(ToricError)
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES
    path = fan_file("oda.json", oda.fan)
    for name, cls in classes.items():

        def boom(fan, cls=cls):
            raise cls(f"forced {cls.__name__}")

        monkeypatch.setattr(mori_mod, "is_projective", boom)
        assert run(["check", path]) == cls.exit_code, name
        captured = capsys.readouterr()
        assert captured.out == ""
        label = "invariant violation" if cls.exit_code == 3 else "error"
        assert captured.err == f"{label}: forced {name}\n"


def test_stray_exception_exits_4_with_traceback(capsys, fan_file, oda, monkeypatch):
    import toricfan.mori as mori_mod

    def boom(fan):
        raise KeyError("stray")

    monkeypatch.setattr(mori_mod, "is_projective", boom)
    path = fan_file("oda.json", oda.fan)
    assert run(["check", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback (most recent call last):")
    assert captured.err.rstrip().endswith("KeyError: 'stray'")


def _cold_python(args):
    """Run a fresh interpreter on `args`, importing toricfan from this
    checkout and writing no bytecode cache; return the finished process."""
    src = str(Path(toricfan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_command_modules():
    proc = _cold_python(
        [
            "-c",
            "import sys; before = set(sys.modules); import toricfan.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))",
        ]
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "toricfan.cli" in loaded
    banned = {"dataclasses", "inspect", "toricfan.analyzer", "toricfan.birational", "toricfan.ewald", "toricfan.gallery"}
    assert not loaded & banned


def test_cold_check_loads_only_the_modules_it_runs(tmp_path, oda):
    path = tmp_path / "oda.json"
    path.write_text(oda.fan.to_json())
    proc = _cold_python(["-X", "importtime", "-m", "toricfan.cli", "check", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["projective"] is False
    names = [
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    # what `site` loads at start-up is the environment's, not the command's;
    # the command line itself runs as __main__
    if "site" in names:
        names = names[names.index("site") + 1 :]
    imported = set(names)
    ours = {name for name in imported if name.split(".")[0] == "toricfan"}
    assert ours == {"toricfan", "toricfan.fan", "toricfan.lattice", "toricfan.intersection", "toricfan.mori"}
    assert not imported & {"dataclasses", "inspect", "ast", "dis"}


INVALID_FAN = {"dim": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}


def test_closed_stdout_keeps_the_exit_code_in_process(monkeypatch, capsys, fan_file, oda, tmp_path):
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(INVALID_FAN))
    for argv, code in ((["mori", fan_file("oda.json", oda.fan)], 0), (["check", str(invalid)], 1), (["gallery", "oda3"], 0)):
        read, write = os.pipe()
        os.close(read)  # the reader has gone: every write raises BrokenPipeError
        with open(write, "w") as gone:
            monkeypatch.setattr(sys, "stdout", gone)
            assert run(argv) == code, argv
        err = capsys.readouterr().err
        assert err and "Traceback" not in err and "BrokenPipe" not in err


def test_closed_stdout_keeps_the_exit_code(tmp_path, oda):
    fan = tmp_path / "oda.json"
    fan.write_text(oda.fan.to_json())
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(INVALID_FAN))
    src = str(Path(toricfan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for command, path, code in (("mori", fan, 0), ("check", invalid, 1)):
        read, write = os.pipe()
        os.close(read)  # closed before the process starts, so its first write fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "toricfan.cli", command, str(path)],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr and "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_deep_nesting_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert run(["check", str(deep)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid JSON: maximum recursion depth")


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int/str digit limit")
def test_integers_past_the_digit_limit_exit_2(capsys, fan_file, oda, tmp_path):
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path = fan_file("oda.json", oda.fan)
    assert run(["analyze", path, "--curve", f"1,{digits}"]) == 2
    big = tmp_path / "big.json"
    big.write_text('{"dim": 1, "rays": [[%s], [-1]], "max_cones": [[0], [1]]}' % digits)
    assert run(["check", str(big)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
