import json

import pytest

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
    import toricfan.cli as cli_mod

    def boom(fan, curve):
        raise analyzer_mod.InvariantViolation("forced for the exit-code test")

    monkeypatch.setattr(cli_mod.analyzer, "analyze_pair", boom)
    path = fan_file("oda.json", oda.fan)
    assert run(["analyze", path, "--curve", "1,4"]) == 3


def test_failed_self_check_exits_3(capsys, fan_file, oda, monkeypatch):
    import toricfan.cli as cli_mod

    def boom(fan):
        raise AssertionError("forced re-verification failure")

    monkeypatch.setattr(cli_mod.mori, "is_projective", boom)
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
