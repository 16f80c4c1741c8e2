"""Golden command-line output: stdout and exit code of fixed commands.

`golden_cli.json` holds what `toric check`, `toric mori` and `toric analyze`
printed on stdout, and the exit code, for gallery fans and two invalid
fixtures, as recorded from an earlier release.  The test runs the same
commands and compares byte for byte, so a change to any layer the reports
pass through (validation, wall relations, the LPs, the JSON rendering) that
alters a single byte of a report fails here.

To record the file anew, when a change of output is intended:
`PYTHONPATH=src python tests/test_golden_cli.py`.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from toricfan.cli import run
from toricfan.gallery import get_fan

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"

# (label, command, fan source, extra arguments)
COMMANDS = (
    ("check oda3", "check", "oda3", ()),
    ("mori oda3", "mori", "oda3", ()),
    ("check xab 2 -3", "check", "xab 2 -3", ()),
    ("mori xab 2 -3", "mori", "xab 2 -3", ()),
    ("check ewald-tower 2", "check", "ewald-tower 2", ()),
    ("mori ewald-tower 2", "mori", "ewald-tower 2", ()),
    ("analyze oda3 --curve 1,4", "analyze", "oda3", ("--curve", "1,4")),
    ("analyze xab 1 0 --curve 4,7", "analyze", "xab 1 0", ("--curve", "4,7")),
    ("analyze xab -1 0 --curve 2,7", "analyze", "xab -1 0", ("--curve", "2,7")),
    ("check oda3, ray 6 negated", "check", "oda3 negate 6", ()),
    ("check oda3, first cone dropped", "check", "oda3 drop 0", ()),
)


def _fan_data(source):
    """The fan file contents for a gallery name and parameters, optionally
    followed by `negate i` (ray i negated) or `drop k` (cone k removed)."""
    words = source.split()
    edit = words[-2:] if len(words) >= 3 and words[-2] in ("negate", "drop") else None
    name, *params = words[:-2] if edit else words
    data = get_fan(name, *(int(p) for p in params)).fan.to_dict()
    if edit and edit[0] == "negate":
        i = int(edit[1])
        data["rays"][i] = [-a for a in data["rays"][i]]
    elif edit:
        del data["max_cones"][int(edit[1])]
    return data


def record(workdir):
    """{label: {"exit": code, "stdout": text}} for every command."""
    out = {}
    for label, command, source, extra in COMMANDS:
        path = Path(workdir) / "fan.json"
        path.write_text(json.dumps(_fan_data(source), sort_keys=True))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run([command, str(path), *extra])
        out[label] = {"exit": code, "stdout": stdout.getvalue()}
    return out


def test_cli_output_matches_golden_file(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert list(golden) == [label for label, *_ in COMMANDS]
    assert {v["exit"] for v in golden.values()} == {0, 1}
    assert record(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        GOLDEN.write_text(json.dumps(record(workdir), indent=1) + "\n")
    sys.exit(0)
