"""Command-line front end: machine-readable reports on fan files.

Every command reads and writes the canonical fan schema
`{"dim": n, "rays": [[int, ...], ...], "max_cones": [[int, ...], ...]}`
(0-based ray indices).  Reports are JSON on stdout with sorted keys and
rationals rendered as exact "p/q" strings; a one-line human summary goes to
stderr.  Exit codes: 0 success, 1 a property check failed (for example an
invalid fan, or in-range indices naming no wall or face), 2 malformed input
(including a fan file that cannot be read or is not UTF-8, an `--out` path
that cannot be written, ray indices out of range, vectors of the wrong length
and integers not written in ASCII digits with an optional leading minus), 3 a
structural invariant was violated during analysis or a result failed its
exact re-verification, 4 any other error (a bug; its traceback goes to
stderr).
Codes 1-3 are the `exit_code`s of the library's `ToricError` kinds.  A reader
closing stdout early (`toric mori f.json | head -c 0`) costs the rest of the
report, not the exit code (0, or 1 for an invalid fan) or a traceback.

A command imports only the modules it runs: `check` and `mori` load the
fan model, the wall relations and the Mori-cone LPs, not the surgery,
suspension, pair-analysis or gallery modules.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .fan import Fan, MalformedInput, PropertyFailure, ToricError, picard_number, validate, walls


def _load_fan(path: str) -> Fan:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from None
    return Fan.from_json(text)


def _write(text: str) -> None:
    """Print `text` on stdout; a closed pipe does not fail the command."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # what is still buffered goes nowhere, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit(payload: dict, summary: str) -> None:
    _write(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr)


def _integer(text: str) -> int:
    """An integer in ASCII digits with an optional leading minus; `int` alone
    would also accept other scripts' digits, underscores and spaces."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(text)


def _indices(text: str):
    try:
        return tuple(_integer(part) for part in text.split(","))
    except (argparse.ArgumentTypeError, ValueError):  # ValueError: too many digits for int
        raise MalformedInput(f"expected a comma-separated index list, got {text!r}") from None


def _require_valid(f: Fan) -> None:
    report = validate(f)
    if not report.valid:
        raise PropertyFailure("fan is not smooth/complete/proper: " + "; ".join(report.failures))


def _cmd_check(args) -> int:
    from . import intersection, mori

    f = _load_fan(args.fan)
    report = validate(f)
    payload = {
        "smooth": report.smooth,
        "complete": report.complete,
        "proper": report.proper,
        "rho": picard_number(f),
    }
    if not report.valid:
        payload["failures"] = list(report.failures)
        _emit(payload, "invalid fan: " + "; ".join(report.failures))
        return 1
    verdict = mori.is_projective(f)
    payload.update(verdict.to_dict(f))
    payload["fano"] = intersection.is_fano(f)
    _emit(
        payload,
        f"smooth complete fan, dim {f.dim}, rho {payload['rho']}, "
        f"{'projective' if verdict.projective else 'non-projective'}"
        f"{', Fano' if payload['fano'] else ''}",
    )
    return 0


def _contraction_dict(info) -> dict:
    from .mori import Fibration

    kind = info.kind
    if isinstance(kind, Fibration):
        kind_dict = {"type": "fibration", "base_dim": kind.base_dim}
    else:
        kind_dict = {
            "type": "birational",
            "exceptional_dim": kind.exceptional_dim,
            "image_dim": kind.image_dim,
            "fiber_dim": kind.fiber_dim,
            "divisorial": kind.divisorial,
        }
    return {"alpha": info.alpha, "beta": info.beta, "mori_extremal": info.mori_extremal, "kind": kind_dict}


def _cmd_mori(args) -> int:
    from . import intersection, mori

    f = _load_fan(args.fan)
    _require_valid(f)
    wall_list = walls(f)
    order = {w: i for i, w in enumerate(wall_list)}
    payload = {"walls": [intersection.wall_relation(f, w).to_dict() for w in wall_list], "classes": []}
    for vec, ws in mori.mori_generators(f):
        extremal = mori.is_extremal(f, ws[0])
        entry = {
            "vec": list(vec),
            "walls": [order[w] for w in ws],
            "extremal": extremal,
        }
        if extremal:
            entry["contraction"] = _contraction_dict(mori.classify_contraction(f, ws[0]))
        payload["classes"].append(entry)
    verdict = mori.is_projective(f)
    payload["projective"] = verdict.projective
    _emit(
        payload,
        f"{len(wall_list)} walls, {len(payload['classes'])} classes, "
        f"{sum(1 for c in payload['classes'] if c['extremal'])} extremal",
    )
    return 0


def _cmd_blowup(args) -> int:
    from . import birational

    f = _load_fan(args.fan)
    _require_valid(f)
    rec = birational.star_subdivision(f, _indices(args.center))
    _emit(rec.result.to_dict(), f"inserted ray {rec.new_ray} = {list(rec.result.rays[rec.new_ray])}")
    return 0


def _cmd_blowdown(args) -> int:
    from . import birational

    f = _load_fan(args.fan)
    _require_valid(f)
    result = birational.blow_down(f, args.ray, _indices(args.sum))
    _emit(result.to_dict(), f"contracted ray {args.ray}; {result.n_rays} rays remain")
    return 0


def _cmd_analyze(args) -> int:
    from . import analyzer

    f = _load_fan(args.fan)
    _require_valid(f)
    report = analyzer.analyze_pair(f, _indices(args.curve))
    kinds = [finding.kind for finding in report.findings] or ["none"]
    _emit(
        report.to_dict(),
        f"X projective: {report.x_projective}, blow-up projective: {report.xt_projective}, "
        f"findings: {', '.join(kinds)}",
    )
    return 0


def _cmd_ewald_suspend(args) -> int:
    from . import ewald

    f = _load_fan(args.fan)
    _require_valid(f)
    rec = ewald.suspend(f, _indices(args.v))
    _emit(rec.suspended.to_dict(), f"suspended to dimension {rec.suspended.dim}; rays {rec.ray_up} (up), {rec.ray_down} (down)")
    return 0


def _cmd_ewald_blowdown(args) -> int:
    from . import ewald

    f = _load_fan(args.fan)
    _require_valid(f)
    result = ewald.ewald_lift(f, args.ray)
    _emit(result.to_dict(), f"dimension {result.dim}, rho {picard_number(result)}")
    return 0


def _cmd_ewald_tower(args) -> int:
    from . import ewald

    f = _load_fan(args.fan)
    _require_valid(f)
    trajectory = ewald.ewald_tower(f, _indices(args.curve), args.steps)
    steps = []
    for i, (fan, wall) in enumerate(trajectory):
        step = {"fan": fan.to_dict(), "curve": list(wall.rays)}
        if i + 1 < len(trajectory):
            step["divisor"] = min(wall.rays)  # the ray suspended at the next step
        steps.append(step)
    payload = {"tower": steps}
    top = trajectory[-1][0]
    _emit(payload, f"{args.steps} steps; top fan has dimension {top.dim}, rho {picard_number(top)}")
    return 0


def _cmd_gallery(args) -> int:
    from . import gallery

    entry = gallery.get_fan(args.name, *args.params)
    text = json.dumps(entry.fan.to_dict(), sort_keys=True)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise MalformedInput(f"cannot write {args.out}: {exc}") from None
    else:
        _write(text)
    notes = entry.notes
    print(
        f"{entry.name}{list(entry.params)}: dim {notes.dim}, rho {notes.rho}, "
        f"{'projective' if notes.projective else 'non-projective'}",
        file=sys.stderr,
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="toric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a fan and decide projectivity")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mori", help="walls, relations, classes and contractions")
    p.add_argument("fan")
    p.set_defaults(func=_cmd_mori)

    p = sub.add_parser("blowup", help="star subdivision at a cone")
    p.add_argument("fan")
    p.add_argument("--center", required=True, help="comma-separated ray indices")
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("blowdown", help="inverse star subdivision")
    p.add_argument("fan")
    p.add_argument("--ray", required=True, type=_integer)
    p.add_argument("--sum", required=True, help="comma-separated decomposition ray indices")
    p.set_defaults(func=_cmd_blowdown)

    p = sub.add_parser("analyze", help="classify the pair (fan, curve)")
    p.add_argument("fan")
    p.add_argument("--curve", required=True, help="comma-separated wall ray indices")
    p.set_defaults(func=_cmd_analyze)

    pe = sub.add_parser("ewald", help="suspension constructions")
    esub = pe.add_subparsers(dest="ewald_command", required=True)
    p = esub.add_parser("suspend")
    p.add_argument("fan")
    p.add_argument("--v", required=True, help="comma-separated lattice point")
    p.set_defaults(func=_cmd_ewald_suspend)
    p = esub.add_parser("blowdown")
    p.add_argument("fan")
    p.add_argument("--ray", required=True, type=_integer)
    p.set_defaults(func=_cmd_ewald_blowdown)
    p = esub.add_parser("tower")
    p.add_argument("fan")
    p.add_argument("--curve", required=True)
    p.add_argument("--steps", required=True, type=_integer)
    p.set_defaults(func=_cmd_ewald_tower)

    p = sub.add_parser("gallery", help="emit a built-in fan")
    p.add_argument("name")
    p.add_argument("params", nargs="*", type=_integer)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gallery)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except Exception as exc:
        if isinstance(exc, ToricError):
            code = exc.exit_code
        else:
            code = 3 if isinstance(exc, AssertionError) else 4
        if code == 4:
            import traceback

            traceback.print_exc()
        else:
            print(f"{'invariant violation' if code == 3 else 'error'}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
