"""The four workloads: seeded inputs, the operations a user runs on them, and
the independent check of every result.

A workload has two parts.  `setup(lib, rng)` builds the inputs through the
library (gallery look-ups, subdivisions, suspensions); it is what `setup_s`
times.  `plan(lib, inputs, checker, rng)` turns them into the rounds of one
pass; it may use the checker to choose inputs and is not timed.

A round is a list of operations that share one start: the library's caches
are cleared and `start()` builds fresh fans from plain data, so nothing
computed during setup, checking or an earlier round is reused.  Within a
round the operations run back to back and may reuse what the library
computed for the earlier ones.  An operation's `run(ctx)` is timed; its
`check(result)` runs after the round, untimed, and raises CheckFailed when
the result is wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from checker import canonical, require, star_subdivide


@dataclass
class Op:
    run: Callable[[Any], Any]
    check: Callable[[Any], None]


@dataclass
class Round:
    start: Callable[[], Any]
    ops: list = field(default_factory=list)


def raw(f):
    """Plain (dim, rays, cones) data of a library fan."""
    return f.dim, tuple(f.rays), tuple(f.max_cones)


# --------------------------------------------------------------------- scan

XAB_GRID = [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
SCAN_BLOCKS = 8


def _star(lib, f, size, rng):
    """Star subdivision at a random face with `size` rays."""
    cone = rng.choice(f.max_cones)
    return lib.birational.star_subdivision(f, rng.sample(list(cone), size)).result


def _ewald_lift(lib, f, rng):
    """Suspend by a ray generator and blow the lifted divisor down: one
    dimension up, same Picard number, same projectivity status."""
    r = rng.randrange(f.n_rays)
    return lib.ewald.ewald_blow_down(lib.ewald.suspend(f, f.rays[r]), r)


def _mutant(lib, f, negate, rng):
    """An invalid fan from a valid one: drop a cone or negate a ray.  The
    parent's cone sums and rays are the candidate points of the proof."""
    dim, rays, cones = raw(f)
    parent_points = [tuple(sum(rays[i][k] for i in c) for k in range(dim)) for c in cones]
    parent_points += list(rays)
    choices = [i for i, r in enumerate(rays) if tuple(-a for a in r) not in rays]
    if not (negate and choices):
        drop = rng.randrange(len(cones))
        g = lib.fan.Fan(dim, rays, cones[:drop] + cones[drop + 1:])
    else:
        r = rng.choice(choices)
        g = lib.fan.Fan(dim, rays[:r] + (tuple(-a for a in rays[r]),) + rays[r + 1:], cones)
    return g, parent_points


def scan_setup(lib, rng):
    """Distinct smooth complete fans in dimensions 3-5 plus invalid mutants.

    Every block has the same eight slots (an edge blow-up of the rank-4
    threefold, a point blow-up of an xab member, two blow-ups of P^3 and of
    P^4, an Ewald lift of an xab member in even blocks and of a point
    blow-up of the threefold in odd ones, an Ewald lift of a blown-up P^4,
    and mutants of the first and third fans: a dropped cone and a negated
    ray), so blocks cost about the same and a run's mix does not depend on
    the seed; the seed picks the faces, rays and xab members.  Each fan carries its projectivity where the
    construction fixes it: P^n and its blow-ups are projective, xab is
    projective iff a = 0 or b = -1, an Ewald lift keeps its base's status,
    and a blow-up of a non-projective fan is left open (None).
    """
    get = lib.gallery.get_fan
    oda, p3, p4 = get("oda3").fan, get("pn", 3).fan, get("pn", 4).fan
    # block i uses xab member i; projective (P) and non-projective (N)
    # members come in the order P P N N, so the even and the odd blocks
    # each get as many of one as of the other
    proj = rng.sample([ab for ab in XAB_GRID if ab[0] == 0 or ab[1] == -1], SCAN_BLOCKS // 2)
    nonproj = rng.sample([ab for ab in XAB_GRID if ab[0] != 0 and ab[1] != -1], SCAN_BLOCKS // 2)
    order = [(proj if i % 4 < 2 else nonproj)[2 * (i // 4) + i % 2] for i in range(SCAN_BLOCKS)]
    xabs = [(get("xab", a, b).fan, a == 0 or b == -1) for a, b in order]

    def xab_point(rng, block):
        f, projective = xabs[block]
        return _star(lib, f, 3, rng), (True if projective else None), None

    def lift3(rng, block):
        if block % 2:
            f, projective = _star(lib, oda, 3, rng), None
        else:
            f, projective = xabs[block]
        return _ewald_lift(lib, f, rng), projective, lib.fan.picard_number(f)

    def lift_p4(rng, _):
        f = _star(lib, p4, 2, rng)
        return _ewald_lift(lib, f, rng), True, lib.fan.picard_number(f)

    slots = (
        lambda rng, _: (_star(lib, oda, 2, rng), None, None),
        xab_point,
        lambda rng, _: (_star(lib, _star(lib, p3, 2, rng), 3, rng), True, None),
        lambda rng, _: (_star(lib, _star(lib, p4, 2, rng), 3, rng), True, None),
        lift3,
        lift_p4,
    )
    corpus, blocks, seen = [], [], set()

    def add(f, expect, parent_points=None):
        key = canonical(f.rays, f.max_cones)
        if key in seen:
            return False
        seen.add(key)
        corpus.append((raw(f), expect, parent_points))
        return True

    for i in range(SCAN_BLOCKS):
        block = []
        for make in slots:
            while True:
                f, projective, rho = make(rng, i)
                if add(f, {"projective": projective, "rho": rho}):
                    block.append(f)
                    break
        for parent, negate in ((block[0], False), (block[2], True)):
            while True:
                g, points = _mutant(lib, parent, negate, rng)
                if add(g, {}, points):
                    break
        blocks.append(corpus[-len(slots) - 2:])
    return blocks


def _survey(lib, data):
    """What `toric check` and `toric mori` compute for one fan."""
    f = lib.fan.Fan(*data)
    report = lib.fan.validate(f)
    if not report.valid:
        return f, report, None
    relations = lib.intersection.all_relations(f)
    verdict = lib.mori.is_projective(f)
    fano = lib.intersection.is_fano(f)
    classes = []
    for vec, ws in lib.mori.mori_generators(f):
        extremal = lib.mori.is_extremal(f, ws[0])
        info = lib.mori.classify_contraction(f, ws[0]) if extremal else None
        classes.append((vec, ws, extremal, info))
    return f, report, (relations, verdict, fano, classes)


def contraction_dict(lib, info) -> dict:
    kind = info.kind
    if isinstance(kind, lib.mori.Fibration):
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


def _check_survey(lib, checker, data, expect, parent_points, result):
    f, report, rest = result
    _, rays, cones = data
    if parent_points is not None:
        require(not report.valid and report.failures, "an invalid mutant was reported valid")
        checker.invalid(rays, cones, parent_points)
        return
    require(rest is not None, f"a valid fan was reported invalid: {report.failures}")
    relations, verdict, fano, classes = rest
    payload = {
        "smooth": report.smooth,
        "complete": report.complete,
        "proper": report.proper,
        "rho": lib.fan.picard_number(f),
        "fano": fano,
    }
    payload.update(verdict.to_dict(f))
    checker.check_payload(rays, cones, payload, expect["projective"], expect["rho"])
    order = {rel.wall: i for i, rel in enumerate(relations)}
    mori_payload = {
        "walls": [rel.to_dict() for rel in relations],
        "classes": [],
        "projective": verdict.projective,
    }
    for vec, ws, extremal, info in classes:
        entry = {"vec": list(vec), "walls": [order[w] for w in ws], "extremal": extremal}
        if info is not None:
            entry["contraction"] = contraction_dict(lib, info)
        mori_payload["classes"].append(entry)
    checker.mori_payload(rays, cones, mori_payload)


def scan_plan(lib, blocks, checker, rng):
    rounds = []
    for fans in blocks:
        block = Round(start=lambda: None)
        for data, expect, parent_points in fans:
            block.ops.append(Op(
                run=lambda ctx, data=data: _survey(lib, data),
                check=lambda res, d=data, e=expect, pp=parent_points: _check_survey(lib, checker, d, e, pp, res),
            ))
        rounds.append(block)
    return rounds


# -------------------------------------------------------------------- pairs


def pair_curves(checker, data):
    """Curves C of the non-projective fan X with B_C(X) projective.

    Only walls whose normal degrees are all negative are tried; on the fans
    used here an exhaustive search over every wall finds no other pair.
    """
    _, rays, cones = data
    x = checker.facts(rays, cones)
    require(not x.projective, "pair candidates need a non-projective fan")
    out = []
    for wall, (_, cls) in x.walls.items():
        if all(cls[i] < 0 for i in wall) and checker.facts(*star_subdivide(rays, cones, wall)).projective:
            out.append(wall)
    return out


def pairs_setup(lib, rng):
    """Non-projective members of the xab grid, the rank-4 threefold and its
    ten point blow-ups, plus the fans the named instances compare against."""
    get = lib.gallery.get_fan
    xs = []
    for a, b in XAB_GRID:
        if a != 0 and b != -1:
            entry = get("xab", a, b)
            xs.append((("xab", a, b), raw(entry.fan), entry.notes.distinguished_walls))
    oda = get("oda3")
    xs.append((("oda3",), raw(oda.fan), oda.notes.distinguished_walls))
    for cone in oda.fan.max_cones:
        xs.append((("oda3-blowup",) + cone, raw(lib.birational.star_subdivision(oda.fan, cone).result), ()))
    return {"xs": xs, "oda3": raw(oda.fan), "xab00": raw(get("xab", 0, 0).fan)}


def _named(inputs, name, curve, distinguished):
    """The instances whose outcome the paper fixes."""
    if name == ("oda3",):
        return {"kind": "ForbiddenFlip"}
    if name in (("xab", 1, 0), ("xab", -1, 0)) and curve == tuple(distinguished[0]):
        return {"kind": "ElementaryTransformation", "isomorphic": {"Y": inputs["xab00"][1:]}}
    if name == ("oda3-blowup", 0, 1, 4) and curve == (1, 4):
        return {"kind": "TrivialReduction", "equal": {"X_prime": inputs["oda3"][1:]}}
    return None


def pairs_plan(lib, inputs, checker, rng):
    rounds = []
    xs = list(inputs["xs"])
    rng.shuffle(xs)
    for name, data, distinguished in xs:
        curves = pair_curves(checker, data)
        rng.shuffle(curves)
        group = Round(start=lambda data=data: lib.fan.Fan(*data))
        for curve in curves:
            named = _named(inputs, name, curve, distinguished)
            group.ops.append(Op(
                run=lambda x, c=curve: lib.analyzer.analyze_pair(x, c),
                check=lambda rep, d=data, c=curve, n=named: checker.analysis(d[1], d[2], c, rep.to_dict(), n),
            ))
        rounds.append(group)
    return rounds


# -------------------------------------------------------------------- tower

# members whose chains to dimension 5 cost 0.6-1.1 s on the reference
# machine (xab(+-2, -2) takes up to 1.3 s), so the seed's choice moves a
# round of about 12 s by a few percent at most
TOWER_XAB = [(1, -2), (1, 0), (-1, -2), (-1, 0), (2, 0), (-2, 0)]
# top dimensions: every oda3 curve to 7, one xab pair to 5 and another to 4.
# The round has 15 steps and its median by cost is the costliest of the
# three oda3 steps into dimension 5, so op_p50_ms does not depend on which
# xab pairs the seed picks.
TOWER_ODA_TOP, TOWER_XAB_TOPS = 7, (5, 4)


def tower_setup(lib, rng):
    """The rank-4 threefold and the xab members of TOWER_XAB."""
    get = lib.gallery.get_fan
    oda = get("oda3")
    xabs = {(a, b): raw(get("xab", a, b).fan) for a, b in TOWER_XAB}
    return {"oda3": raw(oda.fan), "oda3_curves": list(oda.notes.distinguished_walls), "xab": xabs}


def _tower_step(lib, ctx, key):
    f, w = ctx[key]
    nxt, nw = lib.ewald.ewald_tower(f, w, 1)[-1]
    verdict = lib.mori.is_projective(nxt)
    blowup = lib.birational.blow_up_curve(nxt, nw)
    ctx[key] = (nxt, nw)
    return nxt, nw, verdict, blowup.result, lib.mori.is_projective(blowup.result)


def _check_tower(checker, dim, rho, result):
    """A new level: non-projective (certified), the base's Picard number, and
    a curve whose blow-up is projective (certified)."""
    nxt, nw, verdict, blown, blown_verdict = result
    require(nxt.dim == dim, f"tower level has dimension {nxt.dim}, expected {dim}")
    facts = checker.facts(nxt.rays, nxt.max_cones)
    require(facts.rho == rho, "Ewald blow-down changed the Picard number")
    facts.cls(nw.rays)
    require(not verdict.projective, "tower levels must be non-projective")
    facts.verify_certificate({w.rays: y for w, y in verdict.degeneracy_certificate.items()})
    mine = star_subdivide(facts.rays, facts.cones, nw.rays)
    require(canonical(blown.rays, blown.max_cones) == canonical(*mine), "wrong curve blow-up")
    require(blown_verdict.projective, "the curve's blow-up must be projective")
    checker.facts(*mine).verify_witness(blown_verdict.ample_witness)


def tower_plan(lib, inputs, checker, rng):
    """One round, repeated: the chains carried upward one step per
    operation, first the three oda3 curves (in seeded order), then two
    seeded xab pairs."""
    chains = [(inputs["oda3"], curve, TOWER_ODA_TOP) for curve in rng.sample(inputs["oda3_curves"], 3)]
    for ab, top in zip(rng.sample(TOWER_XAB, 2), TOWER_XAB_TOPS):
        data = inputs["xab"][ab]
        curves = pair_curves(checker, data)
        require(curves, f"xab{ab} has no curve with a projective blow-up")
        chains.append((data, rng.choice(curves), top))
    rnd = Round(start=lambda: [(lib.fan.Fan(*data), curve) for data, curve, _ in chains])
    for i, (data, _, top) in enumerate(chains):
        rho = len(data[1]) - data[0]
        for dim in range(data[0] + 1, top + 1):
            rnd.ops.append(Op(
                run=lambda ctx, i=i: _tower_step(lib, ctx, i),
                check=lambda res, dim=dim, rho=rho: _check_tower(checker, dim, rho, res),
            ))
    return [rnd]


# ---------------------------------------------------------------------- cli

def cli_setup(lib, rng, workdir):
    """Fan files for the rank-4 threefold, tower levels 1 and 2 and six
    seeded xab members, written as `toric gallery` writes them.  The members
    are two non-projective ones with a = +-1 (the gallery names a curve on
    them, so they are analyzed too), two other non-projective ones and two
    projective ones, so every seed gives the same mix of commands."""
    get = lib.gallery.get_fan
    entries = [(("oda3",), get("oda3"), False)]
    entries += [(("ewald-tower", k), get("ewald-tower", k), False) for k in (1, 2)]
    groups = (
        [ab for ab in XAB_GRID if abs(ab[0]) == 1 and ab[1] != -1],
        [ab for ab in XAB_GRID if abs(ab[0]) > 1 and ab[1] != -1],
        [ab for ab in XAB_GRID if ab[0] == 0 or ab[1] == -1],
    )
    for group in groups:
        for a, b in rng.sample(group, 2):
            entries.append((("xab", a, b), get("xab", a, b), a == 0 or b == -1))
    files = []
    for name, entry, projective in entries:
        path = os.path.join(workdir, "-".join(map(str, name)) + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(entry.fan.to_dict(), sort_keys=True) + "\n")
        files.append((name, path, raw(entry.fan), projective, [tuple(w) for w in entry.notes.distinguished_walls]))
    return {"files": files, "oda3": raw(entries[0][1].fan), "xab00": raw(get("xab", 0, 0).fan)}


def _check_cli(checker, command, data, projective, curve, named, result):
    require(result.returncode == 0, f"{command} exited {result.returncode}: {result.stderr.strip()}")
    payload = json.loads(result.stdout.strip().splitlines()[-1])
    _, rays, cones = data
    if command == "check":
        checker.check_payload(rays, cones, payload, projective)
    elif command == "mori":
        checker.mori_payload(rays, cones, payload)
    else:
        checker.analysis(rays, cones, curve, payload, named)


def cli_plan(lib, inputs, checker, rng, launch):
    """One round per fan file: `check`, `mori` and, where the gallery names
    a curve, `analyze --curve`, each a cold process."""
    rounds = []
    files = list(inputs["files"])
    rng.shuffle(files)
    for name, path, data, projective, curves in files:
        commands = [("check", [path], None, None), ("mori", [path], None, None)]
        if curves:
            curve = rng.choice(curves)
            named = _named(inputs, name, curve, curves)
            commands.append(("analyze", [path, "--curve", ",".join(map(str, curve))], curve, named))
        rnd = Round(start=lambda: None)
        for command, args, curve, named in commands:
            rnd.ops.append(Op(
                run=lambda ctx, argv=[command] + args: launch(argv),
                check=lambda res, c=command, d=data, p=projective, cv=curve, n=named: _check_cli(checker, c, d, p, cv, n, res),
            ))
        rounds.append(rnd)
    return rounds


def run_cli(src, argv, spans_file=None):
    """Run one cold `python -m toricfan.cli` process and wait for it; with
    `spans_file`, run its traced form (tracing.py) instead."""
    env = dict(os.environ, PYTHONPATH=src)
    if spans_file is None:
        cmd = [sys.executable, "-m", "toricfan.cli"] + argv
    else:
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")
        cmd = [sys.executable, script, repr(time.perf_counter()), spans_file] + argv
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

