"""Command line front end.

Three subcommands: verify (seeded simplicial-identity sweeps), transgress
(per-element transgression with class verdicts and twisted ranks), and
fusion-table (basis bundles and integer structure constants).

Output discipline: everything semantic goes to stdout and is a pure
function of the flags and seed, so two runs with the same flags agree
byte for byte no matter how many workers run; wall-clock timing goes to
stderr. Exit codes: 0 all checks pass, 1 some check failed, 2 bad input,
3 an internal fault (any other exception, reported on one stderr line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .cochains import (
    Cochain,
    Cocycle,
    CocycleError,
    bockstein_lift,
    coboundary_solve,
    cocycle,
    commutator_pairing,
    delta,
    insertion_identity_sides,
    inverse_transgression,
    parse_poly,
    poly_to_cocycle,
    product_homotopy,
    random_cochain,
    read_cochain,
    shuffle_transgression,
    unit_pullback_sides,
    write_cochain,
    zero_cochain,
)
from .fusion import FusionError, basis_bundles, fork_map, fusion_table, make_context
from .groupoids import inertia, k_sectors, point_groupoid
from .groups import FiniteGroup, load_group_lines, parse_group_spec
from .projrep import BasisError, normalize_cocycle, twisted_rank

# verify refuses, before building any groupoid, a group whose largest sweep
# (order^(degree+1) tuples, the nerve size of the one-object groupoid in
# degree + 1) or whose 2-sector composable pairs (order^4, each checked by
# the action axiom) are more; transgress and fusion-table refuse, before
# reading the twist, a group whose degree-3 twist sweep and 2-sector
# composable pairs (order^4 each) are more
VERIFY_SWEEP_CAP = 2_000_000


class InputError(ValueError):
    """Bad flags or malformed input files; maps to exit code 2."""


@dataclass
class Report:
    """Everything a subcommand prints, assembled before any printing.

    body lines come first, then one line per check, then the result line.
    data carries the structured form for --json.
    """

    command: str
    body: List[str] = field(default_factory=list)
    checks: List[Dict[str, object]] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str, **extra) -> None:
        rec: Dict[str, object] = {
            "name": name,
            "status": "pass" if ok else "fail",
            "detail": detail,
        }
        rec.update(extra)
        self.checks.append(rec)

    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def render_text(self) -> str:
        lines = [f"command: {self.command}"]
        lines.extend(self.body)
        for c in self.checks:
            mark = "pass" if c["status"] == "pass" else "FAIL"
            line = f"check {c['name']}: {mark} ({c['detail']})"
            if c["status"] == "fail" and "replay" in c:
                line += f"; replay with --check-tuple \"{c['replay']}\""
            lines.append(line)
        lines.append(f"result: {'fail' if self.failed() else 'pass'}")
        return "\n".join(lines) + "\n"

    def render_json(self) -> str:
        payload = dict(self.data)
        payload["command"] = self.command
        payload["checks"] = self.checks
        payload["result"] = "fail" if self.failed() else "pass"
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def resolve_group(spec: str) -> FiniteGroup:
    """Compact spec, or @path for the line-based file format."""
    if spec.startswith("@"):
        path = spec[1:]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as e:
            raise InputError(f"cannot read group file {path}: {e}")
        return load_group_lines(lines)
    return parse_group_spec(spec)


def check_twist_budget(command: str, group: FiniteGroup) -> None:
    """Refuse a group whose degree-3 twist sweep and 2-sector composable
    pairs, which the action axiom checks, number order^4 each and exceed
    VERIFY_SWEEP_CAP."""
    n = group.order
    if n**4 > VERIFY_SWEEP_CAP:
        raise InputError(
            f"{command} on order {n} would sweep {n**4} degree-3 twist tuples"
            f" and 2-sector composable pairs, over the cap {VERIFY_SWEEP_CAP}"
        )


def load_twist(group: FiniteGroup, args) -> Tuple[Cocycle, str]:
    """Degree-3 cocycle from --poly/--cocycle/--zero, plus its description;
    a twist that is not closed is bad input."""
    phi, desc = _read_twist(group, args)
    try:
        return cocycle(phi), desc
    except CocycleError:
        raise InputError("the chosen twist is not a cocycle")


def _read_twist(group: FiniteGroup, args) -> Tuple[Cochain, str]:
    picked = [
        name
        for name, flag in (
            ("--poly", args.poly is not None),
            ("--cocycle", args.cocycle is not None),
            ("--zero", args.zero),
        )
        if flag
    ]
    if len(picked) != 1:
        raise InputError("pick exactly one of --poly, --cocycle, --zero")
    if args.bockstein and args.poly is None:
        raise InputError("--bockstein needs --poly")
    gpd = point_groupoid(group)
    if args.zero:
        return zero_cochain(gpd, 3), "zero"
    if args.poly is not None:
        n_vars = group.order.bit_length() - 1
        if 2**n_vars != group.order:
            raise InputError("--poly needs a group of order 2^n")
        p = parse_poly(args.poly, n_vars)
        if args.bockstein:
            phi = bockstein_lift(p, group)
            desc = f"bockstein lift of {args.poly}"
        else:
            degs = p.degree_set()
            if degs != {3}:
                raise InputError(
                    "--poly without --bockstein needs a homogeneous degree-3 polynomial"
                )
            phi = poly_to_cocycle(p, group)
            desc = f"halved cup of {args.poly}"
        return phi, desc
    try:
        with open(args.cocycle, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as e:
        raise InputError(f"cannot read cocycle file {args.cocycle}: {e}")
    phi = read_cochain(lines, gpd)
    if phi.degree != 3:
        raise InputError(f"cocycle file has degree {phi.degree}, need 3")
    return phi, f"file {args.cocycle}"


# verify: the four identity sweeps, one rng stream per trial


VERIFY_CHECKS = (
    "coboundary-squares-to-zero",
    "transgression-chain-map",
    "product-identity",
    "unit-pullback-triviality",
)


def _trial_sides(base, lam, two, degree: int, seed: str, t: int):
    """Left and right cochain of each verify check in trial t.

    The trial draws b, phi and psi from its own rng stream in a fixed
    order, so every worker layout sees the same cochains."""
    rng = random.Random(f"{seed}:{t}")
    b = random_cochain(base, degree - 1, rng)
    phi = random_cochain(base, degree, rng)
    psi = delta(random_cochain(base, degree - 1, rng))
    th = inverse_transgression(phi, lam)
    dphi = delta(phi)
    return {
        "coboundary-squares-to-zero": (delta(delta(b)), zero_cochain(base, degree + 1)),
        "transgression-chain-map": insertion_identity_sides(
            phi, th, lam, inverse_transgression(dphi, lam)
        ),
        "product-identity": insertion_identity_sides(
            th, product_homotopy(phi, two), two, product_homotopy(dphi, two)
        ),
        "unit-pullback-triviality": unit_pullback_sides(
            inverse_transgression(psi, lam), product_homotopy(psi, two), lam, two
        ),
    }


def _parse_check_tuple(text: str) -> Tuple[str, int, Tuple[int, ...]]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("check tuple format is NAME:TRIAL:K1,K2,...")
    name, trial_s, key_s = parts
    if name not in VERIFY_CHECKS:
        raise InputError(f"unknown check {name!r}; one of {', '.join(VERIFY_CHECKS)}")
    try:
        trial = int(trial_s)
        key = tuple(int(x) for x in key_s.split(",") if x != "")
    except ValueError:
        raise InputError("check tuple trial and key entries must be integers")
    if trial < 0:
        raise InputError("check tuple trial must be nonnegative")
    return name, trial, key


def _replay_tuple(sides, report: Report, spec: str) -> None:
    name, trial, key = _parse_check_tuple(spec)
    lhs, rhs = sides(trial)[name]
    lv, rv = lhs.value(key), rhs.value(key)
    report.body.append(f"replay {name} trial {trial} key ({','.join(map(str, key))})")
    report.body.append(f"lhs: {frac_str(lv)}")
    report.body.append(f"rhs: {frac_str(rv)}")
    report.check(
        name,
        lv == rv,
        f"replayed trial {trial}",
        witness={"trial": trial, "key": list(key)},
    )
    report.data["replay"] = {
        "check": name,
        "trial": trial,
        "key": list(key),
        "lhs": frac_str(lv),
        "rhs": frac_str(rv),
    }


def cmd_verify(args) -> Report:
    if args.degree < 2:
        raise InputError("--degree must be at least 2")
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    group = resolve_group(args.group)
    n, r = group.order, args.degree + 1
    # n^r is written out only up to r = 64; past that any n >= 2 is far
    # over the cap, and n = 1 sweeps a single tuple
    if n > 1 and (r > 64 or n**r > VERIFY_SWEEP_CAP):
        size = n**r if r <= 64 else f"{n}^{r}"
        raise InputError(
            f"verify at degree {args.degree} on order {n} would sweep {size}"
            f" tuples, over the cap {VERIFY_SWEEP_CAP}"
        )
    if n**4 > VERIFY_SWEEP_CAP:
        raise InputError(
            f"verify on order {n} would check {n**4} composable pairs of the"
            f" 2-sector groupoid, over the cap {VERIFY_SWEEP_CAP}"
        )
    base = point_groupoid(group)
    lam, two = inertia(base), k_sectors(base, 2)

    def sides(t: int):
        return _trial_sides(base, lam, two, args.degree, args.seed, t)

    echo = (
        f"verify --group {args.group} --degree {args.degree}"
        f" --trials {args.trials} --seed {args.seed}"
    )
    report = Report(command=echo)
    report.body.append(f"group: {args.group} (order {group.order})")
    report.data["group"] = {"spec": args.group, "order": group.order}

    if args.check_tuple is not None:
        _replay_tuple(sides, report, args.check_tuple)
        return report

    results = fork_map(
        lambda t: {name: (a - b).first_key() for name, (a, b) in sides(t).items()},
        range(args.trials),
        args.workers,
    )
    report.data["trials"] = args.trials
    for name in VERIFY_CHECKS:
        fails = [(t, res[name]) for t, res in enumerate(results) if res[name] is not None]
        if not fails:
            report.check(name, True, f"{args.trials} trials")
        else:
            t0, key = fails[0]
            replay = f"{name}:{t0}:{','.join(map(str, key))}"
            report.check(
                name,
                False,
                f"{len(fails)} of {args.trials} trials failed",
                witness={"trial": t0, "key": list(key)},
                replay=replay,
            )
    return report


# transgress: one shuffle transgression per group element


def cmd_transgress(args) -> Report:
    group = resolve_group(args.group)
    check_twist_budget("transgress", group)
    phi, desc = load_twist(group, args)
    echo = f"transgress --group {args.group} --twist {desc}"
    if args.out:
        echo += f" --out {args.out}"
    report = Report(command=echo)
    report.body.append(f"group: {args.group} (order {group.order})")
    report.body.append(f"twist: {desc}, support {phi.support_size()}")
    report.data["group"] = {"spec": args.group, "order": group.order}
    report.data["twist"] = {"description": desc, "support": phi.support_size()}

    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise InputError(f"cannot create output directory {args.out}: {e}")

    sectors = []
    total = 0
    cocycle_failures = []
    for g in group.elements():
        tg, members = shuffle_transgression(phi, g)
        zgrp = tg.groupoid.group
        try:
            tg = cocycle(tg)
            tc = normalize_cocycle(tg)
        except CocycleError as e:
            cocycle_failures.append((g, str(e)))
            continue
        rank = twisted_rank(tc)
        total += rank
        witness = coboundary_solve(tg)
        verdict = "trivial" if witness is not None else "nontrivial"
        rec: Dict[str, object] = {
            "element": g,
            "centralizer-order": zgrp.order,
            "class": verdict,
            "twisted-rank": rank,
        }
        line = (
            f"sector g={g}: centralizer order {zgrp.order},"
            f" class {verdict}, twisted rank {rank}"
        )
        if zgrp.is_abelian():
            pairing = commutator_pairing(tg)
            nonzero = {k: v for k, v in pairing.items() if v}
            radical = [
                members[a]
                for a in zgrp.elements()
                if all(not pairing[(a, b)] for b in zgrp.elements())
            ]
            line += (
                f", pairing nonzero pairs {len(nonzero)},"
                f" radical {{{','.join(map(str, radical))}}}"
            )
            rec["pairing-nonzero"] = {
                f"{a},{b}": frac_str(v) for (a, b), v in sorted(nonzero.items())
            }
            rec["pairing-radical"] = radical
        report.body.append(line)
        if args.out:
            path = os.path.join(args.out, f"sector_{g:03d}.cochain")
            lines = [
                "# transgressed 2-cochain on the centralizer of one element",
                f"# group {args.group}",
                f"# element {g}",
                f"# centralizer members {' '.join(map(str, members))}",
            ] + write_cochain(tg)
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
            except OSError as e:
                raise InputError(f"cannot write sector file {path}: {e}")
            report.body.append(f"wrote: {path}")
            rec["file"] = path
        sectors.append(rec)
    report.body.append(f"total twisted rank: {total}")
    report.data["sectors"] = sectors
    report.data["total-rank"] = total
    if cocycle_failures:
        g0, msg = cocycle_failures[0]
        report.check(
            "sector-cocycles",
            False,
            f"{len(cocycle_failures)} sectors failed, first at g={g0}: {msg}",
            witness={"element": g0},
        )
    else:
        report.check("sector-cocycles", True, f"{group.order} sectors")
    return report


# fusion-table: renders the library's fusion table


def cmd_fusion_table(args) -> Report:
    if args.workers < 1:
        raise InputError("--workers must be at least 1")
    group = resolve_group(args.group)
    check_twist_budget("fusion-table", group)
    phi, desc = load_twist(group, args)
    echo = f"fusion-table --group {args.group} --twist {desc}"
    report = Report(command=echo)
    report.body.append(f"group: {args.group} (order {group.order})")
    report.data["group"] = {"spec": args.group, "order": group.order}
    report.data["twist"] = {"description": desc}

    try:
        ctx = make_context(group, phi)
    except FusionError as e:
        report.check("context-invariants", False, str(e))
        return report
    report.body.append(
        "context: validation=full"
        f" normalized={'yes' if ctx.normalized else 'no'} conductor={ctx.conductor}"
    )
    report.check("context-invariants", True, "full")

    basis = basis_bundles(ctx)
    n = len(basis)
    report.body.append(f"basis: {n} bundles")
    basis_data = []
    for k, v in enumerate(basis):
        supp = v.support()
        dims = ",".join(str(v.dims[g]) for g in supp)
        report.body.append(
            f"basis {k}: support {{{','.join(map(str, supp))}}} dims {dims}"
        )
        basis_data.append({"index": k, "support": list(supp), "dims": list(v.dims)})
    report.data["basis"] = basis_data

    table = fusion_table(ctx, basis, workers=args.workers)
    n_products = n * n
    if table.invalid:
        a, b, kind, witness = table.invalid[0]
        report.check(
            "product-validity",
            False,
            f"{len(table.invalid)} of {n_products} products invalid,"
            f" first ({a},{b}): {kind} at {witness}",
            witness={"pair": [a, b]},
        )
    else:
        report.check("product-validity", True, f"all {n_products} products validated")
    if table.outside_span or table.non_integer:
        parts = []
        witness = None
        if table.outside_span:
            a, b, bad = table.outside_span[0]
            parts.append(
                f"{len(table.outside_span)} products outside the basis span,"
                f" first ({a},{b}) with residual at {len(bad)} keys, first key {bad[0]}"
            )
            witness = {"pair": [a, b], "residual-keys": [list(k) for k in bad[:8]]}
        if table.non_integer:
            a, b = table.non_integer[0]
            parts.append(
                f"{len(table.non_integer)} products with non-integer coefficients,"
                f" first ({a},{b})"
            )
            witness = witness or {"pair": [a, b]}
        report.check("integer-expansion", False, "; ".join(parts), witness=witness)
    elif table.invalid:
        report.check("integer-expansion", False, "skipped; invalid products above")
    else:
        report.check("integer-expansion", True, f"all {n_products} products expand integrally")

    if table.complete():
        if table.non_commuting:
            i, j = table.non_commuting[0]
            report.check(
                "commutativity",
                False,
                f"{len(table.non_commuting)} pairs differ, first ({i},{j})",
                witness={"pair": [i, j]},
            )
        else:
            report.check("commutativity", True, f"{n * (n + 1) // 2} unordered pairs")
        aw = table.nonassociative
        if aw is None:
            report.check("associativity", True, f"all {n**3} triples")
        else:
            report.check(
                "associativity",
                False,
                f"first failing triple {aw}",
                witness={"triple": list(aw)},
            )
        if len(table.unit_candidates) == 1:
            u = table.unit_candidates[0]
            unit_ok = table.is_unit(u)
            report.check(
                "unit-row",
                unit_ok,
                f"basis {u} is the unit" if unit_ok else f"basis {u} has a non-identity row",
            )
            report.data["unit-index"] = u
        else:
            report.check(
                "unit-row", False, f"{len(table.unit_candidates)} basis characters match the unit"
            )
        constants = table.constants
        report.body.append("table rows (i j -> coefficients):")
        for i in range(n):
            for j in range(n):
                report.body.append(f"{i} {j} -> {' '.join(map(str, constants[i][j]))}")
        report.data["constants"] = [
            [list(constants[i][j]) for j in range(n)] for i in range(n)
        ]
    else:
        report.check("commutativity", False, "skipped; table incomplete")
        report.check("associativity", False, "skipped; table incomplete")
        report.check("unit-row", False, "skipped; table incomplete")
    return report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="transfusion",
        description="exact transgression and fusion checks on finite groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_group(sp):
        sp.add_argument(
            "--group",
            required=True,
            help="compact spec (cyclic:4, elemab:2,3, symmetric:3, dihedral:4,"
            " product:cyclic:2,cyclic:4) or @path to a group file",
        )

    def add_twist(sp):
        sp.add_argument("--poly", help="mod-2 polynomial like xyz or x2y|y3")
        sp.add_argument(
            "--bockstein",
            action="store_true",
            help="lift the polynomial through the integral degree shift",
        )
        sp.add_argument("--cocycle", help="path to a degree-3 cochain file")
        sp.add_argument("--zero", action="store_true", help="use the zero twist")

    v = sub.add_parser("verify", help="seeded sweeps of the simplicial identities")
    add_group(v)
    v.add_argument("--degree", type=int, default=3)
    v.add_argument("--trials", type=int, default=10)
    v.add_argument("--seed", default="0")
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--json", action="store_true")
    v.add_argument(
        "--check-tuple",
        metavar="NAME:TRIAL:K1,K2",
        help="re-evaluate one reported witness and print both sides",
    )

    t = sub.add_parser(
        "transgress", help="transgress a 3-cocycle to every loop sector"
    )
    add_group(t)
    add_twist(t)
    t.add_argument("--out", help="directory for per-sector cochain files")
    t.add_argument("--json", action="store_true")

    f = sub.add_parser(
        "fusion-table", help="basis bundles and integer structure constants"
    )
    add_group(f)
    add_twist(f)
    f.add_argument("--workers", type=int, default=1)
    f.add_argument("--json", action="store_true")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "verify":
            report = cmd_verify(args)
        elif args.command == "transgress":
            report = cmd_transgress(args)
        else:
            report = cmd_fusion_table(args)
    except (BasisError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        detail = " ".join(str(e).split())
        print(
            f"error: internal fault in {args.command}: {type(e).__name__}: {detail}",
            file=sys.stderr,
        )
        return 3
    out = report.render_json() if args.json else report.render_text()
    sys.stdout.write(out)
    print(f"timing: {args.command} {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return 1 if report.failed() else 0


if __name__ == "__main__":
    raise SystemExit(main())
