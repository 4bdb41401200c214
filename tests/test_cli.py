import argparse
import json
import multiprocessing
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from transfusion import cli
from transfusion.cli import main
from transfusion.cochains import Cochain, read_cochain, shuffle_transgression
from transfusion.groupoids import point_groupoid
from transfusion.groups import parse_group_spec


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_verify_passes_on_small_groups(capsys):
    for spec in ("cyclic:4", "elemab:2,2", "symmetric:3"):
        code, out = run_main(
            capsys, "verify", "--group", spec, "--trials", "3", "--seed", "11"
        )
        assert code == 0
        assert "result: pass" in out
        # all four identity sweeps are present
        for name in (
            "coboundary-squares-to-zero",
            "transgression-chain-map",
            "product-identity",
            "unit-pullback-triviality",
        ):
            assert f"check {name}: pass" in out


def test_verify_deterministic_across_worker_counts(capsys):
    args = ["verify", "--group", "symmetric:3", "--trials", "6", "--seed", "det"]
    _, out1 = run_main(capsys, *args, "--workers", "1")
    _, out3 = run_main(capsys, *args, "--workers", "3")
    assert out1 == out3
    # and an honest change of seed changes the drawn cochains, not the verdict
    code, out_other = run_main(capsys, *args, "--workers", "1")
    assert out_other == out1 and code == 0


def test_flip_control_fails_with_replayable_witness(capsys, monkeypatch):
    base = ["verify", "--group", "elemab:2,2", "--trials", "2", "--seed", "5"]
    # plant the sign-flip control: every transgression verify takes is negated
    real = cli.inverse_transgression
    monkeypatch.setattr(cli, "inverse_transgression", lambda c, s: -real(c, s))
    code, out = run_main(capsys, *base)
    assert code == 1
    assert "check product-identity: FAIL" in out
    assert "check unit-pullback-triviality: FAIL" in out
    # the flip negates both sides of the chain map, so that one still holds
    assert "check transgression-chain-map: pass" in out
    m = re.search(r'--check-tuple "(product-identity:[0-9]+:[0-9,]+)"', out)
    assert m
    replay = m.group(1)
    code, out = run_main(capsys, *base, "--check-tuple", replay)
    assert code == 1
    lhs = re.search(r"lhs: (\S+)", out).group(1)
    rhs = re.search(r"rhs: (\S+)", out).group(1)
    assert lhs != rhs
    # same tuple without the flip evaluates equal
    monkeypatch.undo()
    code, out = run_main(capsys, *base, "--check-tuple", replay)
    assert code == 0
    assert "pass (replayed trial" in out


def test_cli_has_no_hidden_option(capsys):
    parser = cli.build_parser()
    subparsers = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert subparsers
    for name, sub in subparsers[0].choices.items():
        for action in sub._actions:
            assert action.help != argparse.SUPPRESS, (name, action.option_strings)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--group", "cyclic:2", "--debug-flip-transgression-sign"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_input_errors_exit_two(capsys):
    cases = [
        ["verify", "--group", "nosuch:4"],
        ["verify", "--group", "cyclic:4", "--degree", "1"],
        ["verify", "--group", "cyclic:4", "--check-tuple", "bogus:0:1"],
        ["verify", "--group", "cyclic:4", "--check-tuple", "product-identity:0:0,99"],
        # a key of the wrong length, and one whose arrows do not compose
        *(
            ["verify", "--group", "symmetric:3", "--degree", "3", "--check-tuple", key]
            for key in ("product-identity:0:1", "product-identity:0:1,6")
        ),
        ["transgress", "--group", "cyclic:4", "--poly", "xy"],
        ["transgress", "--group", "cyclic:4", "--cocycle", "/nonexistent"],
        ["transgress", "--group", "cyclic:4", "--zero", "--bockstein"],
        ["transgress", "--group", "cyclic:4"],
        ["fusion-table", "--group", "symmetric:3", "--poly", "xyz"],
        ["fusion-table", "--group", "symmetric:3", "--poly", "x3", "--bockstein"],
    ]
    for argv in cases:
        code = main(argv)
        capsys.readouterr()
        assert code == 2, argv


def test_transgress_cube_class_ranks(capsys):
    code, out = run_main(
        capsys, "transgress", "--group", "elemab:2,3", "--poly", "xyz", "--bockstein"
    )
    assert code == 0
    assert "total twisted rank: 22" in out
    assert out.count("class nontrivial, twisted rank 2") == 7
    assert "sector g=0: centralizer order 8, class trivial, twisted rank 8" in out
    # each nonidentity sector pairs down to the radical {identity, the element}
    for g in range(1, 8):
        assert f"radical {{0,{g}}}" in out


def test_transgress_trivial_classes(capsys):
    code, out = run_main(
        capsys,
        "transgress",
        "--group",
        "elemab:2,2",
        "--poly",
        "x4|y4|x2y2",
        "--bockstein",
    )
    assert code == 0
    assert "class nontrivial" not in out
    assert "total twisted rank: 16" in out

    code, out = run_main(capsys, "transgress", "--group", "cyclic:4", "--zero")
    assert code == 0
    assert "class nontrivial" not in out
    assert "total twisted rank: 16" in out


def test_transgress_out_files_roundtrip(tmp_path, capsys):
    code, out = run_main(
        capsys,
        "transgress",
        "--group",
        "elemab:2,3",
        "--poly",
        "xyz",
        "--bockstein",
        "--out",
        str(tmp_path),
    )
    assert code == 0
    group = parse_group_spec("elemab:2,3")
    from transfusion.cochains import bockstein_lift, parse_poly

    phi = bockstein_lift(parse_poly("xyz"), group)
    for g in group.elements():
        path = tmp_path / f"sector_{g:03d}.cochain"
        assert path.exists()
        tg, _ = shuffle_transgression(phi, g)
        back = read_cochain(path.read_text().splitlines(), tg.groupoid)
        assert back == tg


def test_fusion_table_untwisted_s3(capsys):
    code, out = run_main(capsys, "fusion-table", "--group", "symmetric:3", "--zero")
    assert code == 0
    assert "basis: 8 bundles" in out
    for name in (
        "context-invariants",
        "product-validity",
        "integer-expansion",
        "commutativity",
        "associativity",
        "unit-row",
    ):
        assert f"check {name}: pass" in out


def test_fusion_table_json_structure(capsys):
    code, out = run_main(
        capsys, "fusion-table", "--group", "cyclic:2", "--zero", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "pass"
    n = len(payload["basis"])
    assert n == 4
    constants = payload["constants"]
    assert len(constants) == n and all(len(row) == n for row in constants)
    for i in range(n):
        for j in range(n):
            assert all(isinstance(c, int) and c >= 0 for c in constants[i][j])
            assert constants[i][j] == constants[j][i]
    u = payload["unit-index"]
    for j in range(n):
        assert constants[u][j] == [1 if m == j else 0 for m in range(n)]


def test_fusion_table_covers_twisted_nonabelian(tmp_path, capsys):
    from transfusion.cochains import cup_one_cochains, write_cochain
    from transfusion.projrep import linear_characters

    s3 = parse_group_spec("symmetric:3")
    L, chars = linear_characters(s3)
    sign = [2 * v // L for v in chars[1]]
    phi = cup_one_cochains(s3, [sign, sign, sign])
    path = tmp_path / "sign_cup.cochain"
    path.write_text("\n".join(write_cochain(phi)) + "\n")
    code, out = run_main(
        capsys, "fusion-table", "--group", "symmetric:3", "--cocycle", str(path)
    )
    assert code == 0
    assert "basis: 8 bundles" in out
    assert out.endswith("result: pass\n")


class _InlinePool:
    """Stands in for a fork pool: records its size and maps in this process."""

    def __init__(self, sizes, size):
        sizes.append(size)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return [func(x) for x in items]


def test_worker_pools_are_clamped(monkeypatch, capsys):
    sizes = []

    class ForkContext:
        def Pool(self, *args, **kwargs):
            return _InlinePool(sizes, *args, **kwargs)

    def get_context(method):
        assert method == "fork"
        return ForkContext()

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    table = ["fusion-table", "--group", "cyclic:2", "--zero", "--workers"]
    verify = ["verify", "--group", "cyclic:2", "--trials", "3", "--seed", "0", "--workers"]
    _, table_out = run_main(capsys, *table, "1")
    _, verify_out = run_main(capsys, *verify, "1")
    assert sizes == []
    # 16 ordered products of 4 basis bundles, 3 trials
    for cores, want in ((64, [16, 3]), (4, [4, 3]), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        sizes.clear()
        assert run_main(capsys, *table, "5000") == (0, table_out)
        assert run_main(capsys, *verify, "5000") == (0, verify_out)
        assert sizes == want


def test_fusion_table_deterministic_across_worker_counts(capsys):
    args = ["fusion-table", "--group", "elemab:2,2", "--zero"]
    _, out1 = run_main(capsys, *args, "--workers", "1")
    _, out2 = run_main(capsys, *args, "--workers", "2")
    assert out1 == out2


def test_fusion_table_reports_non_integer_products(monkeypatch, capsys):
    # a basis whose first line is doubled: sign * sign is half of it
    from transfusion import cli
    from transfusion.cyclotomic import MonomialMatrix
    from transfusion.fusion import TwistedBundle, basis_bundles

    def doubled_basis(ctx):
        basis = basis_bundles(ctx)
        maps = {(0, 0): MonomialMatrix.identity(2), (0, 1): MonomialMatrix.identity(2)}
        return [TwistedBundle(context=ctx, dims=(2, 0), maps=maps)] + basis[1:]

    monkeypatch.setattr(cli, "basis_bundles", doubled_basis)
    args = ["fusion-table", "--group", "cyclic:2", "--zero"]
    code, out = run_main(capsys, *args, "--workers", "1")
    assert code == 1
    assert (
        "check integer-expansion: FAIL (3 products with non-integer"
        " coefficients, first (1,1))" in out
    )
    assert "check product-validity: pass" in out
    assert "check unit-row: FAIL (skipped; table incomplete)" in out
    assert "result: fail" in out
    code2, out2 = run_main(capsys, *args, "--workers", "2")
    assert code2 == 1 and out2 == out


def _plant_products(monkeypatch, planted, basis_of=None):
    """Replace fusion.star so that the product basis[i] * basis[j] for each
    (i, j) in planted is make(star, basis[i], basis[j]) with make =
    planted[(i, j)]; every other product is the real one. basis_of, if
    given, turns the real basis into the one fusion-table multiplies."""
    from transfusion import cli, fusion

    real_star, real_basis = fusion.star, cli.basis_bundles
    index = {}

    def basis_bundles(ctx):
        basis = real_basis(ctx)
        if basis_of is not None:
            basis = basis_of(basis)
        index.update({id(v): k for k, v in enumerate(basis)})
        return basis

    def star(a, b):
        make = planted.get((index.get(id(a)), index.get(id(b))))
        return real_star(a, b) if make is None else make(real_star, a, b)

    monkeypatch.setattr(cli, "basis_bundles", basis_bundles)
    monkeypatch.setattr(fusion, "star", star)


def _negated(star, a, b):
    """The product with every map scaled by -1: its identity maps fail."""
    from transfusion.fusion import TwistedBundle

    v = star(a, b)
    maps = {key: m.scale(1, 2) for key, m in v.maps.items()}
    return TwistedBundle(context=v.context, dims=v.dims, maps=maps)


def _left_squared(star, a, b):
    return star(a, a)


def _unit_plus_sign(basis):
    """The basis of Z/2 with its unit line replaced by unit + sign: still
    a basis of the integer span, with no unit among its characters."""
    from transfusion.cyclotomic import MonomialMatrix
    from transfusion.fusion import TwistedBundle

    u = basis[0]
    maps = {(0, 0): MonomialMatrix.identity(2), (0, 1): MonomialMatrix(range(2), (0, 1), 2)}
    return [TwistedBundle(context=u.context, dims=(2, 0), maps=maps)] + basis[1:]


@pytest.mark.parametrize(
    "planted, basis_of, lines",
    [
        (
            {(2, 1): _negated},
            None,
            [
                "check product-validity: FAIL (1 of 16 products invalid,"
                " first (2,1): identity-map at (1,))",
                "check integer-expansion: FAIL (skipped; invalid products above)",
                "check commutativity: FAIL (skipped; table incomplete)",
                "check associativity: FAIL (skipped; table incomplete)",
            ],
        ),
        (
            {},
            lambda basis: basis[1:],
            [
                "check product-validity: pass (all 9 products validated)",
                "check integer-expansion: FAIL (3 products outside the basis span,"
                " first (0,0) with residual at 2 keys, first key (0, 0))",
                "check unit-row: FAIL (skipped; table incomplete)",
            ],
        ),
        (
            {(2, 1): _left_squared},
            None,
            [
                "check integer-expansion: pass (all 16 products expand integrally)",
                "check commutativity: FAIL (1 pairs differ, first (1,2))",
                "check unit-row: pass (basis 0 is the unit)",
                "2 1 -> 1 0 0 0",
            ],
        ),
        (
            {(1, 2): _left_squared, (2, 1): _left_squared},
            None,
            [
                "check commutativity: pass (10 unordered pairs)",
                "check associativity: FAIL (first failing triple (1, 1, 2))",
                "check unit-row: pass (basis 0 is the unit)",
            ],
        ),
        (
            {},
            _unit_plus_sign,
            [
                "check commutativity: pass (10 unordered pairs)",
                "check associativity: pass (all 64 triples)",
                "check unit-row: FAIL (0 basis characters match the unit)",
            ],
        ),
    ],
    ids=["invalid", "outside-span", "non-commuting", "non-associative", "no-unit"],
)
def test_fusion_table_reports_planted_failures(monkeypatch, capsys, planted, basis_of, lines):
    _plant_products(monkeypatch, planted, basis_of)
    args = ["fusion-table", "--group", "cyclic:2", "--zero"]
    code, out = run_main(capsys, *args, "--workers", "1")
    assert code == 1 and out.endswith("result: fail\n")
    for line in lines:
        assert line in out.splitlines()
    assert run_main(capsys, *args, "--workers", "2") == (1, out)


def test_group_file_specs(tmp_path, capsys):
    table = tmp_path / "klein.grp"
    table.write_text("# klein four\norder 4\n0 1 2 3\n1 0 3 2\n2 3 0 1\n3 2 1 0\n")
    code, out = run_main(
        capsys, "verify", "--group", f"@{table}", "--trials", "2"
    )
    assert code == 0 and "(order 4)" in out

    short = tmp_path / "prod.grp"
    short.write_text("product cyclic:2 cyclic:2\n")
    code, out = run_main(capsys, "verify", "--group", f"@{short}", "--trials", "2")
    assert code == 0 and "(order 4)" in out

    unknown = tmp_path / "unknown.grp"
    unknown.write_text("frobnicate 3\n")
    code = main(["verify", "--group", f"@{unknown}", "--trials", "1"])
    assert code == 2
    assert "unknown group spec head 'frobnicate'" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["x", "1.5"])
def test_group_table_non_integer_cell_exits_two(tmp_path, capsys, cell):
    path = tmp_path / "bad.grp"
    path.write_text(f"order 2\n0 {cell}\n1 0\n")
    code = main(["verify", "--group", f"@{path}", "--trials", "1"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: expected integer in group table row 0, got {cell!r}"]


def test_fusion_table_trivial_group(capsys):
    code, out = run_main(capsys, "fusion-table", "--group", "cyclic:1", "--zero")
    assert code == 0
    assert "basis: 1 bundles" in out
    assert "0 0 -> 1" in out.splitlines()


@pytest.mark.parametrize(
    "text", ["order\n", "cyclic\n", "elemab 2\n"], ids=["order", "cyclic", "elemab"]
)
def test_group_file_missing_integer_exits_two(tmp_path, capsys, text):
    path = tmp_path / "bad.grp"
    path.write_text(text)
    code = main(["verify", "--group", f"@{path}", "--trials", "1"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("degree x\n0 0 0 1/2\n", "degree x"),
        ("degree 3 4\n0 0 0 1/2\n", "degree 3 4"),
        ("degree -1\n0 1/2\n", "degree -1"),
        ("degree 3\n0 x 0 1/2\n", "0 x 0 1/2"),
        ("degree 3\n0 0 0 a/2\n", "0 0 0 a/2"),
        ("degree 3\n0 0 0 1.5/2\n", "0 0 0 1.5/2"),
        ("degree 3\n0 0 0 1/0\n", "0 0 0 1/0"),
    ],
    ids=[
        "header",
        "header-fields",
        "negative-degree",
        "key",
        "numerator",
        "decimal",
        "zero-denominator",
    ],
)
def test_cocycle_file_bad_field_exits_two(tmp_path, capsys, text, bad_line):
    path = tmp_path / "bad.cochain"
    path.write_text(text)
    code = main(["transgress", "--group", "cyclic:2", "--cocycle", str(path)])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert repr(bad_line) in err[0]


def test_fusion_table_dihedral_untwisted(capsys):
    code, out = run_main(capsys, "fusion-table", "--group", "dihedral:4", "--zero")
    assert code == 0
    assert "basis: 22 bundles" in out
    assert "result: pass" in out


def test_cocycle_file_input_matches_poly(tmp_path, capsys):
    from transfusion.cochains import bockstein_lift, parse_poly, write_cochain

    group = parse_group_spec("elemab:2,2")
    phi = bockstein_lift(parse_poly("x4", 2), group)
    path = tmp_path / "phi.cochain"
    path.write_text("\n".join(write_cochain(phi)) + "\n")
    code, out_file = run_main(
        capsys, "transgress", "--group", "elemab:2,2", "--cocycle", str(path)
    )
    assert code == 0
    code, out_poly = run_main(
        capsys, "transgress", "--group", "elemab:2,2", "--poly", "x4", "--bockstein"
    )
    assert code == 0
    strip = lambda text: [ln for ln in text.splitlines() if ln.startswith(("sector", "total"))]
    assert strip(out_file) == strip(out_poly)


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "transfusion", "verify", "--group", "cyclic:4",
         "--trials", "2", "--seed", "9"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "result: pass" in proc.stdout
    # timing stays out of the comparable stream
    assert "timing:" not in proc.stdout
    assert "timing:" in proc.stderr


def test_transgress_golden_stdout_e16(capsys):
    from pathlib import Path

    expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected"
    golden = expected / "transgress-e16.stdout"
    code, out = run_main(capsys, "transgress", "--group", "elemab:2,4", "--poly", "xyz")
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["transgress", "fusion-table"])
def test_twist_closedness_swept_once_and_refused(tmp_path, monkeypatch, capsys, command):
    from transfusion import cli, cochains

    twist_sweeps = []
    real_delta = cochains.delta

    def counting_delta(c):
        if c.degree == 3:
            twist_sweeps.append(c)
        return real_delta(c)

    # every module that calls delta; fusion reaches it only through cochains
    for mod in (cochains, cli):
        monkeypatch.setattr(mod, "delta", counting_delta)
    code, _ = run_main(capsys, command, "--group", "elemab:2,2", "--poly", "x2y")
    assert code == 0
    assert len(twist_sweeps) == 1

    path = tmp_path / "open.cochain"
    path.write_text("degree 3\n0 0 0 1/3\n")
    code = main([command, "--group", "elemab:2,2", "--cocycle", str(path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines()[0] == "error: the chosen twist is not a cocycle"


def _bumped_at_identity(c, sectors, loops):
    """c with half a turn added at one key: the identity arrow of the
    sector object of the given loops, once per degree."""
    # the object is the base-|G| number of the loops, its identity arrow
    # that times |G|
    n, obj = sectors.base.order, 0
    for v in loops:
        obj = obj * n + v
    e = obj * n
    table = {k: c.value(k) for k in c.table}
    key = (e,) * c.degree
    table[key] = table.get(key, 0) + Fraction(1, 2)
    return Cochain(c.groupoid, c.degree, table)


@pytest.mark.parametrize(
    "target, message",
    [
        ("inverse_transgression", "transgressed cochain is not closed; transgression bug"),
        ("product_homotopy", "product identity fails; homotopy bug"),
    ],
)
def test_context_checks_refuse_a_bumped_cochain(monkeypatch, capsys, target, message):
    from transfusion import fusion
    from transfusion.cochains import zero_cochain

    real = getattr(fusion, target)

    def bumped(phi, sectors):
        loops = (0,) * sectors.k
        return _bumped_at_identity(real(phi, sectors), sectors, loops)

    monkeypatch.setattr(fusion, target, bumped)
    group = parse_group_spec("cyclic:2")
    with pytest.raises(fusion.FusionError, match=message):
        fusion.make_context(group, zero_cochain(point_groupoid(group), 3))
    code, out = run_main(capsys, "fusion-table", "--group", "cyclic:2", "--zero")
    assert code == 1
    assert f"check context-invariants: FAIL ({message})" in out
    assert "basis:" not in out


def test_internal_fault_exits_three_on_one_line(monkeypatch, capsys):
    from transfusion import cli

    def broken(*args, **kwargs):
        raise AssertionError("planted inconsistency")

    monkeypatch.setattr(cli, "shuffle_transgression", broken)
    code = main(["transgress", "--group", "cyclic:2", "--zero"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: internal fault in transgress: AssertionError: planted inconsistency\n"
    )


def test_library_inconsistency_exits_three_and_bad_input_two(monkeypatch, capsys, tmp_path):
    from transfusion import cli

    real = cli.coboundary_solve

    def handed_a_non_cocycle(tg):
        # 1/2 at (0, 1) alone has coboundary 1/2 at (0, 0, 1)
        return real(Cochain(tg.groupoid, tg.degree, {(0, 1): Fraction(1, 2)}))

    monkeypatch.setattr(cli, "coboundary_solve", handed_a_non_cocycle)
    code = main(["transgress", "--group", "cyclic:2", "--zero"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "error: internal fault in transgress: InconsistencyError:"
        " coboundary_solve requires a cocycle\n"
    )
    malformed = tmp_path / "twist.txt"
    malformed.write_text("degree 3\n0 0 0 1/0\n")
    for argv in (
        ["transgress", "--group", "cyclic:x", "--zero"],
        ["transgress", "--group", "cyclic:2", "--cocycle", str(malformed)],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_verify_budget_refuses_before_building(capsys):
    import time

    t0 = time.perf_counter()
    code = main(["verify", "--group", "cyclic:64", "--degree", "5"])
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2 and elapsed < 1.0
    assert err.count("\n") == 1
    assert str(64**6) in err and "2000000" in err
    # the 2-sector composable pairs are budgeted too: 64^3 tuples fit, 64^4 pairs do not
    code = main(["verify", "--group", "cyclic:64", "--degree", "2"])
    err = capsys.readouterr().err
    assert code == 2 and str(64**4) in err and "2-sector" in err


@pytest.mark.parametrize("command", ["transgress", "fusion-table"])
def test_twist_commands_budget_order_four(capsys, monkeypatch, command):
    # order 4 sweeps 4^4 = 256 entries, at the cap; order 5 sweeps 625
    import transfusion.cli as cli

    monkeypatch.setattr(cli, "VERIFY_SWEEP_CAP", 256)
    code, out = run_main(capsys, command, "--group", "cyclic:4", "--zero")
    assert code == 0 and out.endswith("result: pass\n")

    def no_twist(*args):
        raise AssertionError("the twist was read before the budget check")

    monkeypatch.setattr(cli, "load_twist", no_twist)
    code = main([command, "--group", "cyclic:5", "--zero"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert str(5**4) in captured.err and "256" in captured.err


@pytest.mark.parametrize("where", ["file", "under-file", "sector-file"])
def test_transgress_unusable_out_exits_two(tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = {"file": blocker, "under-file": blocker / "sub", "sector-file": tmp_path / "d"}[where]
    if where == "sector-file":
        (out / "sector_000.cochain").mkdir(parents=True)
    code = main(["transgress", "--group", "cyclic:2", "--zero", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: cannot ")


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--group", "cyclic:3", "--trials", "1"],
        ["fusion-table", "--group", "cyclic:3", "--zero"],
    ],
    ids=["verify", "fusion-table"],
)
def test_workers_below_one_exit_two(capsys, argv, workers):
    code = main(argv + ["--workers", workers])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --workers must be at least 1\n"
