"""Command-line frontend: decompose, verify, bigcell, roots, bench.

Exit codes are a stable contract: 0 success, 1 check failure, 2 input error
(an unreadable input or an unwritable output path), 3 domain-precondition
failure.  All file writes are atomic (temp + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import bigcell, decompose, harness, rootsys
from .exactmat import determinant, matrix_from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION = 3


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qibg-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def cmd_decompose(args) -> int:
    try:
        matrix = matrix_from_json(_load_json(args.matrix))
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: cannot read matrix: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    det = determinant(matrix)
    if len(matrix) < 2 or det != 1:
        print(f"error: input must be in SL(n,Z) with n >= 2; determinant is {det}",
              file=sys.stderr)
        return EXIT_PRECONDITION
    if args.strategy == "clockwise":
        fac = decompose.decompose_clockwise(matrix)
    else:
        fac = decompose.decompose_column_major(matrix)
    stats = decompose.quasi_isometry_stats(matrix, fac)
    print(f"factors: {len(fac.factors)} (limit {fac.n * fac.n - fac.n})")
    print(f"max log-norm ratio: {stats.max_ratio:.6f}")
    if args.out:
        _atomic_write(args.out, json.dumps(
            decompose.factorization_to_json(fac), indent=2) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        matrix = matrix_from_json(_load_json(args.matrix))
        fac = decompose.factorization_from_json(_load_json(args.factorization))
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: cannot read inputs: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    report = decompose.verify(matrix, fac)
    print(f"product equality: {'pass' if report.product_ok else 'FAIL'}")
    print(f"factor count {report.factor_count} <= {report.factor_limit}: "
          f"{'pass' if report.count_ok else 'FAIL'}")
    print(f"block support: {'pass' if report.support_ok else 'FAIL'}")
    print(f"max log-norm ratio: {report.stats.max_ratio:.6f}")
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_bigcell(args) -> int:
    try:
        matrix = matrix_from_json(_load_json(args.matrix), rational=True)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: cannot read matrix: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if determinant(matrix) == 0:
        print("error: matrix is singular", file=sys.stderr)
        return EXIT_PRECONDITION
    minors = bigcell.corner_minors(matrix)
    print("corner minors:", ", ".join(str(m) for m in minors))
    if not all(m != 0 for m in minors):
        print("not in the big cell (a corner minor vanishes)")
        return EXIT_CHECK_FAILED
    fac = bigcell.ul_factorize(matrix)
    print("member of the big cell")
    print("u_plus:")
    for row in fac.u_plus:
        print("  [" + ", ".join(str(e) for e in row) + "]")
    print("p_minus:")
    for row in fac.p_minus:
        print("  [" + ", ".join(str(e) for e in row) + "]")
    if all(isinstance(e, int) or e.denominator == 1
           for row in matrix for e in row):
        int_matrix = tuple(tuple(int(e) for e in row) for row in matrix)
        rep = bigcell.denominator_and_norm_check(int_matrix)
        print(f"denominators divide (prod minors)^n: "
              f"{'pass' if rep.denominators_divide else 'FAIL'}")
        print(f"log|p_minus| = {rep.log_norm_p_minus:.6f} <= "
              f"{rep.norm_constant} * max(1, log|input|): "
              f"{'pass' if rep.norm_bound_ok else 'FAIL'}")
        if not rep.all_ok:
            return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_roots(args) -> int:
    try:
        rs = rootsys.build(args.family, args.rank)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    proj = rootsys.sample_projection(rs, args.seed)
    ordering = rootsys.class_ordering(rs, proj)
    k = len(ordering.positive_classes)
    print(f"{rs.family}{rs.rank}: {len(rs.roots)} roots, {k} clockwise classes")
    for idx, (cls, angle) in enumerate(zip(ordering.positive_classes,
                                           ordering.angles), start=1):
        reps = "; ".join("(" + ", ".join(str(c) for c in r) + ")" for r in cls)
        print(f"  class {idx}: angle {angle:.4f}  {reps}")
    report = rootsys.verify_notation_invariants(rs, proj)
    print(f"side sets closed: {'pass' if report.side_sets_closed else 'FAIL'}")
    print(f"class+right positive systems: "
          f"{'pass' if report.positive_systems_ok else 'FAIL'}")
    print(f"left partition recursion: "
          f"{'pass' if report.partition_recursion_ok else 'FAIL'}")
    print(f"boundary conventions: {'pass' if report.boundary_ok else 'FAIL'}")
    if args.svg:
        _atomic_write(args.svg, rootsys.render_rays_svg(rs, proj))
        print(f"wrote {args.svg}")
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_bench(args) -> int:
    try:
        config = harness.config_from_json(_load_json(args.config))
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # find an unwritable --out before the campaign, not after its full cost
    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryFile(dir=args.out):
        pass
    report = harness.run_campaign(config)
    json_path = os.path.join(args.out, "report.json")
    csv_path = os.path.join(args.out, "report.csv")
    _atomic_write(json_path, harness.report_to_json_bytes(report).decode())
    _atomic_write(csv_path, harness.report_to_csv(report))
    print(f"samples: {len(report.samples)}")
    print(f"guaranteed-bound violations: {report.violations}")
    print(f"empirical constant: {report.empirical_constant:.6f}")
    print(f"stability: {'pass' if report.stable else 'FAIL'}")
    print(f"wrote {json_path} and {csv_path}")
    return EXIT_OK if report.violations == 0 and report.stable else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qibg",
        description="Exact SL(n,Z) block factorization, big-cell and "
                    "root-system tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a matrix into SL(2,Z) blocks")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("--strategy", choices=["column", "column_major", "clockwise"],
                   default="column", help="'column' is short for 'column_major'")
    p.add_argument("--out", help="write the factorization JSON here")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("verify", help="check a factorization against a matrix")
    p.add_argument("matrix", help="matrix JSON file")
    p.add_argument("factorization", help="factorization JSON file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bigcell", help="corner minors, membership and UL factors")
    p.add_argument("matrix", help="matrix JSON file (rational entries allowed)")
    p.set_defaults(fn=cmd_bigcell)

    p = sub.add_parser("roots", help="clockwise class ordering and invariants")
    p.add_argument("--family", required=True, choices=rootsys.FAMILIES)
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", help="write a static figure of the projected rays")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("bench", help="run a decomposition campaign")
    p.add_argument("config", help="campaign config JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:   # each command handles its own reads, so this is a write
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
