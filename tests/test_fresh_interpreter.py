"""Behaviour that only a fresh interpreter shows: which modules an import
loads, and which self-checks survive ``python -O``."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "campaign_n3_seed7.json"


def run_fresh(code: str, *args, flags=()):
    """Run `code` in a new interpreter on the library in src/; fail on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


NUMPY_FREE_PATHS = """
    import hashlib, json, sys
    from fractions import Fraction
    from pathlib import Path

    import qibg, qibg.cli
    from qibg import bigcell, decompose, exactmat, harness, rootsys
    from qibg.cli import main

    tmp, golden = map(Path, sys.argv[1:])
    config = harness.CampaignConfig(3, (5, 10, 20, 40), 100, 7)
    assert harness.report_to_json_bytes(harness.run_campaign(config)) == golden.read_bytes()

    m = ((1, 0, 2), (3, 1, 6), (0, 0, 1))
    matrix = tmp / "m.json"
    matrix.write_text(json.dumps(exactmat.matrix_to_json(m)))
    factors = tmp / "fac.json"
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "word_lengths": [5, 10], "samples_per_length": 4,
                               "seed": 7, "strategy": "column_major"}))
    assert main(["decompose", str(matrix), "--out", str(factors)]) == 0
    assert main(["verify", str(matrix), str(factors)]) == 0
    assert main(["bigcell", str(matrix)]) == 0
    assert main(["bench", str(cfg), "--out", str(tmp / "bench")]) == 0

    ul = bigcell.ul_factorize(m)
    assert exactmat.multiply(ul.u_plus, ul.p_minus) == m
    assert bigcell.in_big_cell(m)
    assert bigcell.corner_minors(m) == (1, 1)
    assert bigcell.denominator_and_norm_check(m).all_ok

    word = exactmat.random_word(5, 30, 4)
    fac = decompose.decompose_clockwise(word)
    digest = hashlib.sha256(json.dumps(decompose.factorization_to_json(fac),
                                       sort_keys=True).encode()).hexdigest()
    assert digest == "a28d0a36099452cad7584d2c82934d153eb70eda76c05a534816fbe1bbceb2a7"
    comparison = harness.compare_strategies(harness.CampaignConfig(4, (5, 10), 2, 3))
    assert comparison.all_verified and len(comparison.samples) == 4
    ordering = rootsys.sl_class_ordering(6)
    assert len(ordering.positive_classes) == 15
    u = ((1, Fraction(1, 2), Fraction(-2, 3)), (0, 1, Fraction(5, 6)), (0, 0, 1))
    split = bigcell.unipotent_class_split(u, rootsys.sl_class_ordering(3), 2)
    assert exactmat.multiply(exactmat.multiply(split.left_part, split.mid_part),
                             split.right_part) == u
    assert "numpy" not in sys.modules, "a numpy-free path loaded numpy"

    rs = rootsys.build("E8", 8)
    report = rootsys.verify_notation_invariants(rs, rootsys.sample_projection(rs, 1))
    assert report.all_ok and report.class_count == 120 and report.failures == ()
    assert "numpy" in sys.modules
"""


def test_numpy_loads_only_with_root_system_arrays(tmp_path):
    run_fresh(NUMPY_FREE_PATHS, tmp_path, GOLDEN)


SELF_CHECKS_UNDER_O = """
    import sys

    from qibg import bigcell, decompose, exactmat, rootsys, sl2

    if sys.flags.optimize != 1:
        sys.exit("not running under -O")
    word = exactmat.random_word(5, 30, 4)   # in the big cell
    u_plus = bigcell.ul_factorize(word).u_plus
    ordering = rootsys.sl_class_ordering(5)
    identity_transform = sl2.GcdTransform(((1, 0), (0, 1)), 1)
    # (module, name, stand-in that breaks the result, call, words of the check's message)
    cases = [
        (bigcell, "_reassembles", lambda m, h: False,
         lambda: bigcell.ul_factorize(word), "reassemble"),
        (bigcell, "_reassembles", lambda m, h: False,
         lambda: decompose.decompose_clockwise(word), "reassemble"),
        (bigcell, "multiply", lambda a, b: a,
         lambda: bigcell.unipotent_class_split(u_plus, ordering, 3), "multiply back"),
        (decompose, "gcd_transform", lambda a, b: identity_transform,
         lambda: decompose.decompose_column_major(word), "not cleared"),
        (decompose, "ext_gcd", lambda a, b: (2, 0, 0),
         lambda: decompose.decompose_clockwise(word), "not 1"),
        (sl2, "ext_gcd", lambda a, b: (1, 0, 0),
         lambda: sl2.gcd_transform(3, 5), "Bezout"),
    ]
    for module, name, stand_in, call, words in cases:
        real = getattr(module, name)
        setattr(module, name, stand_in)
        try:
            call()
        except AssertionError as e:
            if words not in str(e):
                sys.exit(f"{module.__name__}.{name}: wrong check fired: {e}")
        else:
            sys.exit(f"{module.__name__}.{name}: the broken result passed its self-check")
        finally:
            setattr(module, name, real)
"""


def test_self_checks_survive_optimized_mode():
    run_fresh(SELF_CHECKS_UNDER_O, flags=("-O",))
