import json

import pytest

from qibg.cli import main


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    return write(tmp_path / "m.json",
                 {"n": 3, "entries": [["1", "0", "2"], ["3", "1", "6"], ["0", "0", "1"]]})


def test_decompose_verify_round_trip(tmp_path, matrix_file, capsys):
    out = str(tmp_path / "fac.json")
    assert main(["decompose", matrix_file, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "factors:" in text and "max log-norm ratio:" in text
    assert main(["verify", matrix_file, out]) == 0


def test_decompose_clockwise_strategy(tmp_path, matrix_file):
    out = str(tmp_path / "fac.json")
    assert main(["decompose", matrix_file, "--strategy", "clockwise",
                 "--out", out]) == 0
    obj = json.loads((tmp_path / "fac.json").read_text())
    assert obj["strategy"] == "clockwise"
    assert main(["verify", matrix_file, out]) == 0


def test_decompose_column_major_spelling(tmp_path, matrix_file):
    outs = []
    for spelling in ([], ["--strategy", "column"], ["--strategy", "column_major"]):
        out = tmp_path / f"fac{len(outs)}.json"
        assert main(["decompose", matrix_file, *spelling, "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[2])["strategy"] == "column_major"


def test_decompose_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "entries": [["1"')
    assert main(["decompose", str(bad)]) == 2


def test_decompose_non_unimodular(tmp_path, capsys):
    path = write(tmp_path / "d2.json", {"n": 2, "entries": [["2", "0"], ["0", "1"]]})
    assert main(["decompose", path]) == 3
    assert "determinant is 2" in capsys.readouterr().err


def test_decompose_rejects_one_by_one(tmp_path):
    path = write(tmp_path / "tiny.json", {"n": 1, "entries": [["1"]]})
    assert main(["decompose", path]) == 3


def test_verify_detects_tampering(tmp_path, matrix_file):
    out = str(tmp_path / "fac.json")
    main(["decompose", matrix_file, "--out", out])
    obj = json.loads((tmp_path / "fac.json").read_text())
    assert obj["factors"], "need at least one factor to delete"
    obj["factors"] = obj["factors"][1:]
    write(tmp_path / "fac.json", obj)
    assert main(["verify", matrix_file, out]) == 1


def test_verify_parse_error(tmp_path, matrix_file):
    trunc = tmp_path / "trunc.json"
    trunc.write_text('{"n": 3, "strategy": "col')
    assert main(["verify", matrix_file, str(trunc)]) == 2


@pytest.mark.parametrize("factor", [{"k": 1, "l": 2}, {"k": "1", "l": 2, "block": []}, 5])
def test_verify_malformed_factor_is_an_input_error(tmp_path, matrix_file, factor):
    fac = write(tmp_path / "fac.json", {"n": 3, "strategy": "column_major",
                                        "factors": [factor]})
    assert main(["verify", matrix_file, fac]) == 2


def test_bigcell_member(tmp_path, capsys):
    path = write(tmp_path / "g.json", {"n": 2, "entries": [["2", "1"], ["1", "1"]]})
    assert main(["bigcell", path]) == 0
    text = capsys.readouterr().out
    assert "member of the big cell" in text
    assert "corner minors: 1" in text


def test_bigcell_non_member(tmp_path, capsys):
    path = write(tmp_path / "rot.json", {"n": 2, "entries": [["0", "1"], ["-1", "0"]]})
    assert main(["bigcell", path]) == 1
    assert "not in the big cell" in capsys.readouterr().out


def test_bigcell_rational_entries(tmp_path, capsys):
    path = write(tmp_path / "q.json",
                 {"n": 2, "entries": [["1/2", "3"], ["1/5", "2"]]})
    assert main(["bigcell", path]) == 0


def test_bigcell_zero_denominator(tmp_path):
    path = write(tmp_path / "z.json", {"n": 2, "entries": [["1/0", "3"], ["1", "2"]]})
    assert main(["bigcell", path]) == 2


def test_bigcell_singular(tmp_path):
    path = write(tmp_path / "s.json", {"n": 2, "entries": [["1", "1"], ["1", "1"]]})
    assert main(["bigcell", path]) == 3


def test_roots_ok(tmp_path, capsys):
    svg = tmp_path / "rays.svg"
    assert main(["roots", "--family", "A", "--rank", "2", "--seed", "1",
                 "--svg", str(svg)]) == 0
    text = capsys.readouterr().out
    assert "3 clockwise classes" in text
    assert svg.read_text().startswith("<svg")


def test_roots_bc1(capsys):
    assert main(["roots", "--family", "BC", "--rank", "1"]) == 0
    assert "1 clockwise classes" in capsys.readouterr().out


def test_roots_invalid_rank(capsys):
    assert main(["roots", "--family", "D", "--rank", "2"]) == 2


def test_bench_ok(tmp_path, capsys):
    cfg = write(tmp_path / "cfg.json",
                {"n": 3, "word_lengths": [5, 10, 15, 20], "samples_per_length": 25,
                 "seed": 7, "strategy": "column_major"})
    out = tmp_path / "bench"
    assert main(["bench", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["violations"] == 0
    csv_text = (out / "report.csv").read_text()
    assert csv_text.startswith("length,log_norm,factor_count,")


def test_bench_invalid_config(tmp_path):
    cfg = write(tmp_path / "cfg.json",
                {"n": 3, "word_lengths": [5], "samples_per_length": 0, "seed": 1})
    assert main(["bench", cfg, "--out", str(tmp_path / "x")]) == 2


def test_bench_rejects_an_underscored_integer(tmp_path):
    cfg = write(tmp_path / "cfg.json",
                {"n": "1_0", "word_lengths": [5], "samples_per_length": 1, "seed": 1})
    assert main(["bench", cfg, "--out", str(tmp_path / "x")]) == 2
    assert not (tmp_path / "x").exists()


def test_verify_zero_matrix_is_a_check_failure(tmp_path, capsys):
    zero = write(tmp_path / "zero.json", {"n": 2, "entries": [["0", "0"], ["0", "0"]]})
    fac = write(tmp_path / "fac.json", {"n": 2, "strategy": "column_major", "factors": []})
    assert main(["verify", zero, fac]) == 1
    assert "product equality: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "{cfg}", "--out", "{taken}"],
    ["decompose", "{matrix}", "--out", "{taken}/fac.json"],
    ["decompose", "{matrix}", "--out", "{tmp}"],
    ["roots", "--family", "A", "--rank", "2", "--svg", "{taken}/rays.svg"],
])
def test_unwritable_output_is_an_input_error(tmp_path, matrix_file, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("kept")
    cfg = write(tmp_path / "cfg.json",
                {"n": 3, "word_lengths": [5], "samples_per_length": 2, "seed": 1})
    paths = {"cfg": cfg, "matrix": matrix_file, "taken": str(taken), "tmp": str(tmp_path)}
    assert main([a.format(**paths) for a in argv]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert taken.read_text() == "kept"
    assert not list(tmp_path.glob(".qibg-*"))


@pytest.mark.parametrize("out", ["{taken}", "{taken}/sub"])
def test_bench_checks_its_output_before_the_campaign(tmp_path, capsys, monkeypatch, out):
    from qibg import harness

    def never(config):
        raise AssertionError("the campaign ran before --out was checked")

    monkeypatch.setattr(harness, "run_campaign", never)
    taken = tmp_path / "taken"
    taken.write_text("kept")
    cfg = write(tmp_path / "cfg.json",
                {"n": 3, "word_lengths": [5], "samples_per_length": 2, "seed": 1})
    assert main(["bench", cfg, "--out", out.format(taken=taken)]) == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert taken.read_text() == "kept"
    assert not list(tmp_path.glob(".qibg-*"))
