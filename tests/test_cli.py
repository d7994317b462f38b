import math
from dataclasses import replace
from fractions import Fraction
from xml.etree import ElementTree

import pytest

from geomatch import fileio, svg_render
from geomatch.algorithms import TransformationSequence, gen_random_matching, transform
from geomatch.cli import main
from geomatch.errors import ParseError
from geomatch.geom_core import Matching, PointSet, Segment, compatible
from geomatch.oracle import enumerate_ncpm, has_disjoint_compatible_pm


# ---------------------------------------------------------------------------
# instance and sequence files


def test_scalar_tokens_round_trip():
    for v in (0, -7, 12, Fraction(3, 4), Fraction(-22, 7)):
        assert fileio.parse_scalar(fileio.format_scalar(v)) == v
    assert fileio.format_scalar(Fraction(8, 4)) == "2"


def test_instance_parse_with_comments():
    text = "# demo\n0 0 2 2\n\n 4 0 6 3 # trailing\n"
    m = fileio.parse_instance(text)
    assert len(m) == 2
    assert m.base.coord(2) == (4, 0)


def test_instance_round_trip_identity():
    m = gen_random_matching(5, 21)
    text = fileio.dump_instance(m)
    again = fileio.dump_instance(fileio.parse_instance(text))
    assert again == text


def test_instance_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        fileio.parse_instance("0 0 1 1\nbroken line\n", "demo.txt")
    assert err.value.lineno == 2
    with pytest.raises(ParseError):
        fileio.parse_instance("1 2 3\n")
    with pytest.raises(ParseError):
        fileio.parse_instance("a b c d\n")
    with pytest.raises(ParseError):
        fileio.parse_instance("")


def test_sequence_round_trip_identity():
    m = gen_random_matching(4, 2)
    cat = enumerate_ncpm(m.base)
    other = next(c for c in cat if set(c.edges) != set(m.edges))
    seq = transform(m, other)
    text = fileio.dump_sequence(seq)
    parsed = fileio.parse_sequence(text)
    assert fileio.dump_sequence(parsed) == text
    assert parsed.length == seq.length


def test_sequence_rejects_bad_structure():
    with pytest.raises(ParseError):
        fileio.parse_sequence("0 0 1 1\n")  # segment before any header
    with pytest.raises(ParseError):
        fileio.parse_sequence("== step 1 ==\n0 0 1 1\n")  # steps must start at 0
    with pytest.raises(ParseError):
        # step 1 uses a point that step 0 does not have
        fileio.parse_sequence(
            "== step 0 ==\n0 0 1 1\n2 0 3 1\n== step 1 ==\n0 0 9 9\n2 0 3 1\n"
        )
    # steps that TransformationSequence would refuse are faults of the file:
    # an incompatible step, and a step that leaves a segment out
    for text, message in bad_step_files():
        with pytest.raises(ParseError, match=message) as err:
            fileio.parse_sequence(text, "demo.txt")
        assert err.value.lineno == 6  # the header of step 1


def bad_step_files():
    m = gen_random_matching(4, 1)
    other = next(c for c in enumerate_ncpm(m.base) if not compatible(m, c))
    step0 = "== step 0 ==\n" + fileio.dump_instance(m)
    return [
        (step0 + "== step 1 ==\n" + fileio.dump_instance(other), "steps 0 and 1 are incompatible"),
        (
            step0 + "== step 1 ==\n" + "".join(fileio.dump_instance(m).splitlines(True)[1:]),
            "step 1 matches other points than step 0",
        ),
    ]


def test_cli_render_refuses_a_bad_sequence_file_as_a_parse_error(tmp_path, capsys):
    for k, (text, message) in enumerate(bad_step_files()):
        path = tmp_path / f"seq{k}.txt"
        path.write_text(text)
        assert main(["render", str(path), str(tmp_path / "s.svg")]) == 2
        assert capsys.readouterr().err == f"parse error: {path}:6: {message}\n"


# ---------------------------------------------------------------------------
# SVG rendering


def test_render_layers_and_determinism():
    m = gen_random_matching(3, 8)
    a = svg_render.render_matching(m, layers=svg_render.LAYERS)
    b = svg_render.render_matching(m, layers=svg_render.LAYERS)
    assert a == b
    root = ElementTree.fromstring(a)
    tags = [child.tag.split("}")[1] for child in root]
    # 4 cells, rays, 3 segments + 6 points, dual polylines + cell dots
    assert tags.count("polygon") == 4
    assert tags.count("polyline") == 6
    assert any(t == "line" for t in tags)


def test_render_single_segment_two_cells():
    ps = PointSet.from_coords([(0, 0), (4, 1)])
    m = Matching(ps, [Segment(0, 1)])
    svg = svg_render.render_matching(m, layers=("cells", "extensions"))
    root = ElementTree.fromstring(svg)
    cells = [c for c in root if c.tag.endswith("polygon")]
    assert len(cells) == 2


def test_render_sequence_shares_viewport():
    m = gen_random_matching(2, 5)
    cat = enumerate_ncpm(m.base)
    other = next(c for c in cat if set(c.edges) != set(m.edges))
    seq = transform(m, other)
    pages = svg_render.render_sequence(seq)
    views = {ElementTree.fromstring(p).get("viewBox") for p in pages}
    assert len(pages) == seq.length + 1
    assert len(views) == 1


def test_render_rejects_unknown_layer():
    m = gen_random_matching(1, 0)
    with pytest.raises(Exception):
        svg_render.render_matching(m, layers=("segments", "shadows"))


# ---------------------------------------------------------------------------
# command-line surface


def write_instance(tmp_path, name, m):
    path = tmp_path / name
    fileio.save_instance(m, path)
    return str(path)


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("0 0 2 2\n4 0 6 3\n")
    assert main(["validate", str(good)]) == 0
    assert "perfect, non-crossing" in capsys.readouterr().out

    crossing = tmp_path / "crossing.txt"
    crossing.write_text("0 0 2 2\n0 2 2 0\n")
    assert main(["validate", str(crossing)]) == 1
    assert "cross" in capsys.readouterr().err

    collinear = tmp_path / "collinear.txt"
    collinear.write_text("0 0 1 1\n2 2 5 9\n")
    assert main(["validate", str(collinear)]) == 1
    assert "collinear" in capsys.readouterr().err

    broken = tmp_path / "broken.txt"
    broken.write_text("1 2 3\n")
    assert main(["validate", str(broken)]) == 2
    assert main(["validate", str(tmp_path / "missing.txt")]) == 2


def test_cli_gen_then_validate(tmp_path):
    for flavor, n in [("random", 3), ("hv", 4), ("chc", 3), ("parallel-chords", 3), ("general-odd", 1)]:
        out = tmp_path / f"{flavor}.txt"
        assert main(["gen", flavor, str(n), "--seed", "6", "--out", str(out)]) == 0
        assert main(["validate", str(out)]) == 0


def test_cli_transform_run(tmp_path, capsys):
    m = gen_random_matching(4, 13)
    cat = enumerate_ncpm(m.base)
    other = next(c for c in cat if set(c.edges) != set(m.edges))
    a = write_instance(tmp_path, "a.txt", m)
    b = write_instance(tmp_path, "b.txt", other)
    seq_path = tmp_path / "seq.txt"
    code = main(
        ["run", "transform", a, b, "--verify", "--oracle", "--out", str(seq_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: exact distance" in out
    seq = fileio.load_sequence(seq_path)
    assert seq.length <= 2 * math.ceil(math.log2(4))


def test_cli_transform_shear_flag(tmp_path, capsys):
    # transform shears tied x-coordinates itself, so the flag is gone
    ps = PointSet.from_coords([(0, 0), (0, 4), (3, 1), (3, 5)])
    a = write_instance(tmp_path, "a.txt", Matching(ps, [Segment(0, 1), Segment(2, 3)]))
    b = write_instance(tmp_path, "b.txt", Matching(ps, [Segment(0, 2), Segment(1, 3)]))
    assert main(["run", "transform", a, b, "--verify", "--oracle"]) == 0
    assert "verify: endpoints match" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["run", "transform", a, b, "--shear"])
    assert exc.value.code == 2


def test_cli_transform_verify_with_the_wrong_target_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    import geomatch.algorithms as algorithms

    m = gen_random_matching(4, 13)
    other = next(c for c in enumerate_ncpm(m.base) if c.edges != m.edges)
    # a sequence that starts at the first input and never leaves it
    monkeypatch.setattr(
        algorithms, "transform", lambda m1, m2: TransformationSequence((m1,))
    )
    a = write_instance(tmp_path, "a.txt", m)
    b = write_instance(tmp_path, "b.txt", other)
    assert main(["run", "transform", a, b]) == 0
    assert main(["run", "transform", a, b, "--verify"]) == 3
    assert "does not join the two inputs" in capsys.readouterr().err


def test_cli_four_fifths_verify_below_the_guarantee_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    import geomatch.algorithms as algorithms

    real = algorithms.four_fifths_matching

    def short(m):
        # a disjoint compatible output with 2 of the 8 guaranteed segments
        rep = real(m)
        edges = rep.matching.sorted_edges()[:2]
        return replace(rep, matching=Matching(m.base, edges), achieved=2)

    monkeypatch.setattr(algorithms, "four_fifths_matching", short)
    path = write_instance(tmp_path, "ff.txt", gen_random_matching(10, 3))
    assert main(["run", "four-fifths", path]) == 0
    assert main(["run", "four-fifths", path, "--verify"]) == 3
    assert "2 segments; 8 guaranteed" in capsys.readouterr().err


def test_cli_crossings_verify_of_a_crossing_half_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    import geomatch.algorithms as algorithms

    ps = PointSet.from_coords(
        [(0, 0), (4, 0), (1, -2), (5, -3), (2, 3), (7, 5), (8, 1), (9, -1)]
    )
    m = Matching(ps, [Segment(0, 1), Segment(2, 3), Segment(4, 5), Segment(6, 7)])
    real = algorithms.crossings_matchings

    def crossing(m):
        # (1, -2)-(2, 3) crosses the input segment (0, 0)-(4, 0)
        _, m_r = real(m)
        return Matching(m.base, [Segment(2, 4)]), m_r

    monkeypatch.setattr(algorithms, "crossings_matchings", crossing)
    path = write_instance(tmp_path, "c.txt", m)
    assert main(["run", "crossings", path]) == 0
    assert main(["run", "crossings", path, "--verify"]) == 3
    assert f"{Segment(2, 4)} crosses input segment {Segment(0, 1)}" in capsys.readouterr().err


def test_cli_hv_and_four_fifths(tmp_path, capsys):
    hv_in = write_instance(
        tmp_path, "hv.txt", gen_random_matching(4, 3, "axis-parallel")
    )
    out = tmp_path / "hv_out.txt"
    assert main(["run", "hv", hv_in, "--verify", "--out", str(out)]) == 0
    assert "spanning tree" in capsys.readouterr().out
    assert main(["validate", str(out)]) == 0

    ff_in = write_instance(tmp_path, "ff.txt", gen_random_matching(10, 3))
    assert main(["run", "four-fifths", ff_in, "--verify"]) == 0
    assert "guarantee 8" in capsys.readouterr().out


def test_cli_oracle_answers_for_four_fifths_hv_and_chc(tmp_path, capsys):
    # 6 segments are 12 points, at the oracle's limit: it runs and agrees
    # with a perfect disjoint compatible output
    cases = [
        ("four-fifths", gen_random_matching(6, 1)),
        ("hv", gen_random_matching(4, 3, "axis-parallel")),
        ("chc", gen_random_matching(4, 1, "chc")),
    ]
    for algorithm, m in cases:
        inst = write_instance(tmp_path, f"{algorithm}.txt", m)
        assert main(["run", algorithm, inst, "--verify", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "oracle: a disjoint compatible perfect matching exists" in out, algorithm


def test_cli_oracle_answers_for_an_odd_hv_matching(tmp_path, capsys):
    # an odd matching gets no perfect output from hv, but the oracle still
    # answers for it
    m = gen_random_matching(3, 4, "axis-parallel")
    found, _ = has_disjoint_compatible_pm(m)
    inst = write_instance(tmp_path, "hv3.txt", m)
    assert main(["run", "hv", inst, "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "no perfect partner" in out
    answer = "a disjoint compatible" if found else "no disjoint compatible"
    assert f"oracle: {answer} perfect matching exists" in out


def test_cli_oracle_is_skipped_past_its_point_limit(tmp_path, capsys):
    inst = write_instance(tmp_path, "ff.txt", gen_random_matching(8, 2))
    assert main(["run", "four-fifths", inst, "--oracle"]) == 0
    assert "oracle: skipped (16 points > 12)" in capsys.readouterr().out


def test_cli_oracle_disagreeing_with_a_perfect_output_is_an_internal_error(
    tmp_path, capsys, monkeypatch
):
    import geomatch.cli as cli

    monkeypatch.setattr(cli, "has_disjoint_compatible_pm", lambda m: (False, None))
    inst = write_instance(tmp_path, "chc.txt", gen_random_matching(4, 1, "chc"))
    assert main(["run", "chc", inst, "--oracle"]) == 3
    assert "oracle found no disjoint compatible perfect matching" in capsys.readouterr().err


def test_cli_oracle_reports_no_witness_when_the_output_is_not_perfect(
    tmp_path, capsys, monkeypatch
):
    import geomatch.algorithms as algorithms
    import geomatch.cli as cli

    m = gen_random_matching(4, 5)
    half = Matching(m.base, [], check=False)
    report = algorithms.four_fifths_matching(m)
    monkeypatch.setattr(cli, "has_disjoint_compatible_pm", lambda m: (False, None))
    monkeypatch.setattr(
        algorithms, "four_fifths_matching", lambda m: replace(report, matching=half)
    )
    inst = write_instance(tmp_path, "ff.txt", m)
    assert main(["run", "four-fifths", inst, "--oracle"]) == 0
    assert "oracle: no disjoint compatible perfect matching exists" in capsys.readouterr().out


def test_cli_oracle_flag_is_rejected_where_there_is_no_cross_check(tmp_path, capsys):
    inst = write_instance(tmp_path, "c.txt", gen_random_matching(4, 19))
    for algorithm in ("crossings", "two-trees-search"):
        assert main(["run", algorithm, inst, "--oracle"]) == 1
        assert f"--oracle has no cross-check for {algorithm}" in capsys.readouterr().err


def test_cli_crossings_writes_both_halves(tmp_path):
    inst = write_instance(tmp_path, "c.txt", gen_random_matching(4, 19))
    assert main(["run", "crossings", inst, "--verify", "--out", str(tmp_path / "x.txt")]) == 0
    assert main(["validate", str(tmp_path / "x.left.txt")]) == 0
    assert main(["validate", str(tmp_path / "x.right.txt")]) == 0


def test_cli_run_surfaces_precondition_failures(tmp_path, capsys):
    odd = write_instance(tmp_path, "odd.txt", gen_random_matching(3, 1))
    assert main(["run", "four-fifths", odd]) == 1
    assert "even" in capsys.readouterr().err
    slanted = write_instance(tmp_path, "gen.txt", gen_random_matching(2, 1))
    assert main(["run", "hv", slanted]) == 1


def test_cli_chc_rejects_collinear_input_as_validate_does(tmp_path, capsys):
    # a convex-hull-connected matching on a 4x3 grid; the construction used
    # to fail its own inner-matching assertion here (exit 3)
    inst = tmp_path / "grid.txt"
    inst.write_text("0 0 0 1\n1 0 1 2\n2 0 3 0\n2 1 3 2\n")
    assert main(["validate", str(inst)]) == 1
    validate_err = capsys.readouterr().err
    assert main(["run", "chc", str(inst), "--verify"]) == 1
    assert capsys.readouterr().err == validate_err
    assert "collinear" in validate_err


def test_cli_render_instance_and_sequence(tmp_path):
    m = gen_random_matching(2, 4)
    inst = write_instance(tmp_path, "m.txt", m)
    svg = tmp_path / "m.svg"
    assert main(["render", inst, str(svg), "--layers", "segments,cells,dual"]) == 0
    ElementTree.parse(svg)

    cat = enumerate_ncpm(m.base)
    other = next(c for c in cat if set(c.edges) != set(m.edges))
    seq = transform(m, other)
    seq_path = tmp_path / "seq.txt"
    fileio.save_sequence(seq, seq_path)
    assert main(["render", str(seq_path), str(tmp_path / "s.svg")]) == 0
    for k in range(seq.length + 1):
        ElementTree.parse(tmp_path / f"s.step{k}.svg")
