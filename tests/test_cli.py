import dataclasses
import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matstab import cli, lyapunov, matrix_core, polynomials, special_forms
from matstab import dstability as ds
from matstab.spectra import (ComplementSector, Disk, HalfPlaneLeft,
                             Hyperbolic, Region, SectorRight,
                             Status, Verdict, eigenvalues, first_outside,
                             membership)

from conftest import (benchmark_corpus, random_diagonally_stable,
                      random_schur_diag_stable)


def request_for(matrix, **kw):
    return cli.AnalysisRequest(matrix=np.asarray(matrix, dtype=float), **kw)


class TestParseMatrix:
    def test_json_object(self):
        m = cli.parse_matrix('{"n": 2, "rows": [[-1, 0], [0, -2]]}')
        assert np.allclose(m, np.diag([-1.0, -2.0]))

    def test_csv(self):
        m = cli.parse_matrix("-1,0\n0,-2")
        assert np.allclose(m, np.diag([-1.0, -2.0]))

    def test_ragged_rows_rejected(self):
        with pytest.raises(cli.UsageError, match="row 1"):
            cli.parse_matrix('{"n": 2, "rows": [[-1, 0], [0]]}')

    def test_csv_bad_cell_located(self):
        with pytest.raises(cli.UsageError, match="row 1, column 1"):
            cli.parse_matrix("1,2\n3,x")

    def test_nonsquare_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_matrix("1,2\n3,4\n5,6")

    def test_nonfinite_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.parse_matrix('{"n": 1, "rows": [[1e999]]}')

    @pytest.mark.parametrize("text, message", [
        ('{"rows":[1,2]}', "list of lists"),
        ('{"rows":{"a":1}}', "list of lists"),
        ('{"rows":[[1]],"n":"1"}', "non-negative integer, got '1'"),
        ('{"rows":[[1]],"n":true}', "non-negative integer, got True"),
    ])
    def test_malformed_json_rejected(self, text, message, capsys):
        with pytest.raises(cli.UsageError, match=message):
            cli.parse_matrix(text)
        assert cli.main(["--", text]) == 1
        assert capsys.readouterr().err.startswith("matstab: error: ")

    def test_out_of_range_integer_rejected(self, capsys):
        text = '{"rows":[[1' + "0" * 400 + ']]}'
        with pytest.raises(cli.UsageError, match="too large"):
            cli.parse_matrix(text)
        assert cli.main([text]) == 1
        err = capsys.readouterr().err
        assert err == ("matstab: error: matrix JSON: int too large to "
                       "convert to float\n")


class TestParsers:
    def test_regions(self):
        assert cli.parse_region("half-plane-left").name == "half-plane-left"
        d = cli.parse_region("disk:1,2")
        assert d.center == 1.0 and d.radius == 2.0
        lmi = cli.parse_region('lmi:{"l": [[0]], "m": [[1]]}')
        assert lmi.name == "lmi"
        with pytest.raises(cli.UsageError):
            cli.parse_region("nope")

    @pytest.mark.parametrize("spec, message", [
        ('lmi:{"x":1}', "lmi region needs a JSON object with keys l, m"),
        ('emi:{"r11":[[0]]}', "keys r11, r12, r22"),
        ('lmi:[1]', "lmi region needs a JSON object"),
        ('lmi:{"l":{"a":1},"m":[[1]]}', "lmi region: float"),
        ('disk:nan,1', "disk region: disk center and radius must be finite"),
        ('disk:0,inf', "disk region: disk center and radius must be finite"),
        ('lmi:{"l":[[Infinity]],"m":[[1]]}',
         "lmi region: region data must be finite"),
        ('lmi:{"l":[[1]],"m":[[NaN]]}',
         "lmi region: region data must be finite"),
        ('emi:{"r11":[[-1]],"r12":[[Infinity]],"r22":[[1]]}',
         "emi region: region data must be finite"),
        # the matrix reader's entry rule: a bool or a string is no number
        ('lmi:{"l":[[false]],"m":[[true]]}',
         "lmi region: an entry of l, false, is not a number"),
        ('emi:{"r11":[["-1"]],"r12":[[0]],"r22":[[1]]}',
         'emi region: an entry of r11, "-1", is not a number'),
        ('lmi:{"l":[[0, 0], [0, 0]],"m":[[true, 1], [0, 1]]}',
         "lmi region: an entry of m, true, is not a number"),
    ])
    def test_malformed_region_json_rejected(self, spec, message, capsys):
        with pytest.raises(cli.UsageError, match=message):
            cli.parse_region(spec)
        assert cli.main(["--region", spec, "--", "-1,0;0,-1"]) == 1
        assert capsys.readouterr().err.startswith("matstab: error: ")

    @pytest.mark.parametrize("spec", [
        'lmi:{"l":[[BIG]],"m":[[1]]}',
        'emi:{"r11":[[BIG]],"r12":[[0]],"r22":[[1]]}'], ids=["lmi", "emi"])
    def test_out_of_range_integer_in_region_rejected(self, spec, capsys):
        spec = spec.replace("BIG", "1" + "0" * 400)
        name = spec[:3]
        with pytest.raises(cli.UsageError, match=f"{name} region: int too"):
            cli.parse_region(spec)
        assert cli.main(["--region", spec, "--", "-1,0;0,-1"]) == 1
        err = capsys.readouterr().err
        assert err == (f"matstab: error: {name} region: int too large to "
                       "convert to float\n")

    def test_classes(self):
        assert cli.parse_gclass("positive-diagonal").name == "positive-diagonal"
        iv = cli.parse_gclass("interval-diagonal:0.5/2,1/inf")
        assert iv.d_min == (0.5, 1.0) and iv.d_max[1] == float("inf")
        sp = cli.parse_gclass("sign-pattern:+-+")
        assert sp.signs == (1, -1, 1)
        al = cli.parse_gclass("alpha-scalar:0,1|2")
        assert al.partition == ((0, 1), (2,))

    def test_ops(self):
        assert cli.parse_op("multiply").name == "multiply"
        assert cli.parse_op("block-hadamard:2").block == 2
        with pytest.raises(cli.UsageError):
            cli.parse_op("divide")

    @pytest.mark.parametrize("flag, spec, message", [
        ("--class", "alpha-scalar:0,1,2,3", "partition blocks"),
        ("--op", "block-hadamard:3", "block size 3 does not divide"),
        ("--class", "sign-pattern:+", "signs must be a vector"),
        ("--class", "sign-pattern:+x", "may hold only \\+ and -"),
    ])
    def test_class_or_op_of_another_size_rejected(self, flag, spec, message,
                                                  capsys):
        field = {"--class": "class_spec", "--op": "op_spec"}[flag]
        with pytest.raises(cli.UsageError, match=message):
            request_for(-np.eye(2), **{field: spec})
        assert cli.main([flag, spec, "--", "-1,0;0,-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("matstab: error: ")
        assert "Traceback" not in captured.err


class TestIngestionHelpers:
    @pytest.mark.parametrize("arg, partition", [
        ("0", ((0,),)),
        ("0,1|2", ((0, 1), (2,))),
        ("2|0|1,3", ((2,), (0,), (1, 3))),
    ])
    def test_partition(self, arg, partition):
        assert cli._parse_partition(arg) == partition

    def test_load_matrix_from_file_and_inline(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("-1,0\n0,-2\n")
        expect = np.diag([-1.0, -2.0])
        assert np.array_equal(cli.load_matrix(str(path)), expect)
        assert np.array_equal(cli.load_matrix("-1,0;0,-2"), expect)
        assert np.array_equal(
            cli.load_matrix('{"rows": [[-1, 0], [0, -2]]}'), expect)

    @pytest.mark.parametrize("x, encoded", [
        (1.5, 1.5), (float("inf"), "Infinity"), (float("-inf"), "-Infinity"),
        (float("nan"), "NaN"), (np.float32(0.25), 0.25),
    ])
    def test_json_float(self, x, encoded):
        assert cli._json_float(x) == encoded


class TestRun:
    def test_negative_identity_proved_by_suite(self):
        report = cli.run(request_for(-np.eye(2)))
        assert report.summary_status is Status.PROVED
        assert report.summary_reason in ("sufficient-suite",
                                         "diagonal-certificate")

    def test_classic_counterexample_refuted_with_witness(self):
        report = cli.run(request_for([[1.0, -4.0], [1.0, -2.0]],
                                     exhaustive=True))
        assert report.summary_status is Status.REFUTED
        fal = [c for c in report.checks if c.check == "falsify"]
        assert fal and fal[0].verdict.refuted
        w = fal[0].verdict.witness
        assert isinstance(w, ds.FalsificationWitness)

    def test_cyclic_certify_attaches_certificate(self):
        from matstab import lyapunov as ly
        m = [[-1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]
        report = cli.run(request_for(m, exhaustive=True))
        suite = [c for c in report.checks if c.check == "sufficient-suite"]
        assert suite and suite[0].decides
        assert suite[0].data["items"]["single-circuit"].proved
        assert report.summary_status is Status.PROVED
        # a diagonal certificate is attached and re-verifies
        certs = [c.verdict.witness for c in report.checks
                 if isinstance(c.verdict.witness, ly.Certificate)]
        assert certs
        assert ly.verify_certificate(np.asarray(m), certs[0]) > 0

    def test_schur_combo_uses_vertex_and_falsify(self, rng):
        a = 0.4 * np.eye(3)
        report = cli.run(request_for(
            a, region_spec="disk:0,1", class_spec="diagonal-norm-lt1",
            samples=500))
        names = [c.check for c in report.checks]
        assert "vertex-enumeration" in names
        assert report.summary_status is not Status.REFUTED

    @pytest.mark.parametrize("a", [np.eye(2), [[0.0, 1.0], [1.0, 0.0]]],
                             ids=["identity", "permutation"])
    def test_boundary_vertex_does_not_refute_schur(self, a):
        # rho(S A) = 1 at every vertex, and every D A with |d_i| < 1 has
        # rho < 1: the vertex is not in the strict class, so it refutes
        # vertex stability only
        for exhaustive in (False, True):
            report = cli.run(request_for(
                a, region_spec="disk:0,1", class_spec="diagonal-norm-lt1",
                samples=500, budget=500, exhaustive=exhaustive))
            vertex = next(c for c in report.checks
                          if c.check == "vertex-enumeration")
            assert vertex.verdict.refuted and not vertex.decides
            assert report.summary_status is not Status.REFUTED
        # S = I is in the vertex class, so there the boundary decides
        report = cli.run(request_for(
            a, region_spec="disk:0,1", class_spec="vertex-diagonal",
            samples=500, budget=500, exhaustive=True))
        vertex = next(c for c in report.checks
                      if c.check == "vertex-enumeration")
        assert vertex.verdict.refuted and vertex.decides

    @pytest.mark.parametrize("a, signs", [
        ([[0.0, 1.5], [1.0, 0.0]], (1.0, 1.0)),
        # S = I is on the circle (spectrum {1, -0.5}); diag(1, -1) escapes
        ([[1.5, 1.0], [-1.0, -1.0]], (1.0, -1.0))],
        ids=["first-vertex", "later-vertex"])
    def test_vertex_past_the_band_refutes_schur(self, a, signs):
        for exhaustive in (False, True):
            report = cli.run(request_for(
                a, region_spec="disk:0,1", class_spec="diagonal-norm-lt1",
                samples=500, budget=500, exhaustive=exhaustive))
            assert report.summary_status is Status.REFUTED
            assert report.summary_reason == "vertex-enumeration"
            vertex = next(c for c in report.checks
                          if c.check == "vertex-enumeration")
            assert vertex.verdict.witness["signs"] == signs
            assert vertex.verdict.witness["spectral_radius"] > 1.0 + 1e-6

    def test_later_vertex_is_solved_once(self, monkeypatch):
        # S = I is on the circle, diag(1, -1) escapes: one pass solves
        # each of the two vertices once
        solved = []
        inner = ds.eigenvalues
        monkeypatch.setattr(ds, "eigenvalues",
                            lambda m: solved.append(m) or inner(m))
        report = cli.run(request_for(
            [[1.5, 1.0], [-1.0, -1.0]], region_spec="disk:0,1",
            class_spec="diagonal-norm-lt1", samples=500, budget=500))
        assert report.summary_reason == "vertex-enumeration"
        assert len(solved) == 2
        # the later vertex names its eigenvalue of largest modulus
        w = report.checks[-1].verdict.witness
        assert abs(w["eigenvalue"]) == w["spectral_radius"]

    @pytest.mark.parametrize("kind, n", [("triangular", 16), ("dense", 16),
                                         ("triangular", 17)])
    def test_vertex_enumeration_at_the_cap(self, kind, n, capsys):
        if kind == "triangular":
            # every S A is triangular with diagonal 0.5, while ||A||_2 >> 1
            a = np.triu(np.full((n, n), 2.0), 1) + 0.5 * np.eye(n)
        else:
            # proved by ||A||_2 = 0.9 with no eigen-solve
            a = np.cos(0.7 * np.arange(float(n * n)).reshape(n, n))
            a *= 0.9 / np.linalg.norm(a, 2)
        text = ";".join(",".join(repr(float(x)) for x in row) for row in a)
        assert cli.main(["--region", "disk:0,1", "--class", "vertex-diagonal",
                         "--samples", "200", "--budget", "200",
                         "--format", "json", "--", text]) == 0
        report = json.loads(capsys.readouterr().out)
        vertex = [c for c in report["checks"]
                  if c["check"] == "vertex-enumeration"]
        if n > ds.VERTEX_ENUM_CAP:
            assert not vertex
        else:
            assert report["summary"]["decided_by"] == "vertex-enumeration"

    def test_block_hadamard_self_stability_decides_nothing(self, capsys):
        # D o_2 A = -D is Hurwitz for every positive diagonal D, though A
        # is not: the identity of o_2 (I_2 in every block) is not diagonal
        argv = ["--op", "block-hadamard:2", "--format", "json", "--",
                "-1,0,5,0;0,-1,0,5;5,0,-1,0;0,5,0,-1"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        first = report["checks"][0]
        assert (first["check"], first["status"]) == ("self-stability",
                                                     "refuted")
        assert not first["decides_request"]
        assert report["summary"]["status"] == "unknown"

    def test_positive_diagonal_subclass_wiring(self):
        # D-stability proofs transfer to subclasses of positive diagonals
        a = [[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -2.0]]
        report = cli.run(request_for(a, class_spec="alpha-scalar:0,1|2",
                                     samples=500, budget=500))
        assert report.summary_status is Status.PROVED

    def test_interval_box_reduction_check(self):
        a = [[-2.0, 1.0], [0.5, -2.0]]
        report = cli.run(request_for(
            a, class_spec="interval-diagonal:0.5/2,0.5/2",
            samples=500, budget=500, exhaustive=True))
        boxes = [c for c in report.checks if c.check == "interval-box"]
        assert boxes and boxes[0].verdict.proved
        assert report.summary_status is Status.PROVED

    def test_interval_box_past_the_minor_cap_names_the_cap(self):
        # -A is a triangular P-matrix, but P0 is not decided past n = 14
        a = np.diag(np.full(15, -3.0)) + np.diag(np.full(14, 0.5), 1)
        report = cli.run(request_for(
            a, class_spec="interval-diagonal:" + ",".join(["0.5/2"] * 15),
            samples=100, budget=100, exhaustive=True))
        box = next(c for c in report.checks if c.check == "interval-box")
        assert box.verdict.reason == ("premise-fails: P0 is undecided past "
                                      "the minor enumeration cap n = 14")
        assert not box.decides

    def test_region_class_and_op_come_from_the_specs(self):
        # the report names the specs, so a request cannot carry other objects
        with pytest.raises(TypeError):
            request_for(np.diag([0.5, 0.5]), region=Disk())
        r = request_for(np.eye(2), region_spec="disk:0,1",
                        class_spec="negative-diagonal", op_spec="add")
        assert (r.region, r.gclass, r.op) == (Disk(), ds.NegativeDiagonal(),
                                              ds.Add())

    @pytest.mark.parametrize("matrix, region, gclass, op", [
        ("1,-4;1,-2", "half-plane-left", "positive-diagonal", "multiply"),
        ("-2,1,0;0,-2,1;1,0,-2", "half-plane-left", "positive-diagonal",
         "multiply"),
        ("1,-4;1,-2", "half-plane-left", "negative-diagonal", "add"),
        ("-2,1,0;0,-2,1;1,0,-2", "half-plane-left", "negative-diagonal",
         "add"),
        ("1,-4;4,-2", "half-plane-left", "spd", "hadamard"),
        ("1,-4,0,0;1,-2,0,0;0,0,-1,0;0,0,0,-1", "half-plane-left",
         "positive-diagonal", "block-hadamard:2"),
        ("0.5,0.2;0.1,0.4", "disk:0,1", "diagonal-norm-lt1", "multiply"),
        ("0.5,0.2;0.1,0.4", "disk:0,1", "positive-diagonal", "multiply"),
        ("2,1,0;-1,-1,1;0,1,3", "hyperbolic", "positive-diagonal",
         "multiply"),
        ("1,2;-1,1", "hyperbolic", "negative-diagonal", "multiply"),
        ("2,0.3;0.3,1", "sector:0.6", "positive-diagonal", "multiply"),
        ("1,-4;1,-2", "sector:0.6", "positive-diagonal", "multiply"),
        ("-1,3;0,-1", "half-plane-left", "spd", "multiply"),
    ])
    def test_every_report_replays_on_its_own_matrix(self, matrix, region,
                                                     gclass, op):
        # a witness's product and a certificate's operator are of the
        # matrix the report names, bit for bit
        report = cli.run(cli.AnalysisRequest(
            matrix=cli.load_matrix(matrix), region_spec=region,
            class_spec=gclass, op_spec=op, exhaustive=True, samples=500,
            budget=500, seed=1))
        a = report.request.matrix
        replayed = 0
        for c in report.checks:
            w = c.verdict.witness
            if isinstance(w, ds.FalsificationWitness):
                realized = report.request.op.apply(w.g, a)
                assert realized.tobytes() == w.realized.tobytes(), c.check
                replayed += 1
            elif isinstance(w, lyapunov.Certificate):
                assert lyapunov.verify_certificate(a, w) > 0, c.check
                replayed += 1
        assert replayed

    def test_bounded_region_guard_in_pipeline(self):
        report = cli.run(request_for(
            0.5 * np.eye(2), region_spec="disk:0,1",
            class_spec="positive-diagonal", samples=100))
        assert report.summary_status is Status.REFUTED
        assert report.summary_reason == "falsify"

    @pytest.mark.parametrize("region_spec, matrix", [
        ("sector:0.6", [[2.0, 0.3], [0.3, 1.0]]),
        ("half-plane-right", [[2.0, -1.0], [3.0, 1.0]]),
        ('lmi:{"l": [[0]], "m": [[-1]]}', [[2.0, -1.0], [3.0, 1.0]]),
    ])
    @pytest.mark.parametrize("class_spec, decides", [
        ("positive-diagonal", True), ("interval-diagonal:0.5/2,0.5/2", True),
        ("alpha-scalar:0|1", True), ("ordered-diagonal:1,0", True),
        ("spd", False), ("negative-diagonal", False)])
    def test_conic_certificate_decides_positive_diagonal_classes(
            self, region_spec, matrix, class_spec, decides):
        # L1 carries a certificate to every class of positive diagonals;
        # for any other class no lemma holds, and the search does not run
        report = cli.run(request_for(matrix, region_spec=region_spec,
                                     class_spec=class_spec, samples=300,
                                     exhaustive=True))
        cert = [c for c in report.checks
                if c.check == "diagonal-certificate"]
        assert report.conflicts == []
        if not decides:
            assert cert == []
            return
        assert cert[0].verdict.proved and cert[0].decides
        assert cert[0].verdict.witness.kind == "diagonal-lmi"
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "diagonal-certificate")

    def test_conic_certificate_does_not_decide_addition(self):
        report = cli.run(request_for([[2.0, 0.3], [0.3, 1.0]],
                                     region_spec="sector:0.6", op_spec="add",
                                     samples=300))
        assert "diagonal-certificate" not in [c.check for c in report.checks]

    def test_sector_escape_is_not_certified(self):
        # a complex pair at angle 0.9 lies outside the sector of angle 0.6
        a = 1.5 * np.array([[np.cos(0.9), np.sin(0.9)],
                            [-np.sin(0.9), np.cos(0.9)]])
        report = cli.run(request_for(a, region_spec="sector:0.6",
                                     samples=300))
        assert report.summary_status is Status.REFUTED
        cert = [c for c in report.checks if c.check == "diagonal-certificate"]
        assert not any(c.verdict.proved for c in cert)


# Hurwitz, -A passes P0+, and A[{0, 1, 3}] has Re lambda ~ +0.097
UNSTABLE_BLOCK_4 = "0,0.5,0.5,-1;0,-1.5,-1.5,-1.5;-0.5,1,-0.5,-0.5;1,0,0.5,0"


class TestSubmatrixDescentRow:
    @pytest.mark.parametrize("op, gclass", [
        ("multiply", ds.PositiveDiagonal()),
        ("add", ds.NegativeDiagonal())])
    def test_unstable_block_is_refuted_by_the_descent(self, op, gclass,
                                                      capsys):
        code = cli.main(["--op", op, "--class", gclass.name,
                         "--format", "json", "--", UNSTABLE_BLOCK_4])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["decided_by"] == "submatrix-descent"
        assert report["summary"]["skipped"] == ["falsify"]
        a = np.asarray(report["request"]["matrix"])
        w = next(c for c in report["checks"]
                 if c["check"] == "submatrix-descent")["witness"]
        g, realized = np.asarray(w["g"]), np.asarray(w["realized"])
        assert g.shape == (4, 4) and w["sample_index"] == -1
        assert gclass.contains(g)
        assert np.array_equal(cli.parse_op(op).apply(g, a), realized)
        assert first_outside(eigenvalues(realized),
                             HalfPlaneLeft()) is not None

    def test_all_blocks_hurwitz_falls_through_to_falsify(self):
        a = [[-1.1586866326625964, -1.590694533491332, -0.02837087229130277,
              -0.22586043941753345],
             [0.00943665078785278, -0.00888761263571032,
              0.12288948299918538, 0.8184366940797856],
             [1.474260216290081, -0.41458649631380295,
              -0.8094849271207406, 0.5878909690485365],
             [0.0844667555063645, -0.3531982696503235,
              -0.03852174189029013, -0.8639405594525829]]
        report = cli.run(request_for(a))
        descent = next(c for c in report.checks
                       if c.check == "submatrix-descent")
        assert descent.verdict.status is Status.UNKNOWN
        assert (report.summary_status, report.summary_reason) == (
            Status.REFUTED, "falsify")
        assert report.checks[-1].verdict.witness.g.shape == (4, 4)

    def test_other_triples_do_not_run_it(self):
        report = cli.run(request_for([[1.5, 1.0], [-1.0, -1.0]],
                                     class_spec="spd", exhaustive=True,
                                     samples=200, budget=200))
        assert "submatrix-descent" not in [c.check for c in report.checks]


def _with_symmetric_top(rng, n, scale, top):
    """A random n x n matrix whose A + A^T has the top eigenvalue ``top``."""
    b = scale * rng.normal(size=(n, n))
    return b + 0.5 * (top - np.linalg.eigvalsh(b + b.T)[-1]) * np.eye(n)


class TestRankOneWitness:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10),
           scale=st.floats(0.1, 10.0), top=st.floats(-3.0, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_every_refutation_replays(self, seed, n, scale, top):
        a = _with_symmetric_top(np.random.default_rng(seed), n, scale, top)
        verdict, decides, _ = cli._symmetric_part(
            cli._Context(request_for(a, class_spec="spd")))
        if verdict.refuted:
            w = verdict.witness
            assert isinstance(w, ds.FalsificationWitness)
            assert ds.SPD().contains(w.g)
            assert np.array_equal(ds.Multiply().apply(w.g, a), w.realized)
            assert first_outside(eigenvalues(w.realized),
                                 HalfPlaneLeft()) is not None
            assert w.sample_index == -1 and decides
        if top >= 1.0:
            assert verdict.refuted
        if top <= -1.0:
            assert verdict.proved

    def test_hadamard_gets_no_rank_one_witness(self):
        a = [[-1.0, 3.0], [0.0, -1.0]]
        mult = cli.run(request_for(a, class_spec="spd"))
        assert (mult.summary_status, mult.summary_reason) == (
            Status.REFUTED, "symmetric-part")
        assert mult.checks[-1].verdict.witness.note.startswith(
            "rank-one-symmetric-part")
        had = cli.run(request_for(a, class_spec="spd", op_spec="hadamard",
                                  samples=300, exhaustive=True))
        sym = next(c for c in had.checks if c.check == "symmetric-part")
        assert sym.verdict.status is Status.UNKNOWN
        assert sym.verdict.witness is None and not sym.decides

    @pytest.mark.parametrize("op_spec", ["multiply", "hadamard"])
    def test_diagonal_certificate_skips_h_stability(self, op_spec):
        a = [[-1.0, 3.0], [0.0, -1.0]]
        report = cli.run(request_for(a, class_spec="spd", op_spec=op_spec,
                                     samples=300, exhaustive=True))
        assert "diagonal-certificate" not in [c.check for c in report.checks]


# random Hurwitz n = 8 inputs whose sufficient suite does not prove at
# budget 300: the suite runs the first SEARCH_PREFIX steps of the
# half-plane diagonal search, and the certificate check resumes it
HURWITZ_8_UNDECIDED = [
    [-3.5, 0.5, 0.2, 1.9, -0.0, -1.3, -1.0, 1.5],
    [-0.5, -4.7, -0.6, 0.0, 1.2, -1.0, 0.7, 0.8],
    [-0.7, -0.2, -0.8, 1.7, 0.9, 0.3, 1.1, -0.1],
    [-0.1, -0.9, 0.0, -2.7, 2.8, -0.2, 1.3, 1.3],
    [-0.2, 1.2, -2.2, 0.1, -1.7, -2.4, -1.2, 1.1],
    [-0.3, -1.1, -0.4, -0.5, 0.7, -2.1, -0.3, -0.7],
    [-0.1, 1.3, 0.3, 0.6, -0.2, -1.3, -3.3, 0.7],
    [0.1, -0.9, -1.6, 0.1, -0.3, -0.4, -0.3, -2.3]]
HURWITZ_8_NOT_P0 = [
    [-3.3, -1.3, -0.2, 0.4, 1.1, 0.1, -0.6, -0.8],
    [0.7, -0.9, 0.3, -1.2, -1.0, 1.6, 0.2, -1.7],
    [-0.1, -1.2, -3.1, -0.5, -0.7, 0.6, -0.1, -0.6],
    [0.4, 0.8, -1.6, -2.8, -1.0, -0.2, -1.3, 0.0],
    [-0.0, -0.3, -1.0, -0.4, -3.6, -1.4, 0.2, -1.1],
    [1.2, 0.7, -2.0, 0.3, -1.1, -2.5, 0.0, -2.0],
    [-0.2, -0.3, 1.0, -1.2, 0.7, -1.1, -2.8, -0.8],
    [1.4, 0.6, 2.4, 0.6, 0.8, 0.8, -0.6, -2.6]]


class TestSharedWork:
    @pytest.fixture
    def calls(self, monkeypatch):
        """The matrix of each minor sweep, diagonal searches, and the steps
        each run took."""
        counts = {"minors": [], "search": 0, "runs": []}
        sweep = matrix_core.principal_minors

        def counting_sweep(a, *args, **kwargs):
            counts["minors"].append(np.array(a))
            return sweep(a, *args, **kwargs)

        class CountingSearch(lyapunov.DiagonalSearch):
            def __init__(self, *args):
                counts["search"] += 1
                super().__init__(*args)

            def run(self, steps=None):
                start = self.k
                verdict = super().run(steps)
                counts["runs"].append((start, self.k))
                return verdict

        monkeypatch.setattr(matrix_core, "principal_minors", counting_sweep)
        monkeypatch.setattr(ds, "principal_minors", counting_sweep)
        monkeypatch.setattr(lyapunov, "DiagonalSearch", CountingSearch)
        return counts

    @pytest.mark.parametrize("matrix, class_spec, op_spec, summary, checks", [
        (HURWITZ_8_UNDECIDED, "positive-diagonal", "multiply",
         ("unknown", "no-deciding-check"),
         [("self-stability", "proved", False),
          ("sufficient-suite", "unknown", False),
          ("necessary-p0plus", "unknown", False),
          ("diagonal-certificate", "unknown", False),
          ("submatrix-descent", "unknown", False),
          ("falsify", "unknown", True)]),
        (HURWITZ_8_NOT_P0, "negative-diagonal", "add",
         ("refuted", "necessary-p0plus"),
         [("self-stability", "proved", False),
          ("sufficient-suite", "unknown", False),
          ("necessary-p0plus", "refuted", True),
          ("diagonal-certificate", "unknown", False),
          ("submatrix-descent", "refuted", True),
          ("falsify", "refuted", True)]),
        (HURWITZ_8_UNDECIDED, "interval-diagonal:" + ",".join(["0.5/2"] * 8),
         "multiply", ("unknown", "no-deciding-check"),
         [("self-stability", "proved", False),
          ("sufficient-suite", "unknown", False),
          ("interval-box", "unknown", False),
          ("diagonal-certificate", "unknown", False),
          ("falsify", "unknown", True)]),
    ])
    def test_one_sweep_and_one_search_per_request(
            self, calls, matrix, class_spec, op_spec, summary, checks):
        report = cli.run(request_for(matrix, class_spec=class_spec,
                                     op_spec=op_spec, samples=200,
                                     budget=300, seed=1, exhaustive=True))
        assert (len(calls["minors"]), calls["search"]) == (1, 1)
        # the suite runs the prefix, the certificate check resumes it:
        # each run starts where the last one stopped, so no step runs twice
        (start, prefix), (resumed, end) = calls["runs"]
        assert start == 0 and resumed == prefix <= cli.SEARCH_PREFIX
        assert prefix <= end <= 300
        assert [(c.check, c.verdict.status.value, c.decides)
                for c in report.checks] == checks
        assert (report.summary_status.value, report.summary_reason) == summary

    def test_suite_proof_runs_the_prefix_only(self, calls):
        # -A = 15 I - ones is an M-matrix: the suite proves it with no
        # minor table, and its search stops inside the prefix; the default
        # run stops there, the exhaustive run also proves the M-matrix item
        a = np.ones((14, 14)) - 15.0 * np.eye(14)
        report = cli.run(request_for(a, samples=200, seed=1))
        assert (report.summary_status.value, report.summary_reason) == (
            "proved", "sufficient-suite")
        assert [c.check for c in report.checks] == ["self-stability",
                                                    "sufficient-suite"]
        assert report.checks[-1].data["items"]["diagonal-stability"].proved
        assert "m-matrix" in report.checks[-1].data["skipped"]
        assert (calls["minors"], calls["search"]) == ([], 1)
        (start, stop), = calls["runs"]
        assert start == 0 and stop <= cli.SEARCH_PREFIX
        full = cli.run(request_for(a, samples=200, seed=1, exhaustive=True))
        suite_record = next(c for c in full.checks
                            if c.check == "sufficient-suite")
        assert suite_record.data["items"]["m-matrix"].proved
        assert suite_record.data["skipped"] == []

    def test_nonnegative_diagonal_entry_takes_no_search_step(self, calls):
        # blkdiag([[1, -4], [1, -2]], -I2) is Hurwitz; a_00 = 1 excludes
        # every certificate, which the subgradient bound alone never shows
        a = np.array([[1.0, -4.0, 0.0, 0.0], [1.0, -2.0, 0.0, 0.0],
                      [0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0]])
        report = cli.run(request_for(a, samples=100, exhaustive=True))
        record = next(c for c in report.checks
                      if c.check == "diagonal-certificate")
        assert record.verdict.reason == "dual-bound-excludes-certificate"
        assert calls["search"] == 1
        assert {stop for _, stop in calls["runs"]} == {0}

    @pytest.mark.parametrize("matrix, kw", [
        (HURWITZ_8_UNDECIDED, {}),
        (HURWITZ_8_NOT_P0, dict(class_spec="negative-diagonal",
                                op_spec="add")),
        (HURWITZ_8_UNDECIDED, dict(class_spec="interval-diagonal:"
                                   + ",".join(["0.5/2"] * 8))),
        (np.diag([0.0, -0.0, -1.0, 2.0]), {})])
    def test_the_one_sweep_is_of_the_negation(self, calls, matrix, kw):
        # every reader of the table tests -A, so the pipeline sweeps -A,
        # bit for bit, signed zeros too
        report = cli.run(request_for(matrix, samples=100, budget=100,
                                     exhaustive=True, **kw))
        swept, = calls["minors"]
        want = -report.request.matrix
        assert swept.dtype == want.dtype and swept.tobytes() == want.tobytes()

    def test_rows_read_the_request_matrix(self, monkeypatch):
        # the suite and the box reduction test A itself; the minor table
        # they read is the request's one table of -A
        seen = {"suite": [], "kosov": [], "tables": []}
        suite, kosov = ds.sufficient_suite, polynomials.kosov_interval_dstability
        sweep = matrix_core.principal_minors

        def recording_suite(a, search, exhaustive):
            seen["suite"].append(np.array(a))
            return suite(a, search, exhaustive)

        def recording_kosov(a, d_min, d_max, minors=None):
            seen["kosov"].append((np.array(a), minors))
            return kosov(a, d_min, d_max, minors=minors)

        def recording_sweep(a):
            seen["tables"].append(sweep(a))
            return seen["tables"][-1]

        monkeypatch.setattr(ds, "sufficient_suite", recording_suite)
        monkeypatch.setattr(polynomials, "kosov_interval_dstability",
                            recording_kosov)
        monkeypatch.setattr(matrix_core, "principal_minors", recording_sweep)
        a = np.asarray(HURWITZ_8_UNDECIDED, dtype=float)
        for class_spec in ("positive-diagonal",
                           "interval-diagonal:" + ",".join(["0.5/2"] * 8)):
            seen["tables"].clear()
            cli.run(request_for(a, class_spec=class_spec, samples=100,
                                budget=100, exhaustive=True))
            assert seen["suite"].pop().tobytes() == a.tobytes()
            if class_spec != "positive-diagonal":
                got, minors = seen["kosov"].pop()
                assert got.tobytes() == a.tobytes()
                table, = seen["tables"]
                assert minors is table
        assert seen["suite"] == seen["kosov"] == []

    @pytest.mark.parametrize("budget", [40, 300])
    @pytest.mark.parametrize("matrix", [
        random_diagonally_stable(np.random.default_rng(0), 12)[0],
        HURWITZ_8_UNDECIDED, HURWITZ_8_NOT_P0])
    def test_prefix_then_budget_is_the_whole_search(self, matrix, budget):
        a = np.asarray(matrix, dtype=float)
        whole = lyapunov.DiagonalSearch(a, HalfPlaneLeft(), budget).run()
        ctx = cli._Context(request_for(a, budget=budget))
        prefix = ctx.search.run(cli.SEARCH_PREFIX)
        resumed = ctx.search.run()
        if prefix.reason == "search-prefix-exhausted":
            assert budget > cli.SEARCH_PREFIX
        else:  # the prefix was the whole search
            assert (prefix.status, prefix.reason, prefix.witness) == (
                resumed.status, resumed.reason, resumed.witness)
        assert (resumed.status, resumed.reason) == (whole.status,
                                                    whole.reason)
        if whole.proved:
            got, want = resumed.witness, whole.witness
            assert np.array_equal(got.factor, want.factor)
            assert (got.margin, got.iterations) == (want.margin,
                                                    want.iterations)

    @pytest.mark.parametrize("region_spec, class_spec, region, matrix", [
        ("disk:0,1", "diagonal-norm-lt1", Disk(),
         random_schur_diag_stable(np.random.default_rng(3), 6)[0]),
        ("disk:0,1", "diagonal-norm-lt1", Disk(),
         [[0.307, 0.778, -0.096], [1.019, -0.496, 0.262],
          [0.674, 0.07, -0.555]]),
        ("sector:0.6", "positive-diagonal", SectorRight(0.6),
         [[2.0, 0.3], [0.3, 1.0]]),
        ("sector:0.6", "positive-diagonal", SectorRight(0.6),
         [[2.03, -0.4, -0.88], [1.47, -0.05, -0.37], [0.22, 0.84, 0.99]])])
    def test_any_region_runs_the_one_search(self, calls, region_spec,
                                            class_spec, region, matrix):
        # off the half-plane, too, the certificate check runs the
        # request's one search, with the steps of a fresh search
        a = np.asarray(matrix, dtype=float)
        report = cli.run(request_for(a, region_spec=region_spec,
                                     class_spec=class_spec, budget=200,
                                     samples=100, exhaustive=True))
        assert calls["search"] == 1 and len(calls["runs"]) == 1
        fresh = lyapunov.DiagonalSearch(a, region, 200).run()
        record, = (c for c in report.checks
                   if c.check == "diagonal-certificate")
        assert cli.to_jsonable(record.verdict) == cli.to_jsonable(fresh)

    @pytest.mark.parametrize("class_spec", ["positive-diagonal",
                                            "sign-pattern:+-+"])
    def test_hyperbolicity_runs_the_one_search(self, calls, class_spec):
        # the hyperbolic region has no form: its sign-free search is the
        # request's one search, and the certificate row re-verifies it
        a = np.array([[3.0, -1.0, 0.5], [1.0, -2.0, 0.5], [0.0, 1.0, 2.5]])
        report = cli.run(request_for(a, region_spec="hyperbolic",
                                     class_spec=class_spec, samples=100,
                                     exhaustive=True))
        assert calls["search"] == 1 and len(calls["runs"]) == 1
        record, = (c for c in report.checks
                   if c.check == "diagonal-certificate")
        cert = record.verdict.witness
        assert record.verdict.proved and record.decides
        assert (cert.kind, cert.region) == ("diagonal-hyperbolic",
                                            Hyperbolic())
        assert record.data == {"re-verified-margin":
                               lyapunov.verify_certificate(a, cert)}
        assert record.data["re-verified-margin"] > 0
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "diagonal-certificate")

    @pytest.mark.parametrize("class_spec", [
        "positive-diagonal", "interval-diagonal:" + ",".join(["0.5/2"] * 8)])
    def test_one_p0_test_of_the_negation_per_request(
            self, calls, monkeypatch, class_spec):
        # the necessity and the interval-box premise read one P0 test of
        # -A, on the request's one minor table, and no order is swept twice
        tests, orders = [], []
        first, det = matrix_core.first_negative_minor, np.linalg.det

        def counting(a, minors):
            tests.append(np.array(a))
            return first(a, minors)

        def counting_det(m):
            if np.ndim(m) == 3:
                orders.append(np.shape(m)[-1])
            return det(m)

        monkeypatch.setattr(ds, "first_negative_minor", counting)
        monkeypatch.setattr(polynomials, "first_negative_minor", counting)
        monkeypatch.setattr(np.linalg, "det", counting_det)
        a = np.asarray(HURWITZ_8_UNDECIDED, dtype=float)
        report = cli.run(request_for(a, class_spec=class_spec, samples=100,
                                     budget=100, exhaustive=True))
        assert len(tests) == 1 and np.array_equal(tests[0], -a)
        assert len(calls["minors"]) == 1
        assert np.array_equal(calls["minors"][0], -a)
        assert orders == list(range(1, 9))
        ran = {c.check for c in report.checks}
        interval = class_spec.startswith("interval")
        assert ("interval-box" in ran, "necessary-p0plus" in ran) == (
            interval, not interval)


class TestFalsifyRows:
    def test_falsify_rows_search_nothing(self, monkeypatch):
        # falsify samples the class and the descent solves submatrices;
        # neither runs a certificate search
        searches = [0]

        class CountingSearch(lyapunov.DiagonalSearch):
            def __init__(self, *args):
                searches[0] += 1
                super().__init__(*args)

        monkeypatch.setattr(lyapunov, "DiagonalSearch", CountingSearch)
        ctx = cli._Context(request_for([[-2.0, 1.0], [-1.0, -3.0]],
                                       samples=300))
        verdicts = [row(ctx)[0] for row in (cli._self_stability,
                                            cli._submatrix_descent,
                                            cli._falsify)]
        assert not any(v.refuted for v in verdicts)
        assert searches == [0]

    @pytest.mark.parametrize("class_spec, op_spec", [
        ("positive-diagonal", "multiply"), ("negative-diagonal", "add")])
    def test_falsify_check_ignores_an_earlier_proof(self, class_spec,
                                                    op_spec):
        # a proof by the sufficient suite leaves the falsify check as it
        # is when falsify runs alone
        a, _ = random_diagonally_stable(np.random.default_rng(4), 6)
        req = dict(class_spec=class_spec, op_spec=op_spec, samples=1500,
                   budget=2000, seed=2)
        report = cli.run(request_for(a, exhaustive=True, **req))
        suite = next(c for c in report.checks
                     if c.check == "sufficient-suite")
        assert suite.verdict.proved
        alone = cli._falsify(cli._Context(request_for(a, **req)))
        records = [c for c in report.checks if c.check == "falsify"]
        assert len(records) == 1
        verdict, decides, data = alone
        assert cli.to_jsonable(records[0].verdict) == cli.to_jsonable(verdict)
        assert (records[0].decides, records[0].data) == (decides, data)

    @pytest.mark.parametrize("region_spec", ["disk:0,1", "half-plane-left"])
    def test_products_past_the_float_range_are_no_error(self, region_spec):
        # G o A overflows: the unbounded-class scaling takes no spectral
        # scale from it, and no product is formed with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cli.run(request_for([[1e308, 0.0], [0.0, -1e308]],
                                         region_spec=region_spec,
                                         exhaustive=True))
        assert report.errors == 0
        assert report.summary_status is Status.REFUTED
        falsify, = (c for c in report.checks if c.check == "falsify")
        assert not falsify.verdict.reason.startswith(cli.CHECK_ERROR)

    def test_float_range_input_is_no_error_under_warnings_as_errors(self):
        # minors, the search's subgradient and the minor band overflow to
        # inf on the way to the answer; none of that is a check error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = cli.run(request_for([[-1e308, 0.0], [0.0, -1e308]],
                                         exhaustive=True))
        assert report.errors == 0
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "sufficient-suite")


def emitted(report):
    return json.loads(cli.emit(report, "json"))


def cut_at_first_proof(record):
    """An exhaustive ``sufficient-suite`` record as a default run makes it:
    its items up to the first Proved one, the rest under ``skipped``, and
    the reason naming that item; status and witness unchanged."""
    items = record["data"]["items"]
    names = list(items)
    proved = [k for k in names if items[k]["status"] == "proved"]
    if not proved:
        return record
    ran = names[:names.index(proved[0]) + 1]
    return {**record, "reason": "sufficient:" + proved[0],
            "data": {"items": {k: items[k] for k in ran},
                     "skipped": names[len(ran):]}}


# two rounds of each gated benchmark workload, at a seed of its own
EQUIVALENCE_CORPUS = [spec for workload in ("desk-dstab", "regions-mix")
                      for spec in benchmark_corpus(workload, 3, 2)]


class TestDecideThenStop:
    @pytest.mark.parametrize("spec", EQUIVALENCE_CORPUS,
                             ids=lambda spec: spec.name)
    def test_default_run_is_the_exhaustive_run_cut_at_the_decider(self,
                                                                  spec):
        kw = dict(region_spec=spec.region, class_spec=spec.gclass,
                  op_spec=spec.op, seed=spec.seed)
        report = cli.run(request_for(spec.matrix.copy(), **kw))
        default = emitted(report)
        full = emitted(cli.run(request_for(spec.matrix.copy(),
                                           exhaustive=True, **kw)))
        summary = default["summary"]
        assert ((summary["status"], summary["decided_by"])
                == (full["summary"]["status"], full["summary"]["decided_by"]))
        checks = full["checks"]
        ids = [c["check"] for c in checks]
        table = [c.id for c in cli.CHECKS]
        if summary["decided_by"] == "no-deciding-check":
            cut, after = len(checks), []
        else:
            cut = ids.index(summary["decided_by"]) + 1
            after = cli.CHECKS[table.index(summary["decided_by"]) + 1:]
        # the suite row, like the table, stops at its first proof
        assert default["checks"] == [
            cut_at_first_proof(c) if c["check"] == "sufficient-suite" else c
            for c in checks[:cut]]
        # the skipped rows are those after the decider that apply to the
        # request as decided, in table order; they include every row that
        # the exhaustive run records after the decider
        ctx = cli._Context(report.request)
        ctx.checks = report.checks
        assert summary["skipped"] == [c.id for c in after if c.applies is None
                                      or c.applies(ctx)]
        assert set(ids[cut:]) <= set(summary["skipped"])
        assert full["summary"]["skipped"] == []

    @pytest.mark.parametrize("matrix", [
        -np.eye(3),
        # a cyclic form of gain ratio 1, and one at 0.94 of its secant
        # bound that the search prefix does not certify
        [[-1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]],
        special_forms.CyclicForm((5.54, 1.23, 0.28),
                                 (5.106, 1.933, 1.45)).matrix(),
        # -A a tridiagonal P-matrix, neither Z nor dominant, that the
        # search prefix does not certify
        -np.array([[1.0, 1000.0, 0.0], [-0.001, 1.0, 1000.0],
                   [0.0, -0.001, 1.0]]),
    ], ids=["negative-identity", "cyclic", "cyclic-0.94-secant",
            "tridiagonal-p"])
    def test_default_suite_record_is_the_exhaustive_one_cut(self, matrix):
        default, full = (
            next(c for c in emitted(cli.run(request_for(
                matrix, samples=100, exhaustive=exhaustive)))["checks"]
                 if c["check"] == "sufficient-suite")
            for exhaustive in (False, True))
        assert full["data"]["skipped"] == []
        assert len(full["data"]["items"]) == len(ds.SUFFICIENT_ITEMS)
        assert default == cut_at_first_proof(full)
        assert default["status"] == "proved"

    def test_a_search_proof_computes_no_exact_item(self, monkeypatch):
        def computed(*args, **kwargs):
            raise AssertionError("an exact item was computed")

        exact = ["is_m_matrix", "strict_diagonal_dominance", "_is_triangular",
                 "is_tridiagonal_p_matrix", "w_map", "minor_tol"]
        for name in exact:
            monkeypatch.setattr(ds, name, computed)
        monkeypatch.setattr(special_forms, "single_circuit_criterion",
                            computed)
        for exhaustive in (False, True):
            report = cli.run(request_for(-np.eye(3), samples=100,
                                         exhaustive=exhaustive))
            suite = next(c for c in report.checks
                         if c.check == "sufficient-suite")
            if exhaustive:  # the exhaustive run computes them
                assert suite.verdict.reason.startswith(cli.CHECK_ERROR)
                continue
            assert report.errors == 0
            assert suite.verdict.reason == "sufficient:diagonal-stability"
            assert list(suite.data["items"]) == ["diagonal-stability"]
            assert suite.data["skipped"] == list(ds.SUFFICIENT_ITEMS[1:])

    @pytest.mark.parametrize("matrix, kw, skipped", [
        (-np.eye(2), {}, ["necessary-p0plus", "submatrix-descent",
                          "falsify"]),
        (0.3 * np.eye(3), dict(region_spec="disk:0,1",
                               class_spec="vertex-diagonal"),
         ["diagonal-certificate", "falsify"]),
        ([[-1.0, 3.0], [0.0, -1.0]], dict(class_spec="spd"), ["falsify"]),
    ], ids=["half-plane", "vertex", "h-stability"])
    def test_skipped_lists_only_rows_that_apply(self, matrix, kw, skipped):
        report = cli.run(request_for(matrix, samples=100, budget=100, **kw))
        assert report.skipped == skipped

    def test_skipped_row_whose_applies_raises_is_listed(self, monkeypatch):
        def broken(ctx):
            raise RuntimeError("applies broke")

        rows = [c._replace(applies=broken) if c.id == "interval-box" else c
                for c in cli.CHECKS]
        monkeypatch.setattr(cli, "CHECKS", tuple(rows))
        report = cli.run(request_for(-np.eye(2), samples=100, budget=100))
        assert "interval-box" in report.skipped and report.errors == 0
        report = cli.run(request_for(-np.eye(2), samples=100, budget=100,
                                     exhaustive=True))
        box = next(c for c in report.checks if c.check == "interval-box")
        assert box.verdict.reason == "check-error: applies broke"

    def test_conflict_is_listed_and_exits_3(self, monkeypatch, capsys):
        # a falsify that refutes what the sufficient suite proves
        monkeypatch.setattr(ds, "falsify", lambda *args, **kwargs: Verdict(
            Status.REFUTED, "refuted-by-stub", witness={"stub": True}))
        argv = ["--format", "json", "--samples", "100", "--budget", "100",
                "--", "-1,0;0,-2"]
        assert cli.main(argv) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["conflicts"] == []
        assert "falsify" in summary["skipped"]
        assert cli.main(["--exhaustive"] + argv) == 3
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert (summary["status"], summary["decided_by"]) == (
            "proved", "sufficient-suite")
        assert summary["conflicts"] == [{"check": "falsify",
                                         "status": "refuted"}]
        assert cli.main(["--exhaustive", "--format", "text"] + argv[2:]) == 3
        assert "conflict: falsify is refuted" in capsys.readouterr().out

    def test_check_errors_are_counted(self, monkeypatch):
        def broken(a, perturbation):
            raise RuntimeError("descent broke")

        monkeypatch.setattr(ds, "submatrix_descent", broken)
        req = dict(samples=100, budget=100)
        assert emitted(cli.run(request_for(-np.eye(2), **req)))[
            "summary"]["errors"] == 0
        assert emitted(cli.run(request_for(-np.eye(2), exhaustive=True,
                                           **req)))["summary"]["errors"] == 1

    def test_self_stability_solves_the_spectrum_once(self, monkeypatch):
        calls = [0]
        eigvals = np.linalg.eigvals

        def counting(a):
            calls[0] += 1
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        verdict, _, data = cli._self_stability(
            cli._Context(request_for(HURWITZ_8_UNDECIDED)))
        assert verdict.proved and len(data["eigenvalues"]) == 8
        assert calls == [1]

    def test_exhaustive_flag(self, capsys):
        argv = ["--format", "json", "--samples", "500", "--budget", "200",
                "--", "1,-4;1,-2"]
        assert cli.main(argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["request"]["exhaustive"] is False
        assert "falsify" in payload["summary"]["skipped"]
        assert "falsify" not in [c["check"] for c in payload["checks"]]
        assert cli.main(["--exhaustive"] + argv) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["request"]["exhaustive"] is True
        assert payload["summary"]["skipped"] == []
        fal = next(c for c in payload["checks"] if c["check"] == "falsify")
        assert fal["status"] == "refuted"


def _desk_request(seed, request_seed):
    """The desk-dstab request of ``request_seed``, three rounds at ``seed``."""
    return next(spec for spec in benchmark_corpus("desk-dstab", seed, 3)
                if spec.seed == request_seed)


# (matrix, op, the named class, the same set as a sign pattern, seed)
TWO_SPELLINGS = [
    (HURWITZ_8_NOT_P0, "add", "negative-diagonal", "-" * 8, 0),
    ([[1.0, -4.0], [1.0, -2.0]], "multiply", "positive-diagonal", "++", 0),
    *((spec.matrix, spec.op, spec.gclass, "-" * len(spec.matrix), spec.seed)
      for spec in (_desk_request(1, 271851896), _desk_request(3, 1999492377))),
]


class TestTwoSpellings:
    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("matrix, op, named, signs, seed", TWO_SPELLINGS,
                             ids=["hurwitz-8-not-p0", "classic-2x2",
                                  "desk-1-add-n14", "desk-3-add-n12"])
    def test_one_set_one_report(self, matrix, op, named, signs, seed,
                                exhaustive):
        # the checks read the class's facts, not its spec: the sign
        # pattern of one sign is the named class, and both samplers draw
        # the same stream, so the reports differ in request.class only
        reports = []
        for class_spec in (named, "sign-pattern:" + signs):
            report = emitted(cli.run(request_for(
                np.array(matrix), class_spec=class_spec, op_spec=op,
                seed=seed, exhaustive=exhaustive)))
            assert report["request"].pop("class") == class_spec
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["summary"]["status"] == "refuted"


def _to_jsonable_reference(obj):
    """Reference: the branch-per-type serializer that to_jsonable replaced."""
    tj = _to_jsonable_reference
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return cli._json_float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": cli._json_float(obj.real),
                "im": cli._json_float(obj.imag)}
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj) or (obj.dtype.kind == "f"
                                    and not np.isfinite(obj).all()):
            return [tj(v) for v in obj.tolist()]
        return obj.tolist()
    if isinstance(obj, Status):
        return obj.value
    if isinstance(obj, Verdict):
        return {"status": obj.status.value, "reason": obj.reason,
                "witness": tj(obj.witness), "seed": tj(obj.seed)}
    if isinstance(obj, lyapunov.Certificate):
        return {"kind": obj.kind, "factor": tj(obj.factor),
                "margin": tj(obj.margin), "region": obj.region.name,
                "iterations": obj.iterations}
    if isinstance(obj, ds.FalsificationWitness):
        return {"g": tj(obj.g), "realized": tj(obj.realized),
                "eigenvalue": tj(obj.eigenvalue),
                "sample_index": obj.sample_index,
                "seed": tj(obj.seed), "note": obj.note}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: tj(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): tj(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [tj(v) for v in obj]
    return repr(obj)


def _same_json(obj):
    got, ref = cli.to_jsonable(obj), _to_jsonable_reference(obj)
    assert got == ref
    assert (json.dumps(got, indent=2, allow_nan=False)
            == json.dumps(ref, indent=2, allow_nan=False))


class TestEmit:
    @pytest.mark.parametrize("matrix, kw, check", [
        (-np.eye(2), {}, "sufficient-suite"),
        ([[1.0, -4.0], [1.0, -2.0]], {"exhaustive": True}, "falsify"),
        ([[-1.0, 2.0], [-2.0, -1.0]], {}, "self-stability"),
    ], ids=["certificate", "falsify-witness", "complex"])
    def test_to_jsonable_matches_the_branch_per_type_serializer(
            self, matrix, kw, check):
        report = cli.run(request_for(matrix, **kw))
        record = next(c for c in report.checks if c.check == check)
        for obj in (record.verdict, record.verdict.witness, record.data):
            _same_json(obj)

    def test_to_jsonable_tuple_keys(self):
        _same_json({(0, 1): 1.0})

    def test_to_jsonable_numpy_scalars_and_arrays(self):
        _same_json([np.float64(1.5), np.float32(0.25), np.int64(-3),
                    np.intp(7), np.bool_(True), np.bool_(False),
                    np.complex128(1 - 2j), np.complex64(0.5j),
                    np.float64(np.inf), np.float64(np.nan),
                    np.longdouble(0.5), np.clongdouble(1j),
                    np.array([1.0, np.inf]), np.array([1 + 1j, -1j]),
                    np.array([[1, 2]]), (Status.PROVED, -0.0, 2 + 0j)])

    def test_json_round_trip(self):
        report = cli.run(request_for(-np.eye(2), samples=300, budget=300))
        payload = json.loads(cli.emit(report, "json"))
        assert payload["schema"] == "matstab-report/19"
        assert payload["summary"]["status"] == "proved"
        assert payload["request"]["matrix"] == [[-1.0, 0.0], [0.0, -1.0]]

    @pytest.mark.parametrize("matrix, kw", [
        (-np.eye(2), {}),
        ([[1.0, -4.0], [1.0, -2.0]], {"exhaustive": True, "samples": 300}),
        ([[-1e308, 1e308], [1e308, -1e308]], {}),
    ], ids=["proved", "falsify-witness", "overflow"])
    def test_json_is_one_strict_line(self, matrix, kw):
        def reject(name):
            raise ValueError(f"non-RFC 8259 constant {name}")

        with np.errstate(all="ignore"):
            report = cli.run(request_for(matrix, **kw))
        out = cli.emit(report, "json").decode()
        assert out.count("\n") == 1 and out.endswith("\n")
        assert json.loads(out, parse_constant=reject)["schema"] == cli.SCHEMA

    def test_suite_certificate_is_written_once(self):
        # the row's verdict carries the certificate; each item keeps only
        # its status and reason
        a = np.array([[-1.0, 2.0, 1.0], [-1.0, -1.0, 0.5], [0.3, -0.4, -1.0]])
        report = cli.run(request_for(a))
        record = next(c for c in report.checks
                      if c.check == "sufficient-suite")
        assert record.data["items"]["diagonal-stability"].proved
        cert = record.verdict.witness
        assert isinstance(cert, lyapunov.Certificate)
        assert lyapunov.verify_certificate(a, cert) > 0
        payload = json.loads(cli.emit(report, "json"))
        row = next(c for c in payload["checks"]
                   if c["check"] == "sufficient-suite")
        assert row["witness"] == cli.to_jsonable(cert)
        items = row["data"]["items"]
        assert items["diagonal-stability"] == {
            "status": "proved", "reason": "diagonally-stable",
            "witness": None, "seed": None}
        assert all(v["witness"] is None and v["seed"] is None
                   for v in items.values())

    def test_json_deterministic(self):
        req_kw = dict(samples=500, budget=400, seed=123)
        r1 = cli.run(request_for([[1.0, -4.0], [1.0, -2.0]], **req_kw))
        r2 = cli.run(request_for([[1.0, -4.0], [1.0, -2.0]], **req_kw))
        assert cli.emit(r1, "json") == cli.emit(r2, "json")

    def test_text_contains_reference_names(self):
        # the default run skips falsify once decided; the exhaustive run
        # records it too
        for exhaustive in (False, True):
            report = cli.run(request_for(-np.eye(2), samples=200, budget=200,
                                         exhaustive=exhaustive))
            text = cli.emit(report, "text").decode()
            assert all(c.reference in text for c in report.checks)
            assert ("randomized class sampling" in text) is exhaustive
            assert ("skipped once decided: " in text) is not exhaustive
            assert "summary: proved" in text

    def test_witness_replay_from_json(self):
        report = cli.run(request_for([[1.0, -4.0], [1.0, -2.0]], seed=7,
                                     exhaustive=True))
        payload = json.loads(cli.emit(report, "json"))
        fal = next(c for c in payload["checks"] if c["check"] == "falsify")
        g = np.asarray(fal["witness"]["g"])
        z = complex(fal["witness"]["eigenvalue"]["re"],
                    fal["witness"]["eigenvalue"]["im"])
        realized = ds.Multiply().apply(g, np.array([[1.0, -4.0], [1.0, -2.0]]))
        lam = np.linalg.eigvals(realized)
        assert min(abs(lam - z)) <= 1e-9 * (1 + abs(z))


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text('{"n": 2, "rows": [[-1, 0], [0, -2]]}')
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "rows": [[1, -4], [1, -2]]}')
        assert cli.main([str(good), "--samples", "200", "--budget",
                         "200"]) == 0
        capsys.readouterr()
        assert cli.main([str(bad), "--samples", "500", "--budget",
                         "200"]) == 2
        capsys.readouterr()
        assert cli.main(["not-a-file-and-not-a-matrix"]) == 1

    def test_stdin_and_inline(self, capsys, monkeypatch):
        # a leading '-' needs the usual '--' separator
        assert cli.main(["--samples", "100", "--budget", "100",
                         "--", "-1,0;0,-2"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("env", ["77", "abc"])
    def test_seed_is_the_flag_alone(self, monkeypatch, capsys, env):
        # the environment sets no part of a request
        monkeypatch.setenv("MATSTAB_SEED", env)
        assert cli.main(["--format", "json", "--samples", "100", "--budget",
                         "100", "--", "-1,0;0,-2"]) == 0
        assert json.loads(capsys.readouterr().out)["request"]["seed"] == 0
        assert cli.main(["--seed", "5", "--format", "json", "--samples",
                         "100", "--budget", "100", "--", "-1,0;0,-2"]) == 0
        assert json.loads(capsys.readouterr().out)["request"]["seed"] == 5

    def test_negative_seed_is_a_usage_error(self, capsys):
        # the generator would reject it inside falsify, as a check error
        # under an Unknown summary
        with pytest.raises(cli.UsageError, match="seed must be non-negative"):
            request_for(-np.eye(2), seed=-1)
        assert cli.main(["--seed", "-1", "--", "1,-4;1,-2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "matstab: error: the seed must be non-negative\n"

    def test_spd_json_report_parses(self, capsys):
        # the symmetric-part check must record a plain bool, or emit fails
        assert cli.main(["--class", "spd", "--format", "json",
                         "--", "-1,0.5;0.2,-2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        sym = next(c for c in payload["checks"]
                   if c["check"] == "symmetric-part")
        assert sym["decides_request"] is True

    def test_json_report_is_strict_rfc8259(self, capsys):
        def reject(name):
            raise ValueError(f"non-RFC 8259 constant {name}")

        # the eigen-solve overflows: one eigenvalue of A is -inf
        with np.errstate(all="ignore"):
            cli.main(["--format", "json", "--",
                      "-1e308,1e308;1e308,-1e308"])
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert "Infinity" in json.dumps(payload)

    @pytest.mark.parametrize("flag", ["--seed=abc", "--samples=x",
                                      "--format=xml", "--no-such-flag",
                                      "--mode=total-scan",
                                      "--simulate-horizon=-1",
                                      "--convention=positive"])
    def test_malformed_flag_is_a_usage_error(self, capsys, flag):
        # argparse's own exit code, 2, is that of a Refuted summary
        assert cli.main([flag, "--", "-1,0;0,-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("matstab: error: ")
        assert captured.err.count("\n") == 1 and "usage:" not in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: matstab")

    def test_json_format_flag(self, tmp_path, capsys):
        f = tmp_path / "m.json"
        f.write_text('{"n": 1, "rows": [[-1]]}')
        assert cli.main([str(f), "--format", "json", "--samples", "100",
                         "--budget", "100"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema"] == "matstab-report/19"

    def test_unbounded_class_with_no_escaping_member_is_not_refuted(
            self, capsys):
        # every D A of a strictly upper triangular A has spectrum {0},
        # inside the unit disk however large the positive diagonal D is:
        # no witness exists, so nothing may refute
        argv = ["--region", "disk:0,1", "--class", "positive-diagonal",
                "--samples", "500", "--format", "json", "--", "0,1;0,0"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["status"] != "refuted"
        falsify, = (c for c in report["checks"] if c["check"] == "falsify")
        assert falsify["status"] == "unknown"

    def test_unbounded_class_with_a_tiny_spectrum_is_refuted(self, capsys):
        # every D A = 1e-17 D escapes the unit disk once D is past 1e17:
        # the scale read off the member's spectrum finds such a D
        argv = ["--region", "disk:0,1", "--class", "positive-diagonal",
                "--format", "json", "--", "1e-17,0;0,1e-17"]
        assert cli.main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["decided_by"] == "falsify"
        falsify, = (c for c in report["checks"] if c["check"] == "falsify")
        assert falsify["witness"]["note"] == "unbounded-class-scaling"

    def test_overflowed_eigenvalue_is_not_the_witness(self, capsys):
        # the first block's eigenvalues overflow to -inf (and round off
        # near 0); the witness is the exact eigenvalue 1 of the second
        # block, not the overflowed one
        argv = ["--format", "json", "--",
                "-1e308,1e308,0;1e308,-1e308,0;0,0,1"]
        assert cli.main(argv) == 2
        report = json.loads(capsys.readouterr().out)
        first = report["checks"][0]
        assert (first["check"], report["summary"]["decided_by"]) == (
            "self-stability", "self-stability")
        assert first["witness"]["eigenvalue"] == {"re": 1.0, "im": 0.0}

    @pytest.mark.parametrize("region, matrix, status", [
        ("sector:0.6", "1e9", "proved"),
        ("sector:0.6", "1e9,0;0,2e9", "proved"),
        ("complement-sector:0.6", "-1e9", "unknown"),
        ("complement-sector:1e-4", "-1e-5", "unknown"),
        ("complement-sector:1e-9", "-1", "unknown")])
    def test_large_eigenvalue_on_the_sector_axis(self, capsys, region,
                                                  matrix, status):
        # the points lie on the axis of the sector (or of its complement),
        # far from the boundary rays however large they are; behind the
        # vertex a point is |z| from the boundary however thin the sector
        assert cli.main(["--region", region, "--format", "json", "--",
                         matrix]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["status"] == status


def _one_sign(g, sign):
    return isinstance(g, ds.SignPatternDiagonal) and set(g.signs) == {sign}


def _isinstance_triple(request):
    """The triple chain of the isinstance-based pipeline, as a reference;
    a sign pattern of one sign is the diagonals of that sign."""
    r, g, op = request.region, request.gclass, request.op
    half = isinstance(r, HalfPlaneLeft)
    if half and (isinstance(g, ds.PositiveDiagonal) or _one_sign(g, 1)) \
            and isinstance(op, ds.Multiply):
        return "multiplicative-d-stability"
    if half and (isinstance(g, ds.NegativeDiagonal) or _one_sign(g, -1)) \
            and isinstance(op, ds.Add):
        return "additive-d-stability"
    if r == Disk() and isinstance(g, ds.DiagonalNormLt1) \
            and isinstance(op, ds.Multiply):
        return "schur-d-stability"
    if r == Disk() and isinstance(g, ds.VertexDiagonal) \
            and isinstance(op, ds.Multiply):
        return "vertex-stability"
    if half and isinstance(g, ds.SPD) and isinstance(op, ds.Multiply):
        return "h-stability"
    if half and isinstance(g, ds.SPD) and isinstance(op, ds.HadamardProduct):
        return "hadamard-h-stability"
    return None


REGION_SPECS = [
    "half-plane-left", "half-plane-right", "disk", "disk:0,1", "disk:0.5,1",
    "disk:0,2", "sector:0.6", "complement-sector:0.5", "real-line",
    "positive-real-axis", "negative-real-axis", "hyperbolic",
    "puncture-origin", 'lmi:{"l": [[0]], "m": [[1]]}',
    'emi:{"r11": [[-1]], "r12": [[0]], "r22": [[1]]}',
    'emi:{"r11": [[1]], "r12": [[0]], "r22": [[-1]]}']
CLASS_SPECS = [
    "positive-diagonal", "negative-diagonal", "diagonal-norm-lt1",
    "vertex-diagonal", "spd", "alpha-scalar:0,1|2", "alpha-block-spd:0,1|2",
    "ordered-diagonal:0,1,2", "interval-diagonal:0.5/2,0.5/2,0.5/2",
    "interval-diagonal:0.5/inf,1/2,1/2", "sign-pattern:+-+",
    "sign-pattern:+++", "sign-pattern:---", "rank-positive:1"]
OP_SPECS = ["multiply", "add", "hadamard", "block-hadamard:2"]


class TestCheckTable:
    def test_nine_rows_in_order(self):
        assert [c.id for c in cli.CHECKS] == [
            "self-stability", "sufficient-suite", "necessary-p0plus",
            "interval-box", "vertex-enumeration", "symmetric-part",
            "diagonal-certificate", "submatrix-descent", "falsify"]

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_no_flag_or_disc_row(self, exhaustive):
        # the suite decides: the default run lists the later rows as
        # skipped, and the exhaustive run records them
        report = emitted(cli.run(request_for(
            -np.eye(2), samples=100, budget=100, exhaustive=exhaustive)))
        ids = [c["check"] for c in report["checks"]] + \
            report["summary"]["skipped"]
        assert "necessary-p0plus" in ids
        assert not {"classify", "gershgorin"} & set(ids)
        assert report["schema"] == "matstab-report/19"

    @pytest.mark.parametrize("matrix, reason", [
        (np.diag([1.0, -1.0]), "premise-fails: matrix must be P0 for the "
         "interval reduction; witness minor {'indices': (0,), 'value': -1.0}"),
        (-3.0 * np.eye(15) + 0.5 * np.eye(15, k=1),
         "premise-fails: P0 is undecided past the minor enumeration cap "
         "n = 14")], ids=["negative-minor", "cap"])
    def test_interval_box_premise_reasons(self, matrix, reason):
        n = len(matrix)
        report = cli.run(request_for(
            matrix, class_spec="interval-diagonal:" + ",".join(["0.5/2"] * n),
            samples=100, budget=100, exhaustive=True))
        box, = (c for c in report.checks if c.check == "interval-box")
        assert box.verdict.reason == reason

    def test_theory_rows_apply_on_the_isinstance_chain(self):
        # each row with a theory of its own states its premise from the
        # class's facts or value; on every triple of the grid it applies
        # exactly where the reference names one of its triples
        modes = {"multiplicative-d-stability": "multiplicative",
                 "additive-d-stability": "additive"}
        rows = {"necessary-p0plus": set(modes),
                "submatrix-descent": set(modes),
                "vertex-enumeration": {"schur-d-stability",
                                       "vertex-stability"},
                "symmetric-part": {"h-stability", "hadamard-h-stability"}}
        applies = {c.id: c.applies for c in cli.CHECKS}
        seen = set()
        for r in REGION_SPECS:
            for g in CLASS_SPECS:
                for op in OP_SPECS:
                    ctx = _context(r, g, op)
                    triple = _isinstance_triple(ctx.request)
                    for row, triples in rows.items():
                        assert bool(applies[row](ctx)) is (
                            triple in triples), (row, r, g, op)
                    assert ctx.perturbation == modes.get(triple), (r, g, op)
                    seen.add(triple)
        assert seen == set().union(*rows.values()) | {None}

    @pytest.mark.parametrize("matrix, kw", [
        ([[1.0, -4.0], [1.0, -2.0]], dict(exhaustive=True)),
        (-np.eye(2), dict(exhaustive=True)),
        ([[-1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]], {}),
        ([[-2.0, 1.0], [0.5, -2.0]],
         dict(class_spec="interval-diagonal:0.5/2,0.5/2")),
        (0.3 * np.eye(3), dict(region_spec="disk:0,1",
                               class_spec="vertex-diagonal")),
        ([[1.0, 2.0], [-3.0, 1.0]], dict(region_spec="hyperbolic")),
        ([[-2.0, 0.5], [0.5, -3.0]], dict(class_spec="spd",
                                          op_spec="hadamard")),
    ])
    def test_report_checks_follow_the_table(self, matrix, kw):
        report = cli.run(request_for(matrix, samples=200, budget=200, **kw))
        order = [check.id for check in cli.CHECKS]
        ids = [c.check for c in report.checks]
        assert ids
        positions = [order.index(i) for i in ids]
        assert positions == sorted(set(positions))

    def test_errors_are_recorded_per_check(self, monkeypatch):
        # -I + skew is diagonally stable: a failing circuit test errs the
        # suite, and the certificate row that follows it still proves
        def broken(a):
            raise RuntimeError("single-circuit broke")

        monkeypatch.setattr(special_forms, "single_circuit_criterion", broken)
        a = -np.eye(3) + np.array([[0.0, 1.0, -2.0], [-1.0, 0.0, 0.5],
                                   [2.0, -0.5, 0.0]])
        report = cli.run(request_for(a, samples=200, budget=200,
                                     exhaustive=True))
        by_id = {c.check: c for c in report.checks}
        assert by_id["sufficient-suite"].verdict.reason == (
            "check-error: single-circuit broke")
        assert not by_id["sufficient-suite"].decides
        assert by_id["diagonal-certificate"].verdict.proved
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "diagonal-certificate")

    def test_overflowing_spd_request_errs_per_check(self):
        with np.errstate(all="ignore"):
            report = cli.run(request_for([[1e308, 0.0], [0.0, -1e308]],
                                         class_spec="spd", exhaustive=True))
        errors = [c.check for c in report.checks
                  if c.verdict.reason.startswith("check-error")]
        assert "symmetric-part" in errors
        # the diagonal search does not apply to H-stability
        assert "diagonal-certificate" not in [c.check for c in report.checks]
        assert not {"structural", "certificates"} & set(errors)

    def test_failing_circuit_criterion_errs_once(self, monkeypatch):
        calls = []

        def failing(a):
            calls.append(a)
            raise RuntimeError("circuit test failed")

        monkeypatch.setattr(special_forms, "single_circuit_criterion",
                            failing)
        m = [[-1.0, 0.0, -1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]]
        report = cli.run(request_for(m, samples=100, budget=100,
                                     exhaustive=True))
        errors = [c.check for c in report.checks
                  if c.verdict.reason.startswith("check-error")]
        # the criterion is an item of the suite, so the suite errs
        assert errors == ["sufficient-suite"] and len(calls) == 1
        assert report.summary_status is Status.PROVED

    def test_circuit_item_proves_past_the_search_prefix(self):
        # a cyclic form at 0.94 of its secant bound sec(pi/3)^3 = 8: the
        # search prefix does not find its certificate, the circuit does
        form = special_forms.CyclicForm((5.54, 1.23, 0.28),
                                        (5.106, 1.933, 1.45))
        m = form.matrix()
        prefix = lyapunov.DiagonalSearch(m, HalfPlaneLeft(), 5000).run(
            cli.SEARCH_PREFIX)
        assert prefix.reason == "search-prefix-exhausted"
        report = cli.run(request_for(m))
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "sufficient-suite")
        suite = next(c for c in report.checks
                     if c.check == "sufficient-suite")
        assert suite.verdict.reason == "sufficient:single-circuit"
        items = suite.data["items"]
        assert items["single-circuit"].proved
        assert items["diagonal-stability"].reason == "search-prefix-exhausted"
        assert list(items)[-2:] == ["w-map-stable", "single-circuit"]

    @pytest.mark.parametrize("kw", [
        dict(region_spec="disk:0,1"), dict(region_spec="hyperbolic"),
        dict(class_spec="spd")], ids=["disk", "hyperbolic", "spd"])
    def test_circuit_criterion_runs_only_in_the_suite(self, monkeypatch, kw):
        # a 2x2 circuit, eigenvalues -0.2 and -0.7: inside every region
        # here, so self-stability decides nothing, and no suite applies
        calls = []
        criterion = special_forms.single_circuit_criterion

        def counting(a):
            calls.append(a)
            return criterion(a)

        monkeypatch.setattr(special_forms, "single_circuit_criterion",
                            counting)
        report = cli.run(request_for([[-0.5, 0.2], [0.3, -0.4]], samples=200,
                                     budget=200, exhaustive=True, **kw))
        ids = [c.check for c in report.checks]
        assert ids[0] == "self-stability" and report.checks[0].verdict.proved
        assert "sufficient-suite" not in ids and "single-circuit" not in ids
        assert calls == []


def _parsers():
    """(parser, spec) for every spec of the three lists."""
    return ([(cli.parse_region, r) for r in REGION_SPECS]
            + [(cli.parse_gclass, g) for g in CLASS_SPECS]
            + [(cli.parse_op, op) for op in OP_SPECS])


def _subclasses(cls):
    out = set(cls.__subclasses__())
    for sub in list(out):
        out |= _subclasses(sub)
    return out


class TestValueClasses:
    """Regions, classes and operations are values: equal by class and
    parameters, hashed alike, with the repr of their parameters."""

    @pytest.mark.parametrize("parse, spec", _parsers())
    def test_parsing_twice_gives_equal_values(self, parse, spec):
        first, second = parse(spec), parse(spec)
        assert first is not second and first == second
        assert not first != second
        if spec.startswith(("lmi:", "emi:")):
            # array parameters, as today: equal, but not hashable
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)

    def test_distinct_specs_are_unequal(self):
        values = [(spec, parse(spec)) for parse, spec in _parsers()]
        # "disk" is disk:0,1 by default
        aliases = {frozenset({"disk", "disk:0,1"})}
        for i, (spec, value) in enumerate(values):
            for other_spec, other in values[i + 1:]:
                if frozenset({spec, other_spec}) not in aliases:
                    assert value != other, (spec, other_spec)

    def test_equality_is_by_class_and_parameters(self):
        assert Disk() == Disk(0.0, 1.0) and Disk(0, 1) == Disk()
        assert Disk(0.0, 0.5) != Disk()
        assert SectorRight(0.6) != ComplementSector(0.6)
        assert Disk().__eq__(HalfPlaneLeft()) is NotImplemented
        assert ds.Multiply() != ds.Add() and ds.Multiply() != "multiply"
        assert {ds.Multiply(), ds.Multiply(), ds.Add()} == {ds.Add(),
                                                           ds.Multiply()}

    def test_array_parameters_compare_whole(self):
        # a 2x2 form's arrays hold more than one element, so comparing
        # them entry by entry has no truth value
        spec = 'lmi:{"l": [[0,0],[0,0]], "m": [[-0.5,0.8],[-0.8,-0.5]]}'
        other = 'lmi:{"l": [[0,0],[0,0]], "m": [[-0.5,0.8],[-0.8,-0.4]]}'
        assert cli.parse_region(spec) == cli.parse_region(spec)
        assert cli.parse_region(spec) != cli.parse_region(other)
        assert (polynomials.IntervalPoly([1, 2], [2, 3])
                == polynomials.IntervalPoly([1, 2], [2, 3]))
        assert (polynomials.IntervalPoly([1, 2], [2, 3])
                != polynomials.IntervalPoly([1, 2], [2, 4]))
        pair = special_forms.build_companion(-np.eye(2), -np.eye(2))
        assert pair == special_forms.build_companion(-np.eye(2), -np.eye(2))
        with pytest.raises(TypeError):
            hash(cli.parse_region(spec))

    @pytest.mark.parametrize("value, text", [
        (Disk(), "Disk(center=0.0, radius=1.0)"),
        (cli.parse_region("disk:0,0.5"), "Disk(center=0.0, radius=0.5)"),
        *((cli.parse_region(spec), f"{cls.__name__}()")
          for spec, cls in cli._PLAIN_REGIONS.items()),
        (cli.parse_region("sector:0.6"), "SectorRight(theta=0.6)"),
        (cli.parse_region("complement-sector:0.5"),
         "ComplementSector(theta=0.5)"),
        (cli.parse_region('lmi:{"l": [[0]], "m": [[1]]}'),
         "LMIRegion(r11=array([[0.]]), r12=array([[1.]]), "
         "r22=array([[0.]]))"),
        (cli.parse_region('emi:{"r11": [[-1]], "r12": [[0]], "r22": [[1]]}'),
         "EMIRegion(r11=array([[-1.]]), r12=array([[0.]]), "
         "r22=array([[1.]]))"),
        *((cli.parse_gclass(spec), text) for spec, text in [
            ("positive-diagonal", "PositiveDiagonal()"),
            ("negative-diagonal", "NegativeDiagonal()"),
            ("diagonal-norm-lt1", "DiagonalNormLt1()"),
            ("vertex-diagonal", "VertexDiagonal()"), ("spd", "SPD()")]),
        (cli.parse_gclass("alpha-scalar:0,1|2"),
         "AlphaScalar(partition=((0, 1), (2,)))"),
        (cli.parse_gclass("alpha-block-spd:0,1|2"),
         "AlphaBlockSPD(partition=((0, 1), (2,)))"),
        (cli.parse_gclass("ordered-diagonal:0,1,2"),
         "OrderedDiagonal(tau=(0, 1, 2))"),
        (ds.IntervalDiagonal((0.5, 1.0), (2.0, 3.0)),
         "IntervalDiagonal(d_min=(np.float64(0.5), np.float64(1.0)), "
         "d_max=(np.float64(2.0), np.float64(3.0)))"),
        (cli.parse_gclass("sign-pattern:+-+"),
         "SignPatternDiagonal(signs=(1, -1, 1))"),
        (cli.parse_gclass("rank-positive:1"), "EntrywisePositiveRank(k=1)"),
        (ds.Multiply(), "Multiply()"), (ds.Add(), "Add()"),
        (ds.HadamardProduct(), "HadamardProduct()"),
        (cli.parse_op("block-hadamard:2"), "BlockHadamardProduct(block=2)"),
        (polynomials.IntervalPoly([1, 2], [2, 3]),
         "IntervalPoly(lower=array([1., 2.]), upper=array([2., 3.]))"),
        (special_forms.CyclicForm((1.0, 2.0), (3.0, 4.0)),
         "CyclicForm(alpha=(1.0, 2.0), beta=(3.0, 4.0))"),
        (special_forms.build_companion([[1.0]], [[2.0]]),
         "CompanionPair(a=array([[1.]]), b=array([[2.]]), "
         "c=array([[1., 2.],\n       [1., 0.]]))"),
    ])
    def test_repr_names_the_parameters(self, value, text):
        assert repr(value) == text

    def test_no_value_class_is_a_dataclass(self):
        # each dataclass decoration execs generated methods at import
        classes = (_subclasses(Region) | _subclasses(ds.GClass)
                   | _subclasses(ds.BinOp)
                   | {polynomials.IntervalPoly, special_forms.CyclicForm,
                      special_forms.CompanionPair})
        assert len(classes) >= 29
        assert sorted(c.__name__ for c in classes
                      if dataclasses.is_dataclass(c)) == []


# The classes of CLASS_SPECS within the positive diagonals.
_POSITIVE = {"positive-diagonal", "alpha-scalar:0,1|2",
             "ordered-diagonal:0,1,2", "interval-diagonal:0.5/2,0.5/2,0.5/2",
             "interval-diagonal:0.5/inf,1/2,1/2", "sign-pattern:+++"}

# (region, op) -> the classes of CLASS_SPECS to which a diagonal
# certificate transfers, written out by hand
TRANSFER_TABLE = {
    # L1: the conic regions, positive diagonals
    **{(r, "multiply"): _POSITIVE
       for r in ("half-plane-left", "half-plane-right", "sector:0.6",
                 'lmi:{"l": [[0]], "m": [[1]]}')},
    # L2: the disks centred at 0, diagonals within |g| <= 1; the unit
    # disk as a form too, not its exterior (r11 = 1, r22 = -1)
    **{(r, "multiply"): {"diagonal-norm-lt1", "vertex-diagonal"}
       for r in ("disk", "disk:0,1", "disk:0,2",
                 'emi:{"r11": [[-1]], "r12": [[0]], "r22": [[1]]}')},
    # L3: nonsingular diagonals
    ("hyperbolic", "multiply"): _POSITIVE | {
        "negative-diagonal", "vertex-diagonal", "sign-pattern:+-+",
        "sign-pattern:---"},
    # the additive rule: negative diagonals on the half-plane
    ("half-plane-left", "add"): {"negative-diagonal", "sign-pattern:---"},
}


def _context(region_spec, class_spec, op_spec):
    """The context of a 3 x 3 request; ``transfers`` reads no matrix."""
    return cli._Context(SimpleNamespace(
        matrix=np.zeros((3, 3)), region=cli.parse_region(region_spec),
        gclass=cli.parse_gclass(class_spec), op=cli.parse_op(op_spec)))


def _diag_scaled(rng, n, signs):
    """D^-1 (P + K) with P SPD, K skew and D = diag(signs e^u): D A + A^T
    D = 2 P, a diagonal certificate on the half-plane when every sign is
    -1 and a sign-free one on the hyperbolic region."""
    b = rng.normal(size=(n, n))
    k = rng.normal(size=(n, n))
    d = signs * np.exp(rng.uniform(-1.0, 1.0, n))
    return (b @ b.T / n + 0.5 * np.eye(n) + k - k.T) / d[:, None]


def _schur(rng, n, centre, radius):
    """centre I + radius D^-1/2 B D^1/2 with ||B||_2 < 1."""
    return (centre * np.eye(n)
            + radius * random_schur_diag_stable(rng, n)[0])


# region spec -> a construction of n x n matrices certified on it.  The
# shifted disk has no lemma; a predicate that admitted one there would
# fail the sampling test.
LEMMA_REGIONS = {
    "half-plane-left": lambda rng, n: _diag_scaled(rng, n, -np.ones(n)),
    "half-plane-right": lambda rng, n: _diag_scaled(rng, n, np.ones(n)),
    "sector:0.6": lambda rng, n: _diag_scaled(rng, n, np.ones(n)),
    "disk:0,1": lambda rng, n: _schur(rng, n, 0.0, 1.0),
    "disk:0,0.5": lambda rng, n: _schur(rng, n, 0.0, 0.5),
    "disk:0.3,0.5": lambda rng, n: _schur(rng, n, 0.3, 0.5),
    'emi:{"r11": [[-0.25]], "r12": [[0]], "r22": [[1]]}':
        lambda rng, n: _schur(rng, n, 0.0, 0.5),
    "hyperbolic": lambda rng, n: _diag_scaled(
        rng, n, rng.choice((-1.0, 1.0), n)),
}


class TestTransferLemmas:
    def test_transfers_matches_the_table(self):
        for r in REGION_SPECS:
            for g in CLASS_SPECS:
                for op in OP_SPECS:
                    want = g in TRANSFER_TABLE.get((r, op), ())
                    assert _context(r, g, op).transfers is want, (r, g, op)

    @pytest.mark.parametrize("region_spec", sorted(LEMMA_REGIONS))
    def test_every_admitted_member_is_certified(self, region_spec):
        # ten matrices with a certificate on the region; for each class
        # that transfers admits, 1,000 members G each keep G o A strictly
        # inside
        rng = np.random.default_rng(7)
        region = cli.parse_region(region_spec)
        certified = []
        while len(certified) < 10:
            a = LEMMA_REGIONS[region_spec](rng, 3)
            if lyapunov.DiagonalSearch(a, region, 2000).run().proved:
                certified.append(a)
        for g in CLASS_SPECS:
            for op in ("multiply", "add"):
                ctx = _context(region_spec, g, op)
                if not ctx.transfers:
                    continue
                gclass, binop = ctx.request.gclass, ctx.request.op
                for a in certified:
                    ms = binop.apply(gclass.sample_batch(rng, 3, 1000), a)
                    inside = membership(np.linalg.eigvals(ms), region) < 0
                    assert inside.all(), (region_spec, g, op)

    @pytest.mark.parametrize("region_spec", REGION_SPECS + ["disk:-0,1"])
    def test_radial_agrees_with_the_form(self, region_spec):
        # a region that states radial itself agrees with the form's test
        region = cli.parse_region(region_spec)
        assert region.radial is Region.radial.fget(region)

    @pytest.mark.parametrize("argv, decided_by, kind", [
        # L1 on the half-plane: the suite proves a sign pattern of +
        (["--class", "sign-pattern:++", "--", "-2,1;0,-1"],
         "sufficient-suite", "diagonal-lyapunov"),
        # L2 on a disk of radius 0.9
        (["--region", "disk:0,0.9", "--class",
          "interval-diagonal:0.1/0.9,0.1/0.9", "--", "0.5,0.2;0.1,0.4"],
         "diagonal-certificate", "diagonal-stein"),
        # L2 on the unit disk written as a form
        (["--region", 'emi:{"r11": [[-1]], "r12": [[0]], "r22": [[1]]}',
          "--class", "diagonal-norm-lt1", "--", "0.5,0.2;0.1,0.4"],
         "diagonal-certificate", "diagonal-emi"),
        # L3 for a class of positive diagonals
        (["--region", "hyperbolic", "--class", "alpha-scalar:0|1", "--",
          "2,1;-1,-1"], "diagonal-certificate", "diagonal-hyperbolic"),
    ])
    def test_lemma_requests_are_proved(self, capsys, argv, decided_by, kind):
        assert cli.main(["--format", "json"] + argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["status"] == "proved"
        assert report["summary"]["decided_by"] == decided_by
        record, = (c for c in report["checks"] if c["check"] == decided_by)
        assert record["witness"]["kind"] == kind

    @pytest.mark.parametrize("region_spec", ["disk:0.3,0.9", "disk:0,1"])
    def test_no_search_where_no_lemma_holds(self, capsys, region_spec):
        # the positive diagonals are unbounded, and the shifted disk has
        # no lemma at all: the search would run to no decision
        cli.main(["--format", "json", "--samples", "200", "--region",
                  region_spec, "--", "0.5,0.2;0.1,0.4"])
        report = json.loads(capsys.readouterr().out)
        assert "diagonal-certificate" not in [c["check"]
                                              for c in report["checks"]]


class TestEscapingMatrix:
    """No certificate row on an A with an eigenvalue strictly outside the
    region: every suite item and any diagonal certificate puts A's own
    spectrum strictly inside it."""

    CERTIFYING = {"sufficient-suite", "diagonal-certificate"}

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_escaping_additive_request_runs_no_suite(self, exhaustive):
        report = cli.run(request_for(np.diag([1.0, -1.0]), op_spec="add",
                                     class_spec="negative-diagonal",
                                     samples=300, budget=300,
                                     exhaustive=exhaustive))
        assert (report.summary_status, report.summary_reason) == (
            Status.REFUTED, "necessary-p0plus")
        assert not self.CERTIFYING & {c.check for c in report.checks}
        assert not self.CERTIFYING & set(report.skipped)
        assert report.conflicts == []

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_band_edge_stays_proved_by_the_suite(self, exhaustive):
        # -9e-9 is in the band: self-stability refutes A, but A is not
        # strictly outside, and D + A is Hurwitz for every D < 0
        report = cli.run(request_for(np.diag([-9e-9, -1.0]), op_spec="add",
                                     class_spec="negative-diagonal",
                                     samples=300, budget=300,
                                     exhaustive=exhaustive))
        assert report.checks[0].verdict.refuted
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "sufficient-suite")
        assert report.conflicts == []

    def test_escaping_disk_request_runs_no_search(self):
        a = np.array([[1.5, 0.0], [0.0, 0.2]])
        report = cli.run(request_for(a, region_spec="disk:0,1",
                                     class_spec="diagonal-norm-lt1",
                                     samples=300, budget=300,
                                     exhaustive=True))
        assert "diagonal-certificate" not in [c.check for c in report.checks]
        assert report.summary_status is Status.REFUTED

    def test_failed_eigen_solve_runs_the_rows(self, monkeypatch):
        def failing(a):
            raise cli.EigenSolverError("no convergence")

        monkeypatch.setattr(cli, "eigenvalues", failing)
        report = cli.run(request_for(-np.eye(2), samples=100, budget=100))
        assert report.checks[0].verdict.reason.startswith("check-error")
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "sufficient-suite")

    def test_hadamard_h_stability_needs_no_symmetric_a(self):
        # for SPD H, H o A + (H o A)^T = H o (A + A^T), negative definite
        # by the Schur product theorem whenever A + A^T is
        a = [[-2.0, 1.0], [0.0, -2.0]]
        report = cli.run(request_for(a, class_spec="spd", op_spec="hadamard",
                                     samples=3000, exhaustive=True))
        sym = next(c for c in report.checks if c.check == "symmetric-part")
        assert sym.verdict.proved and sym.decides
        assert (report.summary_status, report.summary_reason) == (
            Status.PROVED, "symmetric-part")
        assert report.conflicts == []


class TestExactMinorChecks:
    @given(st.integers(0, 2**32 - 1), st.integers(8, 12),
           st.floats(30.0, 100.0))
    @settings(max_examples=10, deadline=None)
    def test_diagonally_stable_never_refuted(self, seed, n, norm):
        # A = P^-1 (-S + K), S > 0, K skew, P > 0 diagonal: diagonally
        # stable, so D-stable for both triples, at a scale where the float
        # minor tolerance is huge
        a, _ = random_diagonally_stable(np.random.default_rng(seed), n)
        a *= norm / np.linalg.norm(a, np.inf)
        for class_spec, op_spec in (("positive-diagonal", "multiply"),
                                    ("negative-diagonal", "add")):
            report = cli.run(request_for(
                a, class_spec=class_spec, op_spec=op_spec, samples=200,
                budget=300, exhaustive=True))
            assert [c.check for c in report.checks if c.verdict.refuted] == []
            assert report.summary_status is not Status.REFUTED

    @pytest.mark.parametrize("matrix", [
        "0,0;0,0", "0,1;-1,0", "-1,0;0,0", "0,1,0;-1,-1,1;0,-1,0"])
    def test_additive_repros_are_never_refuted(self, capsys, matrix):
        # A + D is Hurwitz for every negative diagonal D (P = I), though
        # an order sum of minors of -A vanishes
        argv = ["--op", "add", "--class", "negative-diagonal",
                "--exhaustive", "--samples", "500", "--format", "json", "--",
                matrix]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["status"] != "refuted"
        assert all(c["status"] != "refuted" or not c["decides_request"]
                   for c in report["checks"])
