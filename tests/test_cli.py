import json

import pytest

from reflarr import cli
from reflarr.catalog import _monomial_generators
from reflarr.cyclo import CycNum
from reflarr.linalg import Matrix


@pytest.fixture()
def g4_spec(tmp_path):
    p = tmp_path / "g4.json"
    p.write_text(json.dumps({"kind": "exceptional", "st": 4}))
    return str(p)


@pytest.fixture()
def reducible_spec(tmp_path):
    p = tmp_path / "red.json"
    p.write_text(
        json.dumps(
            {
                "kind": "explicit",
                "dim": 2,
                "cyclotomic_order": 1,
                "generators": [
                    [[-1, 0], [0, 1]],
                    [[1, 0], [0, -1]],
                ],
            }
        )
    )
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


class TestVerify:
    def test_g4_all_suites(self, g4_spec, capsys):
        assert cli.main(["verify", g4_spec, "--suite", "all"]) == 0
        out = capsys.readouterr().out
        assert "kappa: 6" in out
        assert "period: 6" in out
        assert "g4_table" in out

    def test_json_report_shape(self, g4_spec, capsys):
        assert cli.main(["verify", g4_spec, "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["schema"] == 1
        assert rep["all_pass"] is True
        names = {c["name"] for c in rep["checks"]}
        assert {"period", "kernels", "galois", "monodromy"} <= names

    def test_deterministic_given_seed(self, g4_spec, capsys):
        cli.main(["verify", g4_spec, "--json", "--seed", "9"])
        first = capsys.readouterr().out
        cli.main(["verify", g4_spec, "--json", "--seed", "9"])
        assert capsys.readouterr().out == first

    def test_failing_check_exits_1(self, g4_spec, capsys, monkeypatch):
        monkeypatch.setattr(cli, "reference_kappa_table", lambda: {4: 7})
        assert cli.main(["verify", g4_spec, "--suite", "kappa"]) == 1
        rep = capsys.readouterr().out
        assert "False" in rep

    @pytest.mark.parametrize(
        "suite,target",
        [
            ("phi", "_phi_section"),
            ("kappa", "divisor_closed"),
            ("chi", "kernel_of_Rn"),
            ("monodromy", "_monodromy_check"),
        ],
    )
    def test_arithmetic_error_is_a_failed_named_check(
        self, suite, target, g4_spec, capsys, monkeypatch
    ):
        def contradiction(*args):
            raise ArithmeticError(f"{target} contradicts itself")

        monkeypatch.setattr(cli, target, contradiction)
        assert cli.main(["verify", g4_spec, "--suite", suite, "--json"]) == 1
        rep = _json_out(capsys)
        assert rep["all_pass"] is False and rep["kappa"] == 6
        assert [c for c in rep["checks"] if not c["pass"]] == [
            {"name": suite, "pass": False, "detail": f"{target} contradicts itself"}
        ]

    def test_failed_galois_check_names_n(self, g4_spec, capsys, monkeypatch):
        # kappa(G4) = 6: the coprime layer is n = 1, 5
        monkeypatch.setattr(cli, "galois_check", lambda g, arr, n: n != 5)
        assert cli.main(["verify", g4_spec, "--suite", "chi", "--json"]) == 1
        rep = _json_out(capsys)
        assert [c for c in rep["checks"] if not c["pass"]] == [
            {"name": "galois", "pass": False, "detail": "fails at n = 5"}
        ]

    def test_arithmetic_error_in_periodicity(self, g4_spec, capsys, monkeypatch):
        def no_period(g, arr):
            raise ArithmeticError("no period up to 2*kappa")

        monkeypatch.setattr(cli, "check_periodicity", no_period)
        assert cli.main(["verify", g4_spec, "--suite", "all", "--json"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        rep = json.loads(out)
        failed = [(c["name"], c["detail"]) for c in rep["checks"] if not c["pass"]]
        # the chi suite stops at the error; the report's period is null
        assert failed == [
            ("chi", "no period up to 2*kappa"),
            ("report_period", "no period up to 2*kappa"),
        ]
        assert rep["period"] is None
        names = [c["name"] for c in rep["checks"]]
        assert "monodromy" in names and "kappa_reference" in names


class TestAnalyze:
    def test_reducible_group(self, reducible_spec, capsys):
        assert cli.main(["analyze", reducible_spec, "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["group"]["irreducible"] is False
        assert rep["phi"]["surjective"] is False

    def test_g4_summary(self, g4_spec, capsys):
        assert cli.main(["analyze", g4_spec, "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["group"]["order"] == 24
        assert rep["kappa"]["kappa"] == 6
        assert rep["phi"]["rank"] == 3


class TestKappaTable:
    def test_small_family(self, capsys):
        assert cli.main(["kappa-table", "--family", "1..2,1..2,2..3", "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["all_match_formula"] is True
        labels = {row["group"] for row in rep["rows"]}
        assert "G(2,1,2)" in labels
        for row in rep["rows"]:
            assert row["kappa"] == row["formula"]

    def test_bad_family(self, capsys):
        assert cli.main(["kappa-table", "--family", "1..2"]) == 2

    @pytest.mark.parametrize(
        "family", ["3..1,1,2", "0..1,1,2", "1,1,-2", "a,b,c", "1..x,1,2", "1,1,2,0"]
    )
    def test_bad_family_named(self, family, capsys):
        assert cli.main(["kappa-table", "--family", family, "--json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --family") and err.count("\n") == 1
        assert "invalid literal" not in err

    def test_single_value_parts(self, capsys):
        assert cli.main(["kappa-table", "--family", "2,1,2", "--json"]) == 0
        assert [row["group"] for row in _json_out(capsys)["rows"]] == ["G(2,1,2)"]


class TestOrderBound:
    @pytest.mark.parametrize("bound", ["0", "-3"])
    @pytest.mark.parametrize("command", ["verify", "kappa-table"])
    def test_non_positive_refused_by_name(self, bound, command, g4_spec, capsys):
        argv = [command, g4_spec] if command == "verify" else [command]
        assert cli.main([*argv, "--order-bound", bound]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: --order-bound must be positive, got {bound}\n"


class TestChi:
    def test_g4_table(self, g4_spec, capsys):
        assert cli.main(["chi", g4_spec, "--n-range", "0..5", "--json"]) == 0
        rep = _json_out(capsys)
        values = rep["chi"]["values"]
        assert sorted(values) == sorted(str(n) for n in range(6))
        assert all(len(col) == 7 for col in values.values())
        assert values["0"][0] == "4"

    @pytest.mark.parametrize("n_range", ["3..1", "a", "3", "1..2..3", "0..x"])
    def test_bad_n_range_exits_2(self, n_range, g4_spec, capsys):
        assert cli.main(["chi", g4_spec, "--n-range", n_range]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--n-range must be LO..HI with LO <= HI" in err

    def test_single_n(self, g4_spec, capsys):
        assert cli.main(["chi", g4_spec, "--n-range", "2..2", "--json"]) == 0
        assert list(_json_out(capsys)["chi"]["values"]) == ["2"]


class TestPoincare:
    def test_counterexample(self, tmp_path, capsys):
        p = tmp_path / "arr.json"
        p.write_text(
            json.dumps(
                {
                    "covectors": [
                        [1, 0, 0],
                        [0, 1, 0],
                        [0, 0, 1],
                        [1, -1, 0],
                        [0, 1, -1],
                    ]
                }
            )
        )
        assert cli.main(["poincare", str(p), "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["coefficients"] == [1, 5, 8, 4]
        assert rep["essential"] is True

    @staticmethod
    def _monomial_covectors(m):
        """e_i - zeta_m^k e_j for i < j in C^3: the arrangement of G(m,m,3),
        entries written as cyclotomic literals of length m."""
        zero, one = [0] * m, [1] + [0] * (m - 1)
        rows = []
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            for k in range(m):
                row = [zero, zero, zero]
                row[i] = one
                row[j] = [-1 if t == k else 0 for t in range(m)]
                rows.append(row)
        return rows

    @pytest.mark.parametrize("m,coefficients", [(3, [1, 9, 24, 16]), (4, [1, 12, 41, 30])])
    def test_cyclotomic_arrangement(self, m, coefficients, tmp_path, capsys):
        p = tmp_path / "arr.json"
        data = {"cyclotomic_order": m, "covectors": self._monomial_covectors(m)}
        p.write_text(json.dumps(data))
        assert cli.main(["poincare", str(p), "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["hyperplanes"] == 3 * m
        assert rep["coefficients"] == coefficients


class TestErrors:
    def test_missing_file(self, capsys):
        assert cli.main(["analyze", "/nonexistent/spec.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.main(["analyze", str(p)]) == 2

    def test_unsupported_group(self, tmp_path, capsys):
        p = tmp_path / "g24.json"
        p.write_text(json.dumps({"kind": "exceptional", "st": 24}))
        assert cli.main(["analyze", str(p)]) == 2
        assert "4, 12" in capsys.readouterr().err


class TestIrrationalForm:
    def test_conjugated_i2_8_verifies(self, tmp_path, capsys):
        # I2(8) conjugated by P = [[1, 0], [1 + z8, 1]]: the invariant
        # form's leading minors are irrational, the form still valid
        z = CycNum.zeta(8)
        p = Matrix([[1, 0], [1 + z, 1]])
        p_inv = p.inverse()
        gens = [p * s * p_inv for s in _monomial_generators(8, 8, 2)]
        spec = {
            "kind": "explicit",
            "dim": 2,
            "cyclotomic_order": 8,
            "generators": [
                [[[str(c) for c in x.lift(8).coeffs] for x in row] for row in g.rows]
                for g in gens
            ],
        }
        path = tmp_path / "i2_8.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["verify", str(path), "--suite", "all", "--json"]) == 0
        rep = _json_out(capsys)
        assert rep["all_pass"] and rep["kappa"] == rep["period"] == 2


class TestExitContract:
    """Bad specs exit 2 with one error line on stderr and no traceback."""

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "imprimitive", "d": "3", "e": 1, "r": 2},
            [{"kind": "exceptional", "st": 4}],
            {"kind": "explicit", "dim": 1, "generators": [[[2]]]},
            {"kind": "explicit", "dim": 2, "generators": [[[1, 1], [0, 1]]]},
            {"kind": "explicit", "dim": 2, "generators": [[[1, 0]]]},
            {"kind": "coxeter", "type": "B"},
        ],
        ids=["string-param", "top-level-list", "det-2", "unipotent", "shape", "missing"],
    )
    def test_bad_spec_exits_2(self, spec, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        assert cli.main(["analyze", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("order", [0, -3])
    def test_non_positive_cyclotomic_order_exits_2(self, order, tmp_path, capsys):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"kind": "explicit", "dim": 1, "cyclotomic_order": order,
                                 "generators": [[[-1]]]}))
        assert cli.main(["analyze", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "'cyclotomic_order' must be a positive int" in err


    @pytest.mark.parametrize(
        "data",
        [
            [[1, 0]],
            {"covectors": []},
            {"covectors": [[[1, 0], 0], [0, 1]]},
            {"covectors": [[True, 0], [0, 1]]},
            {"covectors": [[1, 0], [0]]},
            {"covectors": [[1, 0], [0, 1]], "cyclotomic_order": 0},
            {"covectors": [[1, 0], [0, 1]], "cyclotomic_order": "3"},
            {"covectors": [[1, 0], [0, 1]], "cyclotomic_order": True},
        ],
        ids=["top-level-list", "empty", "nested-entry", "boolean", "ragged",
             "order-zero", "order-string", "order-boolean"],
    )
    def test_bad_covectors_exit_2(self, data, tmp_path, capsys):
        p = tmp_path / "arr.json"
        p.write_text(json.dumps(data))
        assert cli.main(["poincare", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "is zero" not in err and "same hyperplane" not in err

    @pytest.mark.parametrize(
        "covectors,message",
        [
            ([[1, 0], [0, 1], [1, 1], [0, 0]], "covector 3 is zero"),
            ([[1, 0], [0, 1], [1, -1], [1, 1], [1, 2], [-3, 3]],
             "covector 5 defines the same hyperplane as covector 2"),
        ],
        ids=["zero", "duplicate"],
    )
    def test_bad_covector_named_by_index(self, covectors, message, tmp_path, capsys):
        p = tmp_path / "arr.json"
        p.write_text(json.dumps({"covectors": covectors}))
        assert cli.main(["poincare", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_infinite_covector_exits_2(self, tmp_path, capsys):
        p = tmp_path / "arr.json"
        p.write_text('{"covectors": [[1, Infinity], [0, 1]]}')
        assert cli.main(["poincare", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "float" in err


class TestReflectionFree:
    """An explicit spec whose group has no reflections is refused by name."""

    @pytest.mark.parametrize(
        "argv", [["verify", "--suite", "kappa"], ["chi"]], ids=["verify-kappa", "chi"]
    )
    def test_rotation_exits_2(self, argv, tmp_path, capsys):
        p = tmp_path / "rot.json"
        p.write_text(json.dumps(
            {"kind": "explicit", "dim": 2, "generators": [[[0, -1], [1, 0]]]}
        ))
        assert cli.main([argv[0], str(p), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no reflections" in err

    def test_non_essential_monodromy_passes(self, tmp_path, capsys):
        # one reflection in rank 2: the form needs the fixed line V^W
        p = tmp_path / "flip.json"
        p.write_text(json.dumps(
            {"kind": "explicit", "dim": 2, "generators": [[[-1, 0], [0, 1]]]}
        ))
        assert cli.main(["verify", str(p), "--suite", "monodromy"]) == 0


class TestRendering:
    def test_text_is_function_of_json(self, g4_spec, capsys):
        cli.main(["analyze", g4_spec, "--json"])
        rep = _json_out(capsys)
        text = cli.render_text(rep)
        assert "G4" in text and "24" in text
        # scalar content survives the rendering
        assert str(rep["kappa"]["kappa"]) in text


class TestParser:
    def test_one_parser_parses_independent_argument_lists(self, g4_spec):
        parser = cli._build_parser()
        assert cli._build_parser() is parser
        first = parser.parse_args(["verify", g4_spec, "--json", "--seed", "3", "--suite", "chi"])
        second = parser.parse_args(["verify", g4_spec])
        assert (first.json, first.seed, first.suite) == (True, 3, "chi")
        assert (second.json, second.seed, second.suite) == (False, 0, "all")
        third = parser.parse_args(["chi", g4_spec])
        assert third.n_range == "0..5" and not hasattr(third, "suite")
