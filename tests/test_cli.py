import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from bottfano import cli, fan, oracle
from bottfano.cli import main, parse_document
from bottfano.fan import FAN_WORK_LIMIT
from bottfano.tower import B_WORK_LIMIT, Classification, TowerError, Verdict
from bottfano.cli import UsageError

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_machine(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    return code, json.loads(out) if out else None, err


class TestParseDocument:
    def test_fixture_parses(self):
        t = parse_document((FIXTURES / "fano_4stage.json").read_text())
        assert t.stage_dims == (3, 2, 2, 2)
        assert t.a(4, 1) == (0, 2)

    def test_invalid_json_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_document("{not json")

    def test_shape_error_cites_path(self):
        doc = {"stages": [1, 2], "coefficients": [[[1]]]}
        with pytest.raises(TowerError, match=r"j=2.*l=1.*n_2=2"):
            parse_document(json.dumps(doc))

    def test_non_integer_entry_cites_path(self):
        doc = {"stages": [1, 1], "coefficients": [[[1.5]]]}
        with pytest.raises(TowerError, match=r"j=2.*l=1.*k=1"):
            parse_document(json.dumps(doc))

    def test_short_coefficient_row_exit_code(self, capsys, monkeypatch):
        doc = {"stages": [1, 1, 1], "coefficients": [[[0]], [[0]]]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        assert run(capsys, "check") == (
            2, "", "error: coefficients[j=3] must be an array of 2 vectors (l=1..2)\n"
        )


class TestCheck:
    def test_fano_fixture(self, capsys):
        code, report, _ = run_machine(
            capsys, "check", "--input", str(FIXTURES / "fano_4stage.json")
        )
        assert code == 0
        assert report["verdict"] == "fano"
        assert report["nu_sums"] == [3, 2, 1]
        assert report["thresholds"] == [[3, 4], [2, 3], [2, 3]]
        assert report["b_vectors"] == {
            "1,1": [-1, -1], "1,2": [0, 1], "1,3": [0, 1],
            "2,1": [0, -1], "2,2": [0, 0],
            "3,1": [0, 1],
        }

    def test_not_weak_fano_fixture(self, capsys):
        code, report, _ = run_machine(
            capsys, "check", "--input", str(FIXTURES / "not_weak_fano_3stage.json")
        )
        assert code == 0
        assert report["verdict"] == "not_weak_fano"

    def test_projective_plane(self, capsys):
        code, report, _ = run_machine(
            capsys, "check", "--input", str(FIXTURES / "projective_plane.json")
        )
        assert code == 0
        assert report["verdict"] == "fano"
        assert report["nu_sums"] == []

    def test_verify_agrees(self, capsys):
        code, report, _ = run_machine(
            capsys, "check", "--verify", "--input", str(FIXTURES / "hirzebruch_a1.json")
        )
        assert code == 0
        assert report["verified"] is True and "mismatch" not in report

    def test_machine_output_round_trips(self, capsys):
        _, report, _ = run_machine(
            capsys, "check", "--input", str(FIXTURES / "fano_4stage.json")
        )
        assert json.loads(json.dumps(report)) == report

    def test_validation_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"stages": [1, 1], "coefficients": [[[1, 2]]]}')
        code, _, err = run(capsys, "check", "--input", str(bad))
        assert code == 2
        assert "j=2" in err

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "check", "--input", str(bad))
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        assert main(["check", "--no-such-flag"]) == 1

    def test_huge_integer_literal_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "huge.json"
        bad.write_text("[[[" + "9" * 5000 + "]]]")
        code, out, err = run(capsys, "check", "--input", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deep_nesting_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100_000)
        code, out, err = run(capsys, "check", "--input", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    def test_undecodable_input_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, _, err = run(capsys, "check", "--input", str(bad))
        assert code == 1
        assert err.startswith("error: cannot read")

    def test_utf8_document_read_alike_from_a_file_and_stdin_under_the_c_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259), whatever encoding the locale names
        doc = tmp_path / "doc.json"
        doc.write_bytes('{"stages": [1], "note": "\u00e9"}'.encode("utf-8"))
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for argv, stdin in ((["--input", str(doc)], b""), ([], doc.read_bytes())):
            proc = subprocess.run([sys.executable, "-m", "bottfano.cli", "check", *argv],
                                  input=stdin, env=env, capture_output=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, b"")

    def test_empty_input_path_does_not_read_stdin(self, capsys, monkeypatch):
        # only "-" means stdin, so --input "$DOC" with DOC unset cannot block on a terminal
        monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "fano_4stage.json").read_text()))
        code, out, err = run(capsys, "check", "--input", "")
        assert code == 1
        assert out == ""
        assert err.startswith("error: cannot read") and err.count("\n") == 1

    @pytest.mark.parametrize("document, path", [
        ({"stages": [0, 1], "coefficients": [[[0]]]}, "stages[j=1]"),
        ({"stages": [1, True], "coefficients": [[[0]]]}, "stages[j=2]"),
        ({"stages": [1.5, 1], "coefficients": [[[0]]]}, "stages[j=1]"),
        ({"stages": ["2", 1], "coefficients": [[[0]]]}, "stages[j=1]"),
        ({"stages": [1, 2], "coefficients": [[[0]]]}, "coefficients[j=2][l=1]"),
        ({"stages": [1, 2], "coefficients": [[[0, 0, 0]]]}, "coefficients[j=2][l=1]"),
        ({"stages": [1, 1], "coefficients": [[5]]},
         "coefficients[j=2][l=1] must be an array of n_2 integers"),
    ])
    def test_malformed_document_cites_path(self, capsys, tmp_path, document, path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        code, out, err = run(capsys, "check", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert path in err

    def test_verify_accepts_more_than_24_rays(self, capsys, tmp_path):
        # 26 rays, more than the subset scan takes; 13^2 = 169 cones, far inside the fan limit
        doc = tmp_path / "wide.json"
        doc.write_text(json.dumps({"stages": [12, 12], "coefficients": [[[0] * 12]]}))
        code, report, _ = run_machine(capsys, "check", "--verify", "--input", str(doc))
        assert code == 0 and report["verified"] is True

    def test_verify_refuses_large_fan_before_validating(self, capsys, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a refused tower reached the fan")

        monkeypatch.setattr("bottfano.fan.Fan", fail)
        monkeypatch.setattr("bottfano.oracle.validate_smooth_complete", fail)
        documents = [
            ({"stages": [2000], "coefficients": []}, "2001 cones of dimension 2000"),
            ({"stages": [1] * 40, "coefficients": [[[0]] * (j - 1) for j in range(2, 41)]},
             "1099511627776 cones of dimension 40"),
            # 10^4300 cones, one digit past what str converts
            ({"stages": [10**4300 - 1], "coefficients": []}, "over 10^3000 cones"),
        ]
        for document, size in documents:
            doc = tmp_path / "big.json"
            doc.write_text(json.dumps(document))
            for command in (["check", "--verify"], ["fan"], ["relations"]):
                code, _, err = run(capsys, *command, "--input", str(doc))
                assert code == 2
                assert err == (
                    f"error: fan refused: {size} exceed limit {FAN_WORK_LIMIT} on cones*dim^2\n"
                )

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_b_work_limit_refuses_before_any_output(self, capsys, tmp_path, monkeypatch, fmt):
        # 210 line stages can update C(210, 3) = 1,521,520 b-vector entries
        def fail(*args, **kwargs):
            raise AssertionError("a refused tower reached the fan")

        monkeypatch.setattr("bottfano.fan.build_fan", fail)
        doc = tmp_path / "tall.json"
        doc.write_text(json.dumps({"stages": [1] * 210,
                                   "coefficients": [[[-1]] * (j - 1) for j in range(2, 211)]}))
        for command in (["check"], ["check", "--verify"]):
            code, out, err = run(capsys, *command, "--input", str(doc), "--format", fmt)
            assert (code, out) == (2, "")
            assert err == (f"error: b-vectors refused: 1521520 entry updates exceed limit "
                           f"{B_WORK_LIMIT} on sum_j n_j*C(j-1,2)\n")

    def test_verify_checks_and_recurses_once(self, capsys, monkeypatch):
        from bottfano import tower

        calls = {"validate": 0, "compute_b": 0}

        def counted(name):
            original = getattr(tower, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(tower, name, counted(name))
        path = str(FIXTURES / "fano_4stage.json")
        code, report, _ = run_machine(capsys, "check", "--verify", "--input", path)
        assert code == 0 and report["verified"] is True
        assert calls == {"validate": 1, "compute_b": 1}

    def test_repeated_calls_do_not_share_options(self, capsys):
        path = str(FIXTURES / "hirzebruch_a1.json")
        _, first, _ = run_machine(capsys, "check", "--verify", "--input", path)
        _, second, _ = run_machine(capsys, "check", "--input", path)
        assert first["verified"] is True
        assert "verified" not in second


NINES = int("9" * 4300)  # the longest int that str converts, at the default limit


class TestUnprintableOutput:
    """b-vectors and nu-sums can outgrow the input integers past what ``str``
    converts; such a tower is refused before any output, and any other is
    printed in full."""

    COMMANDS = [["check"], ["check", "--verify"], ["fan"], ["relations"]]

    def write(self, tmp_path, stages, coefficients):
        doc = tmp_path / "tower.json"
        doc.write_text(json.dumps({"stages": stages, "coefficients": coefficients}))
        return str(doc)

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fmt", ["human", "machine"])
    @pytest.mark.parametrize("stages, coefficients", [
        # b_{1,2} = mu(b_{1,1}) * a_{3,2} = -10^8000, 8,001 digits from inputs of 4,001
        ([1, 1, 1], [[[-10**4000]], [[0], [10**4000]]]),
        # b_{1,1} = (x, -x) has 4,300 digits, nu(b_{1,1}) = 3x and b^(1) - mu = 2x have 4,301
        ([1, 2], [[[5 * 10**4299, -5 * 10**4299]]]),
    ])
    def test_refused_before_any_output(self, capsys, tmp_path, monkeypatch, command, fmt,
                                       stages, coefficients):
        def fail(*args, **kwargs):
            raise AssertionError("an unprintable tower reached the fan")

        monkeypatch.setattr(fan, "build_fan", fail)
        doc = self.write(tmp_path, stages, coefficients)
        code, out, err = run(capsys, *command, "--input", doc, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == (f"error: this tower's output would hold an integer of more than "
                       f"{sys.get_int_max_str_digits()} digits, too long to print\n")

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("fmt", ["human", "machine"])
    @pytest.mark.parametrize("a", [10**3998, -10**3998, NINES, -NINES])
    def test_long_printable_output(self, capsys, tmp_path, command, fmt, a):
        # 3,999 and 4,300 digits: b_{1,1} = a and nu(b_{1,1}) = |a| still convert
        doc = self.write(tmp_path, [1, 1], [[[a]]])
        code, out, err = run(capsys, *command, "--input", doc, "--format", fmt)
        assert (code, err) == (0, "")
        if command[0] == "check" and fmt == "machine":
            report = json.loads(out)
            assert report["b_vectors"] == {"1,1": [a]} and report["nu_sums"] == [abs(a)]
        else:
            assert str(abs(a)) in out

    def test_check_refuses_what_fan_prints(self, capsys, tmp_path):
        # stage 1's nu-sum NINES + 1 has 4,301 digits, but fan prints only its
        # parts NINES and 1, and the degree 2 - (NINES + 1), of 4,300 digits
        doc = self.write(tmp_path, [1, 1, 1], [[[NINES]], [[1], [0]]])
        code, out, _ = run(capsys, "check", "--input", doc)
        assert (code, out) == (2, "")
        code, report, err = run_machine(capsys, "relations", "--input", doc)
        assert (code, err) == (0, "")
        assert [r["degree"] for r in report["relations"]] == [1 - NINES, 2, 2]


def stage(p, n):
    return frozenset((p, k) for k in range(n + 1))


class TestExpectationFailure:
    """Exit code 3: the report is printed, then one line on stderr."""

    @pytest.fixture
    def oracle_edit(self, monkeypatch):
        """Replace ``batyrev_classify`` by one whose degree map ``edit`` has changed."""
        original = oracle.batyrev_classify

        def install(edit):
            def edited(f):
                degrees = dict(original(f).degrees)
                edit(degrees)
                return Classification(verdict=Verdict.from_degrees(degrees.values()), degrees=degrees)

            monkeypatch.setattr(oracle, "batyrev_classify", edited)

        return install

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_verify_fails_when_the_verdicts_disagree(self, capsys, oracle_edit, fmt):
        oracle_edit(lambda degrees: degrees.update({stage(1, 1): -1}))
        code, out, err = run(
            capsys, "check", "--verify", "--format", fmt,
            "--input", str(FIXTURES / "hirzebruch_a1.json"),
        )
        assert code == 3
        assert err == (
            "expectation failed: degrees disagree on {u[1,0], u[1,1]}: "
            "closed form 1, fan criterion -1\n"
        )
        if fmt == "machine":
            report = json.loads(out)
            assert report["verdict"] == "fano" and report["verified"] is False
            assert report["mismatch"] == {
                "collection": [[1, 0], [1, 1]], "closed_form": 1, "fan_criterion": -1
            }
        else:
            assert out.startswith("verdict: fano\n")
            assert out.endswith(
                "\nVERIFY FAILED: fan criterion says not_weak_fano; degrees disagree on "
                "{u[1,0], u[1,1]}: closed form 1, fan criterion -1\n"
            )

    def test_verify_fails_on_a_degree_the_verdict_hides(self, capsys, monkeypatch):
        # the zero-sum last-stage collection of degree 3 gets degree 4, by a coefficient -1 on
        # u[1,0], outside it: both routes still say fano, so only the comparison of degrees
        # catches it
        original = oracle.primitive_relation

        def raised(f, pc):
            pr = original(f, pc)
            return replace(pr, relation_rhs={(1, 0): -1}) if pc == stage(4, 2) else pr

        monkeypatch.setattr(oracle, "primitive_relation", raised)
        code, report, err = run_machine(
            capsys, "check", "--verify", "--input", str(FIXTURES / "fano_4stage.json")
        )
        assert code == 3
        assert report["verdict"] == "fano" and report["verified"] is False
        assert report["mismatch"] == {
            "collection": [[4, 0], [4, 1], [4, 2]], "closed_form": 3, "fan_criterion": 4
        }
        assert err == (
            "expectation failed: degrees disagree on {u[4,0], u[4,1], u[4,2]}: "
            "closed form 3, fan criterion 4\n"
        )

    def test_verify_names_the_first_missing_collection(self, capsys, oracle_edit):
        def drop(degrees):
            del degrees[stage(3, 2)], degrees[stage(2, 2)]

        oracle_edit(drop)
        code, report, err = run_machine(
            capsys, "check", "--verify", "--input", str(FIXTURES / "fano_4stage.json")
        )
        assert code == 3 and report["verified"] is False
        # the oracle lacks the collection, so its side is null
        assert report["mismatch"] == {
            "collection": [[2, 0], [2, 1], [2, 2]], "closed_form": 1, "fan_criterion": None
        }
        assert err == (
            "expectation failed: degrees disagree on {u[2,0], u[2,1], u[2,2]}: "
            "closed form 1, fan criterion None\n"
        )

    def test_expect_table1_fails_on_a_wrong_hit_set(self, capsys, monkeypatch):
        dropped = min(cli.FANO_THREE_STAGE_TRIPLES)
        monkeypatch.setattr(
            cli, "FANO_THREE_STAGE_TRIPLES", cli.FANO_THREE_STAGE_TRIPLES - {dropped}
        )
        code, report, err = run_machine(
            capsys, "enumerate", "--stages", "1,1,1", "--range=-1:1",
            "--mode", "fano", "--expect-table1",
        )
        assert code == 3
        assert len(report["hits"]) == 15 and list(dropped) in report["hits"]
        assert err == (
            "expectation failed: Fano hit set has 15 triples, expected the 14 known ones\n"
        )


class TestFan:
    def test_hirzebruch_rays(self, capsys):
        code, report, _ = run_machine(
            capsys, "fan", "--input", str(FIXTURES / "hirzebruch_a1.json")
        )
        assert code == 0
        rays = {tuple(tuple(x) for x in entry) for entry in
                ((tuple(lab), tuple(vec)) for lab, vec in report["rays"])}
        assert ((1, 0), (-1, 1)) in rays
        assert len(report["rays"]) == 4
        assert len(report["max_cones"]) == 4

    def test_product_of_lines(self, capsys, tmp_path):
        doc = tmp_path / "p1cubed.json"
        doc.write_text(json.dumps({
            "stages": [1, 1, 1],
            "coefficients": [[[0]], [[0], [0]]],
        }))
        code, report, _ = run_machine(capsys, "fan", "--input", str(doc))
        assert code == 0
        assert len(report["rays"]) == 6
        assert len(report["max_cones"]) == 8
        assert [r["degree"] for r in report["relations"]] == [2, 2, 2]

    def test_worked_example_degrees(self, capsys):
        code, report, _ = run_machine(
            capsys, "fan", "--input", str(FIXTURES / "fano_4stage.json")
        )
        assert code == 0
        assert [r["degree"] for r in report["relations"]] == [1, 1, 2, 3]

    def test_relations_alias(self, capsys):
        code, report, _ = run_machine(
            capsys, "relations", "--input", str(FIXTURES / "hirzebruch_a1.json")
        )
        assert code == 0
        assert "rays" not in report
        assert len(report["relations"]) == 2


class Digest(str):
    """The sha256 of a stdout too long to pin as text."""


#: Whole stdout of every (command, fixture, format); the four longest by sha256.
HUMAN_OUTPUT = {
    ("check", "fano_4stage.json", "human"): """\
verdict: fano
  p=1: sum of nu(b[1,q]) = 3  (Fano <= 3, weak Fano <= 4)
  p=2: sum of nu(b[2,q]) = 2  (Fano <= 2, weak Fano <= 3)
  p=3: sum of nu(b[3,q]) = 1  (Fano <= 2, weak Fano <= 3)
  b[1,1] = [-1, -1]
  b[1,2] = [0, 1]
  b[1,3] = [0, 1]
  b[2,1] = [0, -1]
  b[2,2] = [0, 0]
  b[3,1] = [0, 1]
""",
    ("check", "fano_4stage.json", "machine"): (
        '{"b_vectors": {"1,1": [-1, -1], "1,2": [0, 1], "1,3": [0, 1], "2,1": [0, -1], '
        '"2,2": [0, 0], "3,1": [0, 1]}, "command": "check", "nu_sums": [3, 2, 1], "stages": [3, '
        '2, 2, 2], "thresholds": [[3, 4], [2, 3], [2, 3]], "verdict": "fano"}\n'
    ),
    ("check --verify", "fano_4stage.json", "human"): """\
verdict: fano
  p=1: sum of nu(b[1,q]) = 3  (Fano <= 3, weak Fano <= 4)
  p=2: sum of nu(b[2,q]) = 2  (Fano <= 2, weak Fano <= 3)
  p=3: sum of nu(b[3,q]) = 1  (Fano <= 2, weak Fano <= 3)
  b[1,1] = [-1, -1]
  b[1,2] = [0, 1]
  b[1,3] = [0, 1]
  b[2,1] = [0, -1]
  b[2,2] = [0, 0]
  b[3,1] = [0, 1]
verify: fan criterion agrees
""",
    ("check --verify", "fano_4stage.json", "machine"): (
        '{"b_vectors": {"1,1": [-1, -1], "1,2": [0, 1], "1,3": [0, 1], "2,1": [0, -1], '
        '"2,2": [0, 0], "3,1": [0, 1]}, "command": "check", "nu_sums": [3, 2, 1], "stages": [3, '
        '2, 2, 2], "thresholds": [[3, 4], [2, 3], [2, 3]], "verdict": "fano", "verified": true}\n'
    ),
    ("fan", "fano_4stage.json", "human"):  # 8917 bytes
        Digest("212525138ef7b78a53d3e53c57d1fa824d9452e6263ce242430c8dd37a02c482"),
    ("fan", "fano_4stage.json", "machine"):  # 4294 bytes
        Digest("a81b6d8e6eed9a34b3c5f338523fbc6860f6ef04fa62e70113e2d629a4dd53bb"),
    ("relations", "fano_4stage.json", "human"): """\
primitive collections (4):
  u[1,0] + u[1,1] + u[1,2] + u[1,3] = 1*u[2,0] + 1*u[3,2] + 1*u[4,2]   (degree 1)
  u[2,0] + u[2,1] + u[2,2] = 1*u[3,0] + 1*u[3,1]   (degree 1)
  u[3,0] + u[3,1] + u[3,2] = 1*u[4,2]   (degree 2)
  u[4,0] + u[4,1] + u[4,2] = 0   (degree 3)
""",
    ("relations", "fano_4stage.json", "machine"): (
        '{"command": "fan", "relations": [{"collection": [[1, 0], [1, 1], [1, 2], [1, 3]], '
        '"degree": 1, "rhs": [[[2, 0], 1], [[3, 2], 1], [[4, 2], 1]]}, {"collection": [[2, 0], '
        '[2, 1], [2, 2]], "degree": 1, "rhs": [[[3, 0], 1], [[3, 1], 1]]}, {"collection": [[3, '
        '0], [3, 1], [3, 2]], "degree": 2, "rhs": [[[4, 2], 1]]}, {"collection": [[4, 0], [4, '
        '1], [4, 2]], "degree": 3, "rhs": []}], "stages": [3, 2, 2, 2]}\n'
    ),
    ("check", "hirzebruch_a1.json", "human"): """\
verdict: fano
  p=1: sum of nu(b[1,q]) = 1  (Fano <= 1, weak Fano <= 2)
  b[1,1] = [1]
""",
    ("check", "hirzebruch_a1.json", "machine"): (
        '{"b_vectors": {"1,1": [1]}, "command": "check", "nu_sums": [1], "stages": [1, 1], '
        '"thresholds": [[1, 2]], "verdict": "fano"}\n'
    ),
    ("check --verify", "hirzebruch_a1.json", "human"): """\
verdict: fano
  p=1: sum of nu(b[1,q]) = 1  (Fano <= 1, weak Fano <= 2)
  b[1,1] = [1]
verify: fan criterion agrees
""",
    ("check --verify", "hirzebruch_a1.json", "machine"): (
        '{"b_vectors": {"1,1": [1]}, "command": "check", "nu_sums": [1], "stages": [1, 1], '
        '"thresholds": [[1, 2]], "verdict": "fano", "verified": true}\n'
    ),
    ("fan", "hirzebruch_a1.json", "human"): """\
rays (4):
  u[1,0] = [-1, 1]
  u[1,1] = [1, 0]
  u[2,0] = [0, -1]
  u[2,1] = [0, 1]
maximal cones (4):
  {u[1,1], u[2,1]}
  {u[1,1], u[2,0]}
  {u[1,0], u[2,1]}
  {u[1,0], u[2,0]}
primitive collections (2):
  u[1,0] + u[1,1] = 1*u[2,1]   (degree 1)
  u[2,0] + u[2,1] = 0   (degree 2)
""",
    ("fan", "hirzebruch_a1.json", "machine"): (
        '{"command": "fan", "max_cones": [[1, 3], [1, 2], [0, 3], [0, 2]], "rays": [[[1, 0], '
        '[-1, 1]], [[1, 1], [1, 0]], [[2, 0], [0, -1]], [[2, 1], [0, 1]]], '
        '"relations": [{"collection": [[1, 0], [1, 1]], "degree": 1, "rhs": [[[2, 1], 1]]}, '
        '{"collection": [[2, 0], [2, 1]], "degree": 2, "rhs": []}], "stages": [1, 1]}\n'
    ),
    ("relations", "hirzebruch_a1.json", "human"): """\
primitive collections (2):
  u[1,0] + u[1,1] = 1*u[2,1]   (degree 1)
  u[2,0] + u[2,1] = 0   (degree 2)
""",
    ("relations", "hirzebruch_a1.json", "machine"): (
        '{"command": "fan", "relations": [{"collection": [[1, 0], [1, 1]], "degree": 1, '
        '"rhs": [[[2, 1], 1]]}, {"collection": [[2, 0], [2, 1]], "degree": 2, "rhs": []}], '
        '"stages": [1, 1]}\n'
    ),
    ("check", "not_weak_fano_3stage.json", "human"): """\
verdict: not_weak_fano
  p=1: sum of nu(b[1,q]) = 5  (Fano <= 3, weak Fano <= 4)
  p=2: sum of nu(b[2,q]) = 3  (Fano <= 3, weak Fano <= 4)
  b[1,1] = [0, -1, -1]
  b[1,2] = [-2, -1]
  b[2,1] = [-2, -1]
""",
    ("check", "not_weak_fano_3stage.json", "machine"): (
        '{"b_vectors": {"1,1": [0, -1, -1], "1,2": [-2, -1], "2,1": [-2, -1]}, '
        '"command": "check", "nu_sums": [5, 3], "stages": [3, 3, 2], "thresholds": [[3, 4], [3, '
        '4]], "verdict": "not_weak_fano"}\n'
    ),
    ("check --verify", "not_weak_fano_3stage.json", "human"): """\
verdict: not_weak_fano
  p=1: sum of nu(b[1,q]) = 5  (Fano <= 3, weak Fano <= 4)
  p=2: sum of nu(b[2,q]) = 3  (Fano <= 3, weak Fano <= 4)
  b[1,1] = [0, -1, -1]
  b[1,2] = [-2, -1]
  b[2,1] = [-2, -1]
verify: fan criterion agrees
""",
    ("check --verify", "not_weak_fano_3stage.json", "machine"): (
        '{"b_vectors": {"1,1": [0, -1, -1], "1,2": [-2, -1], "2,1": [-2, -1]}, '
        '"command": "check", "nu_sums": [5, 3], "stages": [3, 3, 2], "thresholds": [[3, 4], [3, '
        '4]], "verdict": "not_weak_fano", "verified": true}\n'
    ),
    ("fan", "not_weak_fano_3stage.json", "human"):  # 3893 bytes
        Digest("5fd25386ce1bb3e0db6ed443af62cd48fa7bf1bed33247d33152251289f9f863"),
    ("fan", "not_weak_fano_3stage.json", "machine"):  # 2059 bytes
        Digest("587c37b2cfb34f9a8341927629850e63fb8d10bfcce89d4bb88857aa3f9ef870"),
    ("relations", "not_weak_fano_3stage.json", "human"): """\
primitive collections (3):
  u[1,0] + u[1,1] + u[1,2] + u[1,3] = 1*u[2,0] + 1*u[2,1] + 2*u[3,0] + 1*u[3,2]   (degree -1)
  u[2,0] + u[2,1] + u[2,2] + u[2,3] = 2*u[3,0] + 1*u[3,2]   (degree 1)
  u[3,0] + u[3,1] + u[3,2] = 0   (degree 3)
""",
    ("relations", "not_weak_fano_3stage.json", "machine"): (
        '{"command": "fan", "relations": [{"collection": [[1, 0], [1, 1], [1, 2], [1, 3]], '
        '"degree": -1, "rhs": [[[2, 0], 1], [[2, 1], 1], [[3, 0], 2], [[3, 2], 1]]}, '
        '{"collection": [[2, 0], [2, 1], [2, 2], [2, 3]], "degree": 1, "rhs": [[[3, 0], 2], [[3, '
        '2], 1]]}, {"collection": [[3, 0], [3, 1], [3, 2]], "degree": 3, "rhs": []}], '
        '"stages": [3, 3, 2]}\n'
    ),
    ("check", "projective_plane.json", "human"): """\
verdict: fano
""",
    ("check", "projective_plane.json", "machine"): (
        '{"b_vectors": {}, "command": "check", "nu_sums": [], "stages": [2], "thresholds": [], '
        '"verdict": "fano"}\n'
    ),
    ("check --verify", "projective_plane.json", "human"): """\
verdict: fano
verify: fan criterion agrees
""",
    ("check --verify", "projective_plane.json", "machine"): (
        '{"b_vectors": {}, "command": "check", "nu_sums": [], "stages": [2], "thresholds": [], '
        '"verdict": "fano", "verified": true}\n'
    ),
    ("fan", "projective_plane.json", "human"): """\
rays (3):
  u[1,0] = [-1, -1]
  u[1,1] = [1, 0]
  u[1,2] = [0, 1]
maximal cones (3):
  {u[1,1], u[1,2]}
  {u[1,0], u[1,2]}
  {u[1,0], u[1,1]}
primitive collections (1):
  u[1,0] + u[1,1] + u[1,2] = 0   (degree 3)
""",
    ("fan", "projective_plane.json", "machine"): (
        '{"command": "fan", "max_cones": [[1, 2], [0, 2], [0, 1]], "rays": [[[1, 0], [-1, -1]], '
        '[[1, 1], [1, 0]], [[1, 2], [0, 1]]], "relations": [{"collection": [[1, 0], [1, 1], [1, '
        '2]], "degree": 3, "rhs": []}], "stages": [2]}\n'
    ),
    ("relations", "projective_plane.json", "human"): """\
primitive collections (1):
  u[1,0] + u[1,1] + u[1,2] = 0   (degree 3)
""",
    ("relations", "projective_plane.json", "machine"): (
        '{"command": "fan", "relations": [{"collection": [[1, 0], [1, 1], [1, 2]], "degree": 3, '
        '"rhs": []}], "stages": [2]}\n'
    ),
}


class TestHumanOutput:
    @pytest.mark.parametrize("command, fixture, fmt", sorted(HUMAN_OUTPUT))
    def test_whole_stdout(self, capsys, command, fixture, fmt):
        code, out, err = run(
            capsys, *command.split(), "--input", str(FIXTURES / fixture), "--format", fmt
        )
        assert (code, err) == (0, "")
        expected = HUMAN_OUTPUT[command, fixture, fmt]
        if isinstance(expected, Digest):
            out = hashlib.sha256(out.encode()).hexdigest()
        assert out == expected

    @pytest.mark.parametrize("command", ["fan", "relations"])
    def test_machine_output_formats_no_lines(self, capsys, monkeypatch, command):
        def refuse(lab):
            raise AssertionError(f"label {lab} formatted for machine output")

        monkeypatch.setattr(cli, "_label", refuse)
        code, report, _ = run_machine(
            capsys, command, "--input", str(FIXTURES / "fano_4stage.json")
        )
        assert code == 0
        assert len(report["relations"]) == 4

    @pytest.mark.parametrize("argv", [
        ["check", "--input", str(FIXTURES / "fano_4stage.json")],
        ["check", "--verify", "--input", str(FIXTURES / "fano_4stage.json")],
        ["enumerate", "--stages", "1,1,1", "--range=-1:1", "--mode", "weak_fano"],
        ["chary-compare", "--r", "3", "--range=-1:1"],
    ], ids=["check", "check-verify", "enumerate", "chary-compare"])
    def test_machine_output_formats_no_human_lines(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("a human line formatted for machine output")
            yield

        for name in ("_check_lines", "_enumerate_lines", "_chary_lines"):
            monkeypatch.setattr(cli, name, refuse)
        code, report, _ = run_machine(capsys, *argv)
        assert code == 0 and report["command"] == argv[0].replace("-", "_")


class TestEnumerate:
    def test_expect_table1(self, capsys):
        code, report, _ = run_machine(
            capsys, "enumerate", "--stages", "1,1,1", "--range=-1:1",
            "--mode", "fano", "--expect-table1",
        )
        assert code == 0
        assert len(report["hits"]) == 15

    def test_expect_table1_wrong_stages(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("a refused table check reached the sweep")

        monkeypatch.setattr("bottfano.enumeration.sweep", fail)
        for stages, mode in [("1,1", "fano"), ("1,1,1", "census")]:
            code, out, err = run(
                capsys, "enumerate", "--stages", stages, "--range=-1:1",
                "--mode", mode, "--expect-table1", "--format", "machine",
            )
            assert code == 1
            assert out == ""
            assert err == "error: --expect-table1 requires --stages 1,1,1 --mode fano\n"

    def test_census(self, capsys):
        code, report, _ = run_machine(
            capsys, "enumerate", "--stages", "1,1", "--range=-2:2", "--mode", "census"
        )
        assert code == 0
        assert report["counts"] == {
            "fano": 3, "weak_fano_not_fano": 2, "not_weak_fano": 0
        }

    @pytest.mark.parametrize("mode, hits", [("fano", [-1, 0, 1]), ("weak_fano", [-2, -1, 0, 1, 2])])
    def test_human_hit_listing(self, capsys, mode, hits):
        code, out, err = run(capsys, "enumerate", "--stages", "1,1", "--range=-2:2", "--mode", mode)
        assert (code, err) == (0, "")
        assert out == (
            "candidates: 5\n"
            "counts: fano=3, not_weak_fano=0, weak_fano_not_fano=2\n"
            f"hits ({len(hits)}), slots (j,l,k) = [(2, 1, 1)]:\n"
            + "".join(f"  [{a}]\n" for a in hits)
        )

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "enumerate", "--stages", "2,2,2", "--range=-2:2",
            "--cap", "10",
        )
        assert code == 2
        assert err == "error: 15625 candidates exceed cap 10; raise --cap to proceed\n"

    def test_cap_below_one_refused(self, capsys):
        for cmd in (["enumerate", "--stages", "1,2"], ["chary-compare", "--r", "3"]):
            code, out, err = run(capsys, *cmd, "--range=-1:1", "--cap", "-5")
            assert code == 2
            assert out == ""
            assert err == "error: cap must be a positive integer, got -5\n"

    def test_zero_stage_is_validation_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--stages", "0,1", "--range=-1:1")
        assert code == 2
        assert out == ""
        assert err == "error: stage dimensions must be positive integers, got (0, 1)\n"

    def test_cap_message_on_an_unprintable_count(self, capsys):
        # 3^9999 has 4,771 digits, past the int-to-str limit
        code, _, err = run(capsys, "enumerate", "--stages", "9999,9999", "--range=-1:1")
        assert code == 2
        assert err == "error: 3^9999 candidates exceed cap 1000000; raise --cap to proceed\n"


class TestCharyCompare:
    def test_r3(self, capsys):
        code, report, _ = run_machine(capsys, "chary-compare", "--r", "3", "--range=-1:1")
        assert code == 0
        assert report["chary_not_fano"] == []
        assert [1, 1, 1] in report["fano_not_chary"]

    def test_cap_message_on_an_unprintable_count(self, capsys):
        # r = 200 has 19,900 slots; the count is refused without being computed
        code, _, err = run(capsys, "chary-compare", "--r", "200", "--range=-1:1")
        assert code == 2
        assert err == "error: 3^19900 candidates exceed cap 1000000; raise --cap to proceed\n"

    def test_slot_count_refused_before_any_work(self, capsys, monkeypatch):
        # one candidate over 0:0, but r = 100000 has 4,999,950,000 slots: past the fixed
        # limit, so raising --cap would not help and is not advised
        def fail(*args, **kwargs):
            raise AssertionError("a refused sweep reached the engine")

        monkeypatch.setattr("bottfano.enumeration._rank", fail)
        monkeypatch.setattr("bottfano.enumeration.coefficient_slots", fail)
        code, out, err = run(capsys, "chary-compare", "--r", "100000", "--range=0:0")
        assert code == 2
        assert out == ""
        assert err == "error: 4999950000 coefficient slots exceed limit 100000\n"

    def test_slot_work_limit_refuses_under_the_cap_before_any_work(self, capsys, monkeypatch):
        # r = 1414 has 998,991 slots, under the default cap of 10^6
        def fail(*args, **kwargs):
            raise AssertionError("a refused sweep reached the engine")

        monkeypatch.setattr("bottfano.enumeration.SweepSpec", fail)
        monkeypatch.setattr("bottfano.enumeration._rank", fail)
        monkeypatch.setattr("bottfano.enumeration.coefficient_slots", fail)
        code, out, err = run(capsys, "chary-compare", "--r", "1414", "--range=0:0")
        assert code == 2
        assert out == ""
        assert err == "error: 998991 coefficient slots exceed limit 100000\n"

    def test_huge_r_refused_before_the_stages_are_built(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("a refused comparison built its stages")

        # SweepSpec is what builds the stage tuple (1,) * r
        monkeypatch.setattr("bottfano.enumeration.SweepSpec", fail)
        monkeypatch.setattr("bottfano.enumeration.coefficient_slots", fail)
        code, out, err = run(capsys, "chary-compare", "--r", "10000000", "--range=0:0")
        assert code == 2
        assert out == ""
        assert err == "error: 49999995000000 coefficient slots exceed limit 100000\n"


@pytest.fixture
def lowest_int_limit():
    """The lowest int-to-str limit, 640 digits, until the test ends."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


class TestLowestIntLimit:
    """Refusals name a number that str cannot print in a short form that is true of it."""

    LINES = ",".join(["1"] * 55)

    @pytest.mark.parametrize("argv", [
        # 1,485 slots over -1:1: 3^1485 has 709 digits
        ["chary-compare", "--r", "55"],
        ["enumerate", "--stages", LINES],
    ])
    def test_count_shown_as_a_power(self, capsys, lowest_int_limit, argv):
        assert run(capsys, *argv, "--range=-1:1") == (
            2, "", "error: 3^1485 candidates exceed cap 1000000; raise --cap to proceed\n"
        )

    def test_slot_count_shown_as_a_bound(self, capsys, lowest_int_limit):
        # 2 * (10^640 - 1) + 1 slots, 641 digits
        stages = "1,1," + "9" * 640
        assert run(capsys, "enumerate", "--stages", stages, "--range=-1:1") == (
            2, "", "error: over 10^639 coefficient slots exceed limit 100000\n"
        )

    @pytest.mark.parametrize("command", [["fan"], ["relations"], ["check", "--verify"]])
    def test_cone_count_shown_as_a_bound(self, capsys, monkeypatch, lowest_int_limit, command):
        # one stage of 10^640 - 1 lines has 10^640 cones, 641 digits
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"stages": [' + "9" * 640 + "]}"))
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, "")
        assert err == f"error: fan refused: over 10^639 cones exceed limit {FAN_WORK_LIMIT} on cones*dim^2\n"


HIRZEBRUCH = str(FIXTURES / "hirzebruch_a1.json")
ROUTE_CASES = [
    [], ["nosuch"], ["nosuch", "--input", HIRZEBRUCH], ["-h"], ["--help"], ["-h", "check"],
    ["check", "-h"], ["check", "--input", HIRZEBRUCH, "-h"], ["--", "check", "--input", HIRZEBRUCH],
    ["check", "--input", HIRZEBRUCH], ["check", "--input", HIRZEBRUCH, "--verify"],
    ["check", "--verify", "--input", HIRZEBRUCH, "--format", "machine"],
    ["check", "--input=" + HIRZEBRUCH, "--format=human"], ["check", "--inp", HIRZEBRUCH, "--verif"],
    ["check", "--input", HIRZEBRUCH, "--format", "xml"], ["check", "--input", HIRZEBRUCH, "--format"],
    ["check", "--input", HIRZEBRUCH, "extra"], ["check", "extra", "--format", "xml"],
    ["check", "--input", HIRZEBRUCH, "-x"], ["check", "--input", HIRZEBRUCH, "--"],
    ["check", "--input", HIRZEBRUCH, "--", "extra"], ["check", "--", "--input", HIRZEBRUCH],
    ["fan", "--input", HIRZEBRUCH], ["fan", "--input", HIRZEBRUCH, "--relations-only"],
    ["fan", "--input", HIRZEBRUCH, "--format", "machine"], ["fan", "-h"],
    ["relations", "--input", HIRZEBRUCH], ["relations", "--input", HIRZEBRUCH, "--format", "machine"],
    ["relations", "--input", HIRZEBRUCH, "--relations-only"],
    ["enumerate", "--stages", "1,1,1", "--range=-1:1", "--mode", "fano", "--expect-table1"],
    ["enumerate", "--stages", "1,1", "--range=-1:1", "--cap", "9", "--format", "machine"],
    ["enumerate", "--stages", "1,1", "--range=-1:1", "--cap", "8"],
    ["enumerate", "--stages", "1,1", "--range", "-1:1"], ["enumerate", "--range=-1:1"],
    ["enumerate", "--stages", "1,1", "--range=0:1", "--mode", "all"], ["enumerate", "-h"],
    ["chary-compare", "--r", "3", "--range=-1:1"],
    ["chary-compare", "--r", "3", "--range=-1:1", "--cap", "27", "--format", "machine"],
    ["chary-compare", "--r", "x", "--range=0:0"], ["chary-compare", "--range=0:0"],
    ["chary-compare", "-h"],
]


@pytest.mark.parametrize("argv", ROUTE_CASES, ids=map(" ".join, ROUTE_CASES))
def test_command_parser_route_agrees_with_the_top_level_parser(capsys, monkeypatch, argv):
    # argparse's handling of "--" and of abbreviations has changed between Python versions;
    # whatever it does, a command's own parser must do what the top-level parser does
    top = cli.build_parsers()[0]

    def parsed(parse):
        try:
            result = parse(list(argv))
        except SystemExit as e:
            result = e.code
        out = capsys.readouterr()
        return result, out.out, out.err

    assert parsed(cli.parse_args) == parsed(top.parse_args)
    routed = run(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["bottfano", *argv])
    assert (main(), *capsys.readouterr()) == routed
    # no command's parser: every call goes to the top-level parser
    monkeypatch.setattr(cli, "build_parsers", lambda: (top, {}))
    assert run(capsys, *argv) == routed
