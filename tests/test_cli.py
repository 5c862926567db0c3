import json

import pytest

from operad_forge.cli import main
from operad_forge.prelie import parse_tree_sum
from operad_forge.trees import parse_tree, tree_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestEnumerate:
    def test_counts_and_determinism(self, capsys):
        code, out = run(capsys, "enumerate", "-n", "3")
        code2, out2 = run(capsys, "enumerate", "-n", "3")
        assert code == code2 == 0
        assert out == out2
        assert len(out.splitlines()) == 9

    def test_json_roundtrip(self, capsys):
        code, out = run(capsys, "enumerate", "-n", "3", "--json")
        assert code == 0
        trees = {tree_from_json(line) for line in out.splitlines()}
        assert len(trees) == 9


class TestCompose:
    def test_pl_golden(self, capsys):
        code, out = run(capsys, "compose", "--operad", "pl", "-i", "2", "2(1,3)", "2(1)")
        assert code == 0
        assert out.strip() == "1*3(1,2(4)) + 1*3(1,2,4) + 1*3(2(1),4) + 1*3(2(1,4))"
        assert len(parse_tree_sum(out.strip())) == 4

    def test_pl_json(self, capsys):
        code, out = run(
            capsys, "compose", "--operad", "pl", "-i", "2", "2(1,3)", "2(1)", "--json"
        )
        data = json.loads(out)
        assert data["arity"] == 4
        assert {t["tree"] for t in data["terms"]} >= {"3(2(1,4))"}

    def test_set_operads(self, capsys):
        code, out = run(capsys, "compose", "--operad", "max", "-i", "3", "4(3(1,2,5),6)", "3(1(2))")
        assert code == 0 and out.strip() == "6(5(1,2,3(4,7)),8)"
        code, out = run(capsys, "compose", "--operad", "nap", "-i", "1", "1(2)", "2(1)")
        assert code == 0 and out.strip() == "2(1,3)"

    def test_malformed_tree_is_usage_error(self, capsys):
        code, _ = run(capsys, "compose", "--operad", "pl", "-i", "2", "2(1,", "2(1)")
        assert code == 2

    def test_out_of_range_position(self, capsys):
        code, _ = run(capsys, "compose", "--operad", "pl", "-i", "9", "2(1,3)", "2(1)")
        assert code == 2


class TestOtherCommands:
    def test_degree(self, capsys):
        code, out = run(capsys, "degree", "3(1,2(4))")
        assert code == 0 and out.strip() == "3(1,2(4)) 5"

    def test_degree_batch(self, capsys, tmp_path):
        path = tmp_path / "trees.txt"
        path.write_text("1(2)\n2(1,3)\n")
        code, out = run(capsys, "degree", "--input", str(path))
        assert code == 0
        assert out.splitlines() == ["1(2) 1", "2(1,3) 2"]

    def test_degree_of_deep_chain(self, capsys, tmp_path):
        chain = "(".join(str(v) for v in range(1, 1201)) + ")" * 1199
        path = tmp_path / "chain.txt"
        path.write_text(chain + "\n")
        code, out = run(capsys, "degree", "--input", str(path))
        assert code == 0 and out == f"{chain} 1199\n"

    def test_minmax(self, capsys):
        code, out = run(capsys, "minmax", "-i", "2", "2(1,3)", "2(1)")
        assert code == 0
        assert out.splitlines() == ["min 3(2(1),4)", "max 3(1,2(4))", "bounds 3 5"]

    def test_factorize(self, capsys):
        code, out = run(capsys, "factorize", "1(2(3))")
        assert code == 0 and out.strip() == "1(2)[_, 1(2)]"

    def test_indecomposables(self, capsys):
        code, out = run(capsys, "indecomposables", "-n", "3")
        assert code == 0 and out.splitlines() == ["2(1,3)"]
        code, out = run(capsys, "indecomposables", "-n", "4", "--count")
        assert code == 0 and out.strip() == "14"

    def test_hilbert(self, capsys):
        code, out = run(capsys, "hilbert", "--order", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2:2"
        assert lines[7] == "9:13759430"
        assert lines[8].startswith("2x^2 + x^3 + 14x^4")


class TestVerify:
    @pytest.mark.parametrize("kind", ["max", "min", "nap"])
    def test_axioms(self, capsys, kind):
        code, out = run(capsys, "verify", "axioms", "--operad", kind, "--max-arity", "3")
        assert code == 0 and out.startswith("OK")

    def test_freeness(self, capsys):
        code, out = run(capsys, "verify", "freeness", "-n", "3")
        assert code == 0
        assert out.strip() == "OK 9 trees, 9 constructions"

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_freeness_rejects_arity_below_two(self, capsys, n):
        code = main(["verify", "freeness", "-n", n])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_minmax(self, capsys):
        code, out = run(capsys, "verify", "minmax", "--max-arity", "3")
        assert code == 0 and out.startswith("OK")

    def test_prelie(self, capsys):
        code, out = run(capsys, "verify", "prelie")
        assert code == 0
        assert "associator 1*1(2,3)" in out

    @pytest.mark.parametrize("kind", ["min", "nap"])
    def test_collisions(self, capsys, kind):
        code, out = run(capsys, "verify", "collisions", "--operad", kind, "-n", "3")
        assert code == 0 and out.startswith("collision")

    def test_usage_error(self, capsys):
        assert main(["verify", "axioms", "--operad", "bogus"]) == 2
        assert main(["nonsense"]) == 2


def test_threads_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "not-a-number")
    assert main(["degree", "1(2)"]) == 2
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "4")
    assert main(["degree", "1(2)"]) == 0
    capsys.readouterr()
