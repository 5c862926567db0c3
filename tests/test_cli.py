import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import operad_forge
from operad_forge import cli, freeness, prelie
from operad_forge.cli import main
from operad_forge.set_operads import KINDS, SET_COMPOSE
from operad_forge.trees import tree_from_json

from conftest import standard_trees
from test_set_operads import clamp_compose


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
        assert out.splitlines() == [
            "1(2,3)", "2(1(3))", "3(1(2))", "1(2(3))", "2(1,3)",
            "3(2(1))", "1(3(2))", "2(3(1))", "3(1,2)",
        ]

    def test_order_at_arity_five(self, capsys):
        code, out = run(capsys, "enumerate", "-n", "5")
        assert code == 0 and len(out.splitlines()) == 625
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "02b9ca2965625c9c867b1d4de1bf620f165401d33552675a9189101e6cef1d57"

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

    def test_out_of_range_position_for_nap(self, capsys):
        code = main(["compose", "--operad", "nap", "-i", "9", "2(1,3)", "2(1)"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: position 9 out of range for arity 3\n"


class TestOtherCommands:
    def test_degree(self, capsys):
        code, out = run(capsys, "degree", "3(1,2(4))")
        assert code == 0 and out.strip() == "3(1,2(4)) 5"

    def test_degree_without_a_tree(self, capsys):
        code = main(["degree"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: give a tree argument or --input FILE\n"

    def test_empty_tree_argument_is_parsed(self, capsys):
        code = main(["degree", ""])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "error: empty input\n")

    @pytest.mark.parametrize("command", ["degree", "factorize"])
    def test_tree_argument_and_input_together(self, capsys, tmp_path, command):
        path = tmp_path / "trees.txt"
        path.write_text("2(1)\n")
        code = main([command, "1(2)", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: give a tree argument or --input FILE, not both\n"

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

    def test_factorize_deep_chain(self, capsys, tmp_path):
        chain = "(".join(str(v) for v in range(1200, 0, -1)) + ")" * 1199
        path = tmp_path / "chain.txt"
        path.write_text(chain + "\n")
        code, out = run(capsys, "factorize", "--input", str(path))
        assert code == 0
        assert out == "2(1)[" * 1198 + "2(1)" + ", _]" * 1198 + "\n"

    @pytest.mark.parametrize("command", ["degree", "factorize"])
    def test_input_that_is_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe1\x00(\x002\x00)\x00\n")
        code = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", ["degree", "factorize"])
    def test_label_too_long_for_int(self, capsys, tmp_path, command):
        path = tmp_path / "long.txt"
        path.write_text("2(1," + "3" * 4400 + ")\n")
        for argv in ([command, "1" * 5000], [command, "--input", str(path)]):
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert len(captured.err) < 200  # the long label is clipped

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

    def test_out_of_memory_is_one_error_line(self, capsys, monkeypatch):
        def exhausted(par):
            raise MemoryError

        freeness.indecomposables.cache_clear()  # so that the search runs
        monkeypatch.setattr(freeness, "_free_generators", exhausted)
        code = main(["indecomposables", "-n", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err.encode()) <= 200

    def test_hilbert(self, capsys):
        code, out = run(capsys, "hilbert", "--order", "9")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "2:2"
        assert lines[7] == "9:13759430"
        assert lines[8].startswith("2x^2 + x^3 + 14x^4")

    def test_hilbert_at_order_100(self, capsys):
        code, out = run(capsys, "hilbert", "--order", "100")
        assert (code, sha256(out)) == (
            0, "5af078203508ead52942fc1a6646b88de59f7c55916a901b0f4b32ce3bb97bc7"
        )


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

    @pytest.mark.parametrize(
        "argv",
        [
            "minmax --max-arity 1", "minmax --max-arity 0", "minmax --max-arity -2",
            "collisions --operad min -n 1", "collisions --operad nap -n 0",
            "collisions --operad min -n -2",
        ],
    )
    def test_arity_below_two_is_usage_error(self, capsys, argv):
        code = main(["verify", *argv.split()])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("kind", ["max", "pl"])
    def test_an_axiom_table_beyond_memory_is_refused_at_once(self, capsys, kind):
        # arity 7 needs about 1.1e11 compositions, far beyond the memory of any host
        start = time.perf_counter()
        code = main(["verify", "axioms", "--operad", kind, "--max-arity", "7"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: max_arity 7 needs a table of at least ")
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 200
        assert elapsed < 1

    @pytest.mark.parametrize(
        "argv",
        [
            "verify freeness -n 12",
            "verify collisions --operad min -n 12",
            "compose --operad pl -i 1 "
            "1(2,3,4,5,6,7,8,9,10,11,12,13) 1(2,3,4,5,6,7,8,9,10,11,12,13)",
            "indecomposables -n 14",
            "indecomposables -n 14 --count",
            "indecomposables -n 1000 --count",
        ],
    )
    def test_a_word_list_or_sum_beyond_memory_is_refused_at_once(self, capsys, argv):
        # about 7.7e11 words up to arity 12, 13^12 terms and 3.0e14 generators of arity 14:
        # beyond the memory of any host; a far larger arity is refused as fast and as briefly
        start = time.perf_counter()
        code = main(argv.split())
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ") and "GB of memory here" in captured.err
        assert captured.err.count("\n") == 1 and len(captured.err.encode()) <= 200
        assert elapsed < 1

    def test_usage_error(self, capsys):
        assert main(["verify", "axioms", "--operad", "bogus"]) == 2
        assert main(["nonsense"]) == 2


# exit code and SHA-256 of stdout for every example of README's CLI block,
# pinned so that a change to the CLI's code keeps its output byte for byte
README_STDOUT = {
    "operad-forge enumerate -n 3": (
        0, "ddb15d088a20ee395bfcb4c4487fc021178437670b63b56a75094e2404c8620e"),
    'operad-forge degree "3(1,2(4))"': (
        0, "d2354aa82f259eb30ebcc4515fc2d1f7eead0954f417f1a9c754222cb20dbc8a"),
    'operad-forge compose --operad pl -i 2 "2(1,3)" "2(1)"': (
        0, "0fb40ed4e870894c6af1832e8ed0446a89c54d7733aec7123895ed8a8e1147fd"),
    'operad-forge compose --operad max -i 3 "4(3(1,2,5),6)" "3(1(2))"': (
        0, "be73a21b49f4723df676042c242b156f14f6b7315b290a0e62ec43b5263b4dc1"),
    'operad-forge minmax -i 2 "2(1,3)" "2(1)"': (
        0, "50839c23087d2ded146862e4303c755f80b0a3cdaf5d5e4d55c389f41bb72c49"),
    'operad-forge factorize "1(2(3))"': (
        0, "1c633d4663ba5112cda7fb7d8bc74832b8eba0d3840ee5c2b6f1cffd84115402"),
    "operad-forge indecomposables -n 4 --count": (
        0, "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
    "operad-forge hilbert --order 9": (
        0, "dfb5facc1bfd6218f4853aa64163f7b481c6b3d50e1829236e13018cf2cb399d"),
    "operad-forge verify axioms --operad max --max-arity 3": (
        0, "b0affb4ac4e77c4bdca284174c8fa5d48b82089e9096f452cdd76ea194c1d476"),
    "operad-forge verify freeness -n 4": (
        0, "dbcbbd248b6c535a9b726fa4587cef0047849177325467d87a90558f03383c4e"),
    "operad-forge verify minmax --max-arity 3": (
        0, "8717a9af754c6f647da785f7029ecd5f2a1c9a1efaa5cd32d6a48f0d7cd8b658"),
    "operad-forge verify prelie": (
        0, "2e314bbccaed9c13b0170bf0619a007a82386d120cfbd2c37865313d73be58ee"),
    "operad-forge verify collisions --operad nap -n 3": (
        0, "cb6e00aae0b9d43f2eb96ba02a8c19951dd74dbed73d5bbfe2ad794621cdd5ea"),
}

# each verify check made to fail: the command, the fault put in, and the
# SHA-256 of stdout, pinned like README_STDOUT; every one exits 1
FAIL_STDOUT = {
    "axioms": (
        "verify axioms --operad max --max-arity 3",
        lambda mp: mp.setitem(SET_COMPOSE, "max", clamp_compose),
        "2e88d275ff6cab1057a6d5d207ecb46e39bfb53755785fd9f2a652011c14735d",
    ),
    "minmax": (
        "verify minmax --max-arity 3",
        lambda mp: mp.setattr(prelie, "min_term", prelie.max_term),
        "54c0228bd6af689c7a14cdbaeeeabe00fc2a5ea40ef2649b9131404afc6a88ab",
    ),
    "freeness": (
        "verify freeness -n 4",
        lambda mp: mp.setattr(freeness, "evaluate", lambda word, *args, **kw: word.node),
        "132233cc02fa3241c0da0ca4bdb1c46b46e89e556cb800ecf35ca76a595d9ced",
    ),
    "prelie": (
        "verify prelie",
        lambda mp: mp.setattr(cli, "check_pre_lie_relation", lambda: False),
        "0031332315d7844d1f65f1eddc73b57d69b2225701fbf20a161d4fbaa05428c3",
    ),
    "collisions": (
        "verify collisions --operad min -n 2",
        lambda mp: None,
        "68fee77f4b56dce88d62888c76ed9c1061d55e9dea5691b25b962fb183385edb",
    ),
}


def readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    return [
        line.split("#")[0].strip()
        for line in block.splitlines()
        if line.startswith("operad-forge ")
    ]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_readme_lists_the_pinned_commands():
    assert readme_commands() == list(README_STDOUT)


@pytest.mark.parametrize("command", list(README_STDOUT))
def test_readme_command_stdout(capsys, command):
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert (code, sha256(captured.out)) == README_STDOUT[command]
    assert captured.err == ""


def test_module_entry_point(capsys):
    # `python -m operad_forge.cli` runs main and exits with its return code
    src = str(Path(operad_forge.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def module_run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "operad_forge.cli", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )

    ok = module_run("verify", "prelie")
    assert (ok.returncode, ok.stdout) == run(capsys, "verify", "prelie")
    assert module_run("verify", "freeness", "-n", "1").returncode == 2


@pytest.mark.parametrize("check", list(FAIL_STDOUT))
def test_failed_verification_stdout(capsys, monkeypatch, check):
    command, put_fault, digest = FAIL_STDOUT[check]
    put_fault(monkeypatch)
    code, out = run(capsys, *command.split())
    assert (code, sha256(out)) == (1, digest)


def two_workers(monkeypatch):
    monkeypatch.setenv("OPERAD_FORGE_THREADS", "2")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    freeness.indecomposables.cache_clear()  # so that the generators are swept again


@pytest.mark.parametrize("command", list(README_STDOUT))
def test_readme_command_stdout_on_two_workers(capsys, monkeypatch, command):
    two_workers(monkeypatch)
    code = main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert (code, sha256(captured.out)) == README_STDOUT[command]
    assert captured.err == ""


@pytest.mark.parametrize("check", list(FAIL_STDOUT))
def test_failed_verification_stdout_on_two_workers(capsys, monkeypatch, check):
    command, put_fault, digest = FAIL_STDOUT[check]
    two_workers(monkeypatch)
    put_fault(monkeypatch)
    code, out = run(capsys, *command.split())
    assert (code, sha256(out)) == (1, digest)


# Tree texts for the exit-code contract: canonical trees, short text from the
# tree alphabet with a few non-ASCII and control characters, and long text
# that is wide in UTF-8; none starts with "-", which would read as an option
tree_texts = st.one_of(
    standard_trees(max_n=5).map(str),
    st.text("0123456789(), é€𝟙٣\n\t", max_size=20),
    st.text("€𝟙(", min_size=60, max_size=100),
)


@st.composite
def cli_argv(draw):
    """An argv that the CLI grammar accepts, with small sizes."""
    tree, other = draw(tree_texts), draw(tree_texts)
    n, i, order, max_arity = (
        str(draw(st.integers(lo, hi))) for lo, hi in [(-2, 5), (-1, 7), (-1, 40), (-1, 3)]
    )
    kind, flag = draw(st.sampled_from(KINDS)), draw(st.booleans())
    return draw(st.sampled_from([
        ["enumerate", "-n", n, *["--json"] * flag],
        ["degree", tree],
        ["factorize", tree],
        ["compose", "--operad", kind, "-i", i, tree, other, *["--json"] * flag],
        ["minmax", "-i", i, tree, other],
        ["indecomposables", "-n", n, *["--count"] * flag],
        ["hilbert", "--order", order],
        ["verify", "axioms", "--operad", kind, "--max-arity", max_arity],
        ["verify", "freeness", "-n", n],
        ["verify", "minmax", "--max-arity", max_arity],
        ["verify", "prelie"],
        ["verify", "collisions", "--operad", draw(st.sampled_from(["min", "nap"])), "-n", n],
    ]))


@settings(max_examples=150, deadline=None)
@given(cli_argv())
def test_exit_contract(argv):
    """Exit 0, 1 or 2; stderr empty on 0 and 1, one short `error: ` line on 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) <= 200
    else:
        assert err == ""
