import json

import pytest

from congestds import cli
from congestds.cli import main
from congestds.errors import (
    DomainError,
    InvariantViolation,
    PrecisionError,
    PreconditionError,
    StructuralError,
)
from congestds.graph import format_graph, parse_graph
from congestds.generators import petersen


@pytest.fixture
def petersen_file(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(format_graph(petersen()))
    return str(path)


class TestPipelineCommands:
    @pytest.mark.parametrize("command", ["mds-n", "mds-delta"])
    def test_mds_json(self, command, petersen_file, capsys):
        code = main([command, "--input", petersen_file, "--report", "json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["final"]["valid"] is True
        assert obj["final"]["nodes"]

    def test_cds_text(self, petersen_file, capsys):
        code = main(["cds", "--input", petersen_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "connected: True" in out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["mds-n", "--input", str(tmp_path / "nope.txt")])
        assert code == 3

    def test_input_is_a_directory(self, tmp_path, capsys):
        assert main(["mds-n", "--input", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_input_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("n 2\n0 1 # caf\xe9\n".encode("latin-1"))
        assert main(["mds-n", "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err
        assert "Traceback" not in err

    def test_bad_epsilon(self, petersen_file, capsys):
        code = main(["mds-n", "--input", petersen_file, "--epsilon", "3"])
        assert code == 3

    def test_epsilon_parsed_exactly(self, petersen_file, capsys):
        args = ["mds-n", "--input", petersen_file, "--report", "json"]
        assert main(args + ["--epsilon", "0.1"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["eps"] == "1/10"
        assert main(args + ["--epsilon", "1/3"]) == 0
        assert json.loads(capsys.readouterr().out)["params"]["eps"] == "1/3"

    @pytest.mark.parametrize("text", ["abc", "1/0"])
    def test_epsilon_not_a_number(self, text, petersen_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["mds-n", "--input", petersen_file, "--epsilon", text])
        assert exc.value.code != 0

    @pytest.mark.parametrize(
        "error, code",
        [
            (InvariantViolation, 2),
            (StructuralError, 2),
            (PrecisionError, 3),
            (PreconditionError, 3),
            (DomainError, 3),
        ],
    )
    def test_library_error_exit_code(
        self, error, code, petersen_file, monkeypatch, capsys
    ):
        def failing_runner(graph, eps, opt_cap):
            raise error("boom")

        monkeypatch.setattr(cli, "run_mds_n", failing_runner)
        assert main(["mds-n", "--input", petersen_file]) == code
        err = capsys.readouterr().err
        assert "boom" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text", ["0 1\na b\n", "n abc\n0 1\n"], ids=["edge", "header"]
    )
    def test_non_integer_graph_token(self, text, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["mds-n", "--input", str(path)]) == 3
        assert "expected integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mds-n", "mds-delta", "cds"])
    @pytest.mark.parametrize(
        "flag",
        [
            ["--cost-model", "local"],
            ["--beta", "8"],
            ["--seed", "3"],
            ["--enum-budget", "24"],
        ],
    )
    def test_removed_flags_rejected(self, command, flag, petersen_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", petersen_file] + flag)
        assert exc.value.code == 2


class TestOracle:
    def test_mds(self, petersen_file, capsys):
        code = main(["oracle", "mds", "--input", petersen_file, "--report", "json"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["size"] == 3

    def test_cds(self, petersen_file, capsys):
        code = main(["oracle", "cds", "--input", petersen_file, "--report", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["size"] >= 3


class TestGenAndVerify:
    def test_gen_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        code = main(["gen", "cycle", "--n", "6", "--output", str(out)])
        assert code == 0
        g = parse_graph(out.read_text())
        assert g.n == 6 and g.num_edges == 6

    def test_gen_seed_reproducible(self, capsys):
        args = ["gen", "gnp", "--n", "8", "--p", "0.5", "--seed", "3"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert parse_graph(first).n == 8

    def test_gen_stdout(self, capsys):
        code = main(["gen", "petersen"])
        assert code == 0
        g = parse_graph(capsys.readouterr().out)
        assert g.n == 10

    def test_verify_good_set(self, petersen_file, capsys):
        code = main(
            ["verify", "--input", petersen_file, "--set", "0,2,6", "--report", "json"]
        )
        obj = json.loads(capsys.readouterr().out)
        assert code == (0 if obj["dominating"] else 2)

    def test_verify_failing_set(self, petersen_file, capsys):
        code = main(["verify", "--input", petersen_file, "--set", "0"])
        assert code == 2

    def test_verify_connected_flag(self, tmp_path, capsys):
        path = tmp_path / "p4.txt"
        code = main(["gen", "path", "--n", "4", "--output", str(path)])
        assert code == 0
        assert main(["verify", "--input", str(path), "--set", "1,2", "--connected"]) == 0
        assert main(["verify", "--input", str(path), "--set", "0,3", "--connected"]) == 2

    def test_verify_bad_node(self, petersen_file, capsys):
        code = main(["verify", "--input", petersen_file, "--set", "0,99"])
        assert code == 3


def test_gen_to_pipeline_roundtrip(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    assert main(["gen", "grid", "--rows", "3", "--cols", "3", "--output", str(path)]) == 0
    assert main(["mds-n", "--input", str(path), "--report", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    nodes = ",".join(str(v) for v in obj["final"]["nodes"])
    assert main(["verify", "--input", str(path), "--set", nodes]) == 0
