"""End-to-end command-line behavior, exit codes, and determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

from isingworlds import cli
from isingworlds.cli import main
from isingworlds.fixtures import fixture_path
from isingworlds.graphio import load_graph

TRIANGLE = str(fixture_path("triangle", "beta"))


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConvert:
    def test_beta_zero_to_lambda_zero(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", "param beta\n0 1 0\n")
        assert main(["convert", "--graph", graph, "--to", "lambda"]) == 0
        out = capsys.readouterr().out
        assert "param lambda" in out and "0 1 0.0" in out

    def test_beta_inf_to_p_one(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", "param beta\n0 1 inf\n")
        assert main(["convert", "--graph", graph, "--to", "p"]) == 0
        assert "0 1 1.0" in capsys.readouterr().out

    def test_ln2_to_p(self, tmp_path, capsys):
        graph = write(tmp_path, "g.graph", f"param beta\n0 1 {math.log(2)!r}\n")
        assert main(["convert", "--graph", graph, "--to", "p"]) == 0
        assert "0 1 0.75" in capsys.readouterr().out

    def test_out_file_and_manifest(self, tmp_path):
        out = tmp_path / "converted.graph"
        assert main(["convert", "--graph", TRIANGLE, "--to", "lambda", "--out", str(out)]) == 0
        assert load_graph(out).num_edges == 3
        manifest = json.loads((tmp_path / "converted.graph.manifest.json").read_text())
        assert manifest["command"] == "convert"
        assert "graph_sha256" in manifest and "timing_seconds" in manifest


class TestReduce:
    def test_rc_to_subs_all_zero(self, tmp_path, capsys):
        config = write(tmp_path, "z.txt", "000")
        code = main(
            ["reduce", "--from", "rc", "--to", "subs", "--graph", TRIANGLE,
             "--config", config, "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"] == [0, 0, 0]
        assert payload["draws"] == 0
        assert payload["manifest"]["seed"] == 1

    def test_subs_to_spins_composition(self, tmp_path, capsys):
        config = write(tmp_path, "y.json", json.dumps({"config": [0, 0, 0]}))
        code = main(
            ["reduce", "--from", "subs", "--to", "spins", "--graph", TRIANGLE,
             "--config", config, "--seed", "9"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["config"]) <= {1, -1}
        assert payload["draws"] <= 6

    @pytest.mark.parametrize(
        "entries", ['["a", 0, 0]', "[[1], 0, 0]", "[1.7, 0, 0]", "[true, false, false]"]
    )
    def test_config_entries_must_be_integers(self, tmp_path, capsys, entries):
        config = write(tmp_path, "z.json", entries)
        code = main(
            ["reduce", "--from", "rc", "--to", "subs", "--graph", TRIANGLE,
             "--config", config, "--seed", "1"]
        )
        assert code == 2
        assert capsys.readouterr().out == ""

    def test_same_world_rejected(self, tmp_path, capsys):
        config = write(tmp_path, "z.txt", "000")
        code = main(
            ["reduce", "--from", "rc", "--to", "rc", "--graph", TRIANGLE,
             "--config", config, "--seed", "1"]
        )
        assert code == 2

    def test_invalid_config_is_input_error(self, tmp_path):
        config = write(tmp_path, "y.txt", "100")  # odd parity
        code = main(
            ["reduce", "--from", "subs", "--to", "rc", "--graph", TRIANGLE,
             "--config", config, "--seed", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize("to", ["spins", "subs"])
    @pytest.mark.parametrize(
        "coupling, bits",
        [("0", "1"), ("inf", "0")],
        ids=["open edge with p 0", "closed edge with p 1"],
    )
    def test_zero_weight_rc_input_is_input_error(self, tmp_path, capsys, to, coupling, bits):
        graph = write(tmp_path, "g.graph", f"param beta\n0 1 {coupling}\n")
        config = write(tmp_path, "z.txt", bits)
        code = main(
            ["reduce", "--from", "rc", "--to", to, "--graph", graph,
             "--config", config, "--seed", "1"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "zero weight" in captured.err

    def test_deterministic_output_files(self, tmp_path):
        config = write(tmp_path, "z.txt", "111")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["reduce", "--from", "rc", "--to", "subs", "--graph", TRIANGLE,
                 "--config", config, "--seed", "4", "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestChain:
    def test_zero_steps_empty_trace(self, capsys):
        code = main(["chain", "--kernel", "subs-sw", "--graph", TRIANGLE,
                     "--steps", "0", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["step,edges,clusters"]

    def test_csv_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["chain", "--kernel", "sw", "--graph", TRIANGLE, "--steps", "10",
                     "--seed", "3", "--stats", "m,energy,clusters", "--thin", "2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,m,energy,clusters"
        assert len(lines) == 6  # header + 5 thinned rows
        assert lines[1].split(",")[0] == "2"

    def test_unknown_stat_is_input_error(self):
        assert main(["chain", "--kernel", "sw", "--graph", TRIANGLE, "--steps", "1",
                     "--seed", "3", "--stats", "volume"]) == 2

    def test_seed_determinism(self, tmp_path):
        blobs = []
        for name in ("t1.csv", "t2.csv"):
            out = tmp_path / name
            main(["chain", "--kernel", "subs-sw", "--graph", TRIANGLE, "--steps", "50",
                  "--seed", "11", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestPerfect:
    def test_tree_world_subs_all_zero(self, tmp_path, capsys):
        graph = write(tmp_path, "tree.graph", "param beta\n0 1 0.9\n1 2 0.9\n")
        code = main(["perfect", "--world", "subs", "--graph", graph,
                     "--samples", "5", "--seed", "2"])
        assert code == 0
        for line in capsys.readouterr().out.strip().splitlines():
            payload = json.loads(line)
            assert payload["config"] == [0, 0]
            assert "epoch" in payload

    def test_no_coalescence_exit_code(self):
        assert main(["perfect", "--world", "rc", "--graph", TRIANGLE, "--samples", "1",
                     "--seed", "2", "--max-epoch", "0"]) == 4

    def test_jobs_do_not_change_output(self, tmp_path):
        blobs = []
        for jobs, name in (("1", "s1.jsonl"), ("2", "s2.jsonl")):
            out = tmp_path / name
            code = main(["perfect", "--world", "rc", "--graph", TRIANGLE, "--samples", "8",
                         "--seed", "5", "--jobs", jobs, "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestSample:
    def test_enum_deterministic(self, tmp_path):
        blobs = []
        for name in ("e1.jsonl", "e2.jsonl"):
            out = tmp_path / name
            code = main(["sample", "--world", "rc", "--method", "enum", "--graph", TRIANGLE,
                         "--samples", "20", "--seed", "8", "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_summary_reported(self, capsys):
        code = main(["sample", "--world", "subs", "--method", "cftp", "--graph", TRIANGLE,
                     "--samples", "5", "--seed", "8"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["samples"] == 5
        assert "edges" in summary["stats"]

    def test_cftp_on_tree_always_empty(self, tmp_path, capsys):
        graph = write(tmp_path, "tree.graph", "param beta\n0 1 0.8\n1 2 0.8\n2 3 0.8\n")
        code = main(["sample", "--world", "subs", "--method", "cftp", "--graph", graph,
                     "--samples", "6", "--seed", "13"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[:-1]:
            assert json.loads(line)["config"] == [0, 0, 0]

    def test_chain_method_with_burnin(self, capsys):
        code = main(["sample", "--world", "spins", "--method", "chain", "--graph", TRIANGLE,
                     "--samples", "4", "--seed", "8", "--burnin", "10", "--thin", "3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # 4 configs + summary
        for line in lines[:4]:
            assert set(json.loads(line)["config"]) <= {1, -1}

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--world", "spins", "--method", "chain"],
            ["sample", "--world", "rc", "--method", "enum"],
            ["sample", "--world", "subs", "--method", "cftp"],
            ["perfect", "--world", "rc"],
        ],
    )
    def test_zero_samples_print_strict_json(self, argv, capsys):
        # an undefined mean or se is null (never NaN), and an empty
        # payload adds no blank line
        assert main([*argv, "--graph", TRIANGLE, "--samples", "0", "--seed", "1"]) == 0

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(line, parse_constant=reject) for line in lines]
        if argv[0] == "perfect":
            assert rows == []
        else:
            (summary,) = rows
            assert summary["samples"] == 0
            assert all(s == {"mean": None, "se": None} for s in summary["stats"].values())

    @pytest.mark.parametrize("samples", ["0", "3"])
    def test_enum_without_positive_weight_is_input_error(self, samples, tmp_path, capsys):
        graph = write(tmp_path, "g.graph",
                      "param beta\nnodes 2\nfield 0 inf\nfield 1 -inf\n0 1 inf\n")
        code = main(["sample", "--world", "spins", "--method", "enum", "--graph", graph,
                     "--samples", samples, "--seed", "0"])
        assert code == 2
        assert "positive weight" in capsys.readouterr().err

    def test_cap_exit_code(self, tmp_path):
        edges = "\n".join(f"{i} {i + 1} 0.5" for i in range(21))
        graph = write(tmp_path, "big.graph", f"param beta\n{edges}\n")
        assert main(["sample", "--world", "rc", "--method", "enum", "--graph", graph,
                     "--samples", "1", "--seed", "0"]) == 3


class TestCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--world", "spins", "--method", "chain", "--samples", "3", "--thin", "0"],
            ["sample", "--world", "spins", "--method", "chain", "--samples", "3", "--burnin", "-1"],
            ["sample", "--world", "rc", "--method", "enum", "--samples", "-2"],
            ["sample", "--world", "rc", "--method", "cftp", "--samples", "1", "--jobs", "0"],
            ["sample", "--world", "rc", "--method", "cftp", "--samples", "1", "--max-epoch", "-1"],
            ["perfect", "--world", "rc", "--samples", "-2"],
            ["perfect", "--world", "rc", "--samples", "1", "--jobs", "0"],
            ["perfect", "--world", "rc", "--samples", "1", "--max-epoch", "-1"],
            ["perfect", "--world", "rc", "--samples", "two"],
            ["chain", "--kernel", "sw", "--steps", "-1"],
            ["chain", "--kernel", "sw", "--steps", "2", "--thin", "0"],
        ],
    )
    def test_bad_count_is_input_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--graph", TRIANGLE, "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cpus,workers", [(3, [3]), (None, [])])
    def test_jobs_capped_at_cpu_count(self, cpus, workers, monkeypatch, capsys):
        # records the pool size instead of starting workers; an unknown
        # cpu count means one job, which runs without a pool
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        argv = ["perfect", "--world", "subs", "--graph", TRIANGLE, "--samples", "4", "--seed", "5"]
        assert main([*argv, "--jobs", "1"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main([*argv, "--jobs", "64"]) == 0
        assert started == workers
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "cpus,argv,workers",
        [
            (3, ["perfect", "--world", "subs", "--samples", "4"], 3),
            (None, ["perfect", "--world", "subs", "--samples", "4"], 1),
            (3, ["perfect", "--world", "rc", "--samples", "1"], 1),
            (3, ["sample", "--world", "rc", "--method", "cftp", "--samples", "4"], 3),
            (3, ["sample", "--world", "rc", "--method", "enum", "--samples", "4"], 1),
        ],
    )
    def test_manifest_records_workers_used(self, cpus, argv, workers, tmp_path, monkeypatch, capsys):
        # the sidecar says how many workers ran; stdout stays machine-free
        class RecordingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        out = str(tmp_path / "d.jsonl")
        args = [*argv, "--graph", TRIANGLE, "--seed", "5", "--jobs", "64", "--out", out]
        assert main(args) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert main(args) == 0
        assert capsys.readouterr().out == expected
        assert '"workers"' not in expected
        with open(out + ".manifest.json", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        assert sidecar["workers"] == workers
        assert sidecar["options"]["jobs"] == 64

    def test_zero_samples_accepted(self, capsys):
        assert main(["perfect", "--world", "rc", "--graph", TRIANGLE,
                     "--samples", "0", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestVerify:
    def test_triangle_fixture_passes(self, capsys):
        assert main(["verify", "--graph", TRIANGLE, "--all-identities"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "rc_normalizer" in names
        assert any(n.startswith("stationarity[") for n in names)

    def test_infinite_couplings_still_verifiable(self, tmp_path, capsys):
        graph = write(tmp_path, "inf.graph", "param beta\n0 1 inf\n1 2 0.5\n")
        assert main(["verify", "--graph", graph, "--all-identities"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert any("skipped" in c for c in report["checks"])

    def test_rc_normalizer_past_float_range(self, tmp_path, capsys):
        # 2**1099 clusters overflow a float; the check moves to log weights
        graph = write(tmp_path, "big.graph", "param beta\nnodes 1100\n0 1 inf\n")
        assert main(["verify", "--graph", graph]) == 0
        report = json.loads(capsys.readouterr().out)
        (rc,) = [c for c in report["checks"] if c["name"] == "rc_normalizer"]
        assert rc["used_log_domain"] and rc["passed"]

    def test_sparse_huge_graph_costs_only_its_edges(self, tmp_path, capsys):
        # the tables' parity and labels cover edge-incident nodes only; a
        # loop over every node per configuration took ~25 s here
        edges = "".join(f"{i} {i + 1 + k} inf\n" for k, i in enumerate(range(0, 200_000, 25_000)))
        graph = write(tmp_path, "sparse.graph", f"param beta\nnodes 200000\n{edges}")
        assert main(["verify", "--graph", graph, "--all-identities"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        (rc,) = [c for c in report["checks"] if c["name"] == "rc_normalizer"]
        assert rc["used_log_domain"] and rc["passed"]

    def test_overflowing_partition_sum_reports_finite_errors(self, tmp_path):
        # three beta-300 edges overflow every linear Z; the stationarity
        # checks used to divide inf by inf and print NaN with a warning
        graph = write(tmp_path, "hot.graph", "param beta\n0 1 300\n1 2 300\n0 2 300\n")
        result = subprocess.run(
            [sys.executable, "-m", "isingworlds.cli", "verify", "--graph", graph, "--all-identities"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stderr == ""

        def reject(constant):
            raise ValueError(f"non-JSON constant {constant}")

        report = json.loads(result.stdout, parse_constant=reject)
        assert report["passed"] is True
        assert any(c["name"].startswith("stationarity[") for c in report["checks"])

    def test_json_fixture_accepted(self, capsys):
        graph = str(fixture_path("triangle", "beta", "json"))
        assert main(["verify", "--graph", graph]) == 0


class TestErrors:
    def test_parse_error_exit_code(self, tmp_path):
        graph = write(tmp_path, "bad.graph", "param beta\n0 0 1\n")
        assert main(["verify", "--graph", graph]) == 2

    def test_missing_file_exit_code(self):
        assert main(["verify", "--graph", "/nonexistent/g.graph"]) == 2


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "isingworlds.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "isingworlds" in result.stdout


def test_exports_resolve():
    import isingworlds

    assert [name for name in isingworlds.__all__ if not hasattr(isingworlds, name)] == []


class TestFieldGuard:
    def test_sampling_rejects_field_graphs(self, tmp_path):
        graph = write(tmp_path, "field.graph", "param beta\nfield 0 1.0\n0 1 0.5\n")
        assert main(["perfect", "--world", "rc", "--graph", graph,
                     "--samples", "1", "--seed", "0"]) == 2
        assert main(["chain", "--kernel", "sw", "--graph", graph,
                     "--steps", "1", "--seed", "0"]) == 2
        assert main(["verify", "--graph", graph]) == 2
        # the edge-world tables drop the field, so enum sampling there must refuse it
        field3 = write(tmp_path, "field3.graph",
                       "param beta\nnodes 3\nfield 0 0.7\n0 1 0.5\n1 2 0.5\n0 2 0.5\n")
        for world in ("subs", "rc"):
            assert main(["sample", "--world", world, "--method", "enum", "--graph", field3,
                         "--samples", "2", "--seed", "0"]) == 2
        assert main(["sample", "--world", "spins", "--method", "enum", "--graph", field3,
                     "--samples", "2", "--seed", "0"]) == 0
