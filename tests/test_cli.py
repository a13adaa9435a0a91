"""End-to-end command-line behavior, exit codes, and determinism."""

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import pytest

from isingworlds import (
    NoCoalescenceError,
    RngStream,
    chains,
    cli,
    draws,
    empirical_distribution,
    exact,
    exact_tables,
    perfect_sample,
    tv_distance,
)
from isingworlds.cftp import MAX_EPOCH, first_epoch
from isingworlds.chains import DRAW_BLOCK
from isingworlds.cli import main
from isingworlds.fixtures import complete_graph, fixture_graph, fixture_path
from isingworlds.graphio import load_graph, save_graph
from isingworlds.worlds import STATISTICS

TRIANGLE = str(fixture_path("triangle", "beta"))
# path3 at beta 1e308: each coupling is finite, but the two sum past float
# range, so a spins log weight or energy would overflow; the spins world
# refuses it, the edge worlds run it
HOT_PATH3 = "param beta\n0 1 1e308\n1 2 1e308\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def strict_json(text):
    """``json.loads`` that refuses NaN and the infinities."""

    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


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

    @staticmethod
    def writes_nothing(stats, tmp_path, capsys):
        """``chain --stats stats`` exits 2 with nothing on stdout, and with
        --out writes neither the file nor its sidecar."""
        for out in ([], ["--out", str(tmp_path / "trace.csv")]):
            assert main(["chain", "--kernel", "sw", "--graph", TRIANGLE, "--steps", "300",
                         "--seed", "3", "--stats", stats, *out]) == 2
            assert capsys.readouterr().out == ""
        assert list(tmp_path.iterdir()) == []

    def test_unknown_stat_is_input_error(self, tmp_path, capsys):
        self.writes_nothing("m,volume", tmp_path, capsys)

    def test_repeated_stat_is_input_error(self, tmp_path, capsys):
        self.writes_nothing("m,energy,m", tmp_path, capsys)

    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("kernel,stats", [("sw", None), ("sw", "clusters,energy"),
                                              ("subs-sw", None), ("subs-sw", "clusters")])
    def test_blocks_write_the_buffered_bytes(self, kernel, stats, thin, tmp_path, capsys):
        # the rows go out DRAW_BLOCK at a time, each block resuming the
        # last; the bytes are those of csv.writer over one run of all steps
        graph = str(fixture_path("grid3x3", "beta"))
        g = load_graph(graph)
        names = (stats or cli._DEFAULT_STATS[cli._KERNEL_WORLDS[kernel]]).split(",")
        block = DRAW_BLOCK * thin
        for steps in (0, 1, block - 1, block, block + 1, 3 * block + 5):
            trace = chains.run_chain(g, chains.initial_state(g, cli._KERNEL_WORLDS[kernel]), steps,
                                     RngStream(5), names, thin)
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(["step", *names])
            for row, step in enumerate(trace.steps):
                writer.writerow([step, *(trace.values[name][row] for name in names)])
            out = tmp_path / f"{steps}.csv"
            argv = ["chain", "--kernel", kernel, "--graph", graph, "--steps", str(steps),
                    "--seed", "5", "--thin", str(thin), *(["--stats", stats] if stats else [])]
            assert main(argv) == 0
            assert capsys.readouterr().out == buffer.getvalue(), steps
            assert main([*argv, "--out", str(out)]) == 0
            assert out.read_bytes() == buffer.getvalue().encode(), steps

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

    def test_budget_below_a_sweep_names_the_smallest(self, capsys):
        # the triangle's three free edges need a horizon of 4 = 2**2
        assert main(["sample", "--world", "subs", "--method", "cftp", "--graph", TRIANGLE,
                     "--samples", "1", "--seed", "2", "--max-epoch", "1"]) == 4
        assert "--max-epoch) must be at least 2" in capsys.readouterr().err

    def test_largest_epoch_budget_accepted(self, capsys):
        assert main(["perfect", "--world", "rc", "--graph", TRIANGLE, "--samples", "2",
                     "--seed", "2", "--max-epoch", str(MAX_EPOCH)]) == 0

    def test_jobs_do_not_change_output(self, tmp_path):
        blobs = []
        for jobs, name in (("1", "s1.jsonl"), ("2", "s2.jsonl")):
            out = tmp_path / name
            code = main(["perfect", "--world", "rc", "--graph", TRIANGLE, "--samples", "8",
                         "--seed", "5", "--jobs", jobs, "--out", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_jobs_do_not_change_output_across_blocks(self, tmp_path, capsys):
        # three written blocks of lines, the last of one line, and four
        # pool blocks of draws, on stdout and --out
        argv = ["perfect", "--world", "subs", "--graph", TRIANGLE,
                "--samples", str(2 * DRAW_BLOCK + 1), "--seed", "5"]
        runs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"s{jobs}.jsonl"
            assert main([*argv, "--jobs", jobs]) == 0
            assert main([*argv, "--jobs", jobs, "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_text(encoding="utf-8")))
        assert runs[0] == runs[1]
        assert runs[0][0] == runs[0][1] and runs[0][0].count("\n") == 2 * DRAW_BLOCK + 1

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_run_leaves_out_as_it_was(self, jobs, tmp_path, capsys):
        # within 2**4 steps samples 0-3 coalesce and sample 4 does not
        grid = str(fixture_path("grid3x3", "beta"))
        g = load_graph(grid)
        for i in range(4):
            perfect_sample(g, "subs", RngStream(8, i), 4)
        with pytest.raises(NoCoalescenceError):
            perfect_sample(g, "subs", RngStream(8, 4), 4)
        argv = ["perfect", "--world", "subs", "--graph", grid, "--samples", "6", "--seed", "8",
                "--jobs", jobs]
        assert main(argv) == 0
        full = capsys.readouterr().out
        assert main([*argv, "--max-epoch", "4"]) == 4
        prefix = capsys.readouterr().out
        assert full.startswith(prefix) and (prefix == "" or prefix.endswith("\n"))
        out = tmp_path / "draws.jsonl"
        out.write_bytes(b"an earlier run\n")
        assert main([*argv, "--max-epoch", "4", "--out", str(out)]) == 4
        assert out.read_bytes() == b"an earlier run\n"
        assert [path.name for path in tmp_path.iterdir()] == ["draws.jsonl"]  # no sidecar, no temporary


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("samples", ["0", "1", "50"])
@pytest.mark.parametrize("world", ["spins", "rc", "subs"])
def test_perfect_prints_the_lines_of_sample_cftp(world, samples, jobs, capsys):
    # one draw and print path: perfect is sample --method cftp without the summary
    tail = ["--world", world, "--graph", str(fixture_path("grid3x3", "beta")),
            "--samples", samples, "--seed", "19", "--jobs", jobs]
    assert main(["perfect", *tail]) == 0
    perfect = capsys.readouterr().out
    assert main(["sample", "--method", "cftp", *tail]) == 0
    *lines, summary = capsys.readouterr().out.splitlines(keepends=True)
    assert perfect == "".join(lines)
    assert json.loads(summary)["samples"] == int(samples)


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

    def test_chain_method_thinned(self, capsys):
        code = main(["sample", "--world", "spins", "--method", "chain", "--graph", TRIANGLE,
                     "--samples", "4", "--seed", "8", "--thin", "3"])
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
        rows = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
        if argv[0] == "perfect":
            assert rows == []
        else:
            (summary,) = rows
            assert summary["samples"] == 0
            assert all(s == {"mean": None, "se": None} for s in summary["stats"].values())

    def test_one_sample_has_a_mean_but_no_se(self, capsys):
        # one value has no spread to estimate: se is null, as with none
        assert main(["sample", "--world", "spins", "--method", "enum", "--graph", TRIANGLE,
                     "--samples", "1", "--seed", "4"]) == 0
        row, summary = (json.loads(line) for line in capsys.readouterr().out.splitlines())
        assert summary["stats"]["m"] == {"mean": float(sum(row["config"])), "se": None}
        assert all(s["mean"] is not None and s["se"] is None for s in summary["stats"].values())

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


# sha256 of the stdout of 200 samples with --jobs 1, the graph named
# relative to the fixture directory (sample's summary line carries the
# manifest: version, options and graph path), the same on Python 3.10-3.13.  A change that alters how
# CFTP or the conversions use randomness updates these on purpose.
PINNED_CFTP_STDOUT = {
    ("grid3x3", "perfect-subs", 7): "c292b6411123ca3157fa393587fed2d2913b0fec112d89c9c2c48fe8f4ad2fb2",
    ("grid3x3", "perfect-subs", 2024): "f40ce57f3202c1d6589aa1ec5527d9ba4415516e60c4e6a8d57e2f29f90137ad",
    ("grid3x3", "perfect-rc", 7): "1e12571d30c618048248b89497075917334cd1ede68d02e0d41780e5a3aebacd",
    ("grid3x3", "perfect-rc", 2024): "3952089ace00e399d4e638116bc93dd2799a51323fac8e87c0c6a580ca3dc18c",
    ("grid3x3", "sample-spins", 7): "c2c7c63053b9593aa836ddfd35424c99eba02a16b2938ff980bcbf84d82bdac7",
    ("grid3x3", "sample-spins", 2024): "50a08802c6cd8c5754563d5eed7762f26e6aa74d198460372d577f03373c91f4",
    ("cycle4", "perfect-subs", 7): "df2b9a0ae2faf48dcf2496818a0d96efb1ddd026e5b9a104092ec9eb1174e626",
    ("cycle4", "perfect-subs", 2024): "46e2a40aeb340981fde0a89dfd5576baa146233ebf4099a4b262c08274122ba3",
    ("cycle4", "perfect-rc", 7): "f4deebb3ea79768bbd0f93ffaec6890d6edad9eead2ff617d64ccef1e9b8e480",
    ("cycle4", "perfect-rc", 2024): "23095683c8f3f735259f1d7cb470a1a6e970039757f6ee7dcf3b0be7d2bd1a57",
    ("cycle4", "sample-spins", 7): "61b1b8ed327cc0fe40943942b444da3f25662c461bebe498727fd5eb6867b233",
    ("cycle4", "sample-spins", 2024): "21984eab30742caab5f62a932a6a4699d9c3333757c47a73ffc2b8f794b1752f",
}
CFTP_COMMANDS = {
    "perfect-subs": ["perfect", "--world", "subs"],
    "perfect-rc": ["perfect", "--world", "rc"],
    "sample-spins": ["sample", "--method", "cftp", "--world", "spins"],
}


@pytest.mark.parametrize("name,command,seed", sorted(PINNED_CFTP_STDOUT))
def test_cftp_stdout_pinned(name, command, seed, monkeypatch, capsys):
    monkeypatch.chdir(fixture_path(name, "beta").parent)
    argv = [*CFTP_COMMANDS[command], "--graph", f"{name}.beta.graph",
            "--samples", "200", "--seed", str(seed), "--jobs", "1"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_CFTP_STDOUT[(name, command, seed)]


# sha256 of the stdout of sample --method enum, 200 samples at seed 3:
# every draw is the inverse CDF of the table's support over the same
# uniforms.  How a table is stored and read may change, the draws may not.
PINNED_ENUM_STDOUT = {
    ("triangle", "spins"): "712bace8776013ce6f924a978355df01d353b0fd3808b5a75a8d2fff1d90763c",
    ("triangle", "subs"): "95516d3b966cb9f8164eb801f063191fe58142145ace61ecac3a4fbe826db9da",
    ("triangle", "rc"): "0b4dcbd4888c3605cc31ac439ea60c0e72e6f99b6dbbb88a081ba4be4d857925",
    ("grid3x3", "spins"): "6fd4ea443e112e26485b290dbd3c1587c8f3425c5bf742865496b9512fcc28e1",
    ("grid3x3", "subs"): "e380a50325caefcbb1c3b3ca0848a0b418e976b159f37b9f2fd0092714875999",
    ("grid3x3", "rc"): "ef981bd9f055bd9bf8b94f7cb70a5436f45a1e85220248ff150047b2076be2a1",
}


@pytest.mark.parametrize("name,world", sorted(PINNED_ENUM_STDOUT))
def test_enum_stdout_pinned(name, world, monkeypatch, capsys):
    monkeypatch.chdir(fixture_path(name, "beta").parent)
    argv = ["sample", "--method", "enum", "--world", world, "--graph", f"{name}.beta.graph",
            "--samples", "200", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_ENUM_STDOUT[(name, world)]


# sha256 of the stdout of the chain commands at seed 18: every step of
# sw and of a spins chain labels clusters (rc_to_spins and the clusters
# statistic), every step of subs-sw peels a spanning forest (rc_to_subs).
# The chain command starts from a fixed state, sample from a perfect draw.
# How the labels and the forest are computed may change, what they return
# may not.  grid12 is a 12x12 grid at beta 0.44, written next to the run.
PINNED_CHAIN_STDOUT = {
    ("grid3x3", "chain-sw"): "baa999e0bbf56614993a8565f2933d8ddec87933fc5360558cb386492efd15d5",
    ("grid3x3", "chain-subs-sw"): "947ecb7fe70539f9a98931028f2dfe3560462ae33043d74f95028935ae1b0854",
    ("grid3x3", "sample-spins"): "af5c9d9d241006e133c69f4bbe96f3f7e48369ce4843ee026de92eafe5407d24",
    ("grid3x3", "sample-subs"): "11762e078493a5acf1b19fefb1ca6eb2ec6681763501514b1b45492c7e3e51f2",
    ("grid3x3", "sample-rc"): "79abd3a75f0c9b0ad4b71b68576a13906a7085da7517a8d14603b6a620b6a5a9",
    ("grid12", "chain-sw"): "ef82052487a987e27c73ea6df3b24f5be68bcffffaf0ffe36c78f44416fd9221",
    ("grid12", "chain-subs-sw"): "5a7a1e976bc59e7089e7d15f9dd2196abb36e65a8b1735b025c52aa59bcf218e",
    ("grid12", "sample-spins"): "d37df5c5fe45fbbcc714d8adb7109bd0fac29cd999903e5d2fb910f366bdbe9c",
    ("grid12", "sample-subs"): "a86ab71f2e2a7972101a8532d45f1eb9b6ffb28d614ffba821008723622b873e",
    ("grid12", "sample-rc"): "0188c44ae4b3893ee22ca9482cb01dea5273bfd31b66f6296d42bda95132572f",
}
CHAIN_COMMANDS = {
    "chain-sw": ["chain", "--kernel", "sw", "--steps", "60"],
    "chain-subs-sw": ["chain", "--kernel", "subs-sw", "--steps", "60"],
    **{
        f"sample-{world}": ["sample", "--method", "chain", "--world", world,
                            "--samples", "30"]
        for world in ("spins", "subs", "rc")
    },
}


def grid_text(side, beta):
    lines = ["param beta"]
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                lines.append(f"{v} {v + 1} {beta}")
            if r + 1 < side:
                lines.append(f"{v} {v + side} {beta}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,command", sorted(PINNED_CHAIN_STDOUT))
def test_chain_stdout_pinned(name, command, tmp_path, monkeypatch, capsys):
    if name == "grid12":
        (tmp_path / "grid12.beta.graph").write_text(grid_text(12, 0.44))
        monkeypatch.chdir(tmp_path)
    else:
        monkeypatch.chdir(fixture_path(name, "beta").parent)
    assert main([*CHAIN_COMMANDS[command], "--graph", f"{name}.beta.graph", "--seed", "18"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_CHAIN_STDOUT[(name, command)]


def traced_peak(argv):
    """The traced peak memory of ``main(argv)``, its stdout discarded."""
    gc.collect()  # a full collection empties the free lists, which tracemalloc counts
    tracemalloc.start()
    try:
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """Draws and chain rows are written as they are made, so a run's memory
    does not grow with --samples or --steps (bar 8 bytes a draw per
    statistic in sample's summary)."""

    @pytest.mark.parametrize("command", [["perfect"], ["sample", "--method", "chain"]], ids=["perfect", "chain"])
    def test_memory_does_not_grow_with_samples(self, command, tmp_path):
        graph = write(tmp_path, "grid8.beta.graph", grid_text(8, 0.44))
        argv = [*command, "--world", "rc", "--graph", graph, "--seed", "4"]
        small, large = (traced_peak([*argv, "--samples", n]) for n in ("200", "2000"))
        assert large - small < 256 * 1024

    def test_enum_memory_grows_only_by_the_summary(self):
        # the summary keeps 8 bytes a draw per statistic, two in the rc
        # world: 288 000 bytes over these 18 000 draws.  The draws, taken
        # a block at a time, keep nothing
        argv = ["sample", "--method", "enum", "--world", "rc", "--graph", TRIANGLE, "--seed", "4"]
        small, large = (traced_peak([*argv, "--samples", n]) for n in ("2000", "20000"))
        assert large - small - 8 * len(STATISTICS["rc"]) * 18_000 < 256 * 1024

    def test_chain_memory_does_not_grow_with_steps(self):
        argv = ["chain", "--kernel", "sw", "--stats", "m,energy,clusters", "--graph", TRIANGLE, "--seed", "4"]
        small, large = (traced_peak([*argv, "--steps", n]) for n in ("2000", "20000"))
        assert large - small < 256 * 1024

    def test_pooled_memory_does_not_grow_with_samples(self):
        argv = ["perfect", "--world", "subs", "--graph", TRIANGLE, "--seed", "4", "--jobs", "2"]
        small, large = (traced_peak([*argv, "--samples", n]) for n in ("2000", "20000"))
        assert large - small < 256 * 1024


class TestChainStart:
    """``sample --method chain`` starts from a perfect draw, so its first
    draw is already exact in law."""

    @pytest.mark.parametrize("name,beta", [("grid3x3", 0.5), ("cycle4", math.atanh(0.6))], ids=["grid3x3", "cycle4"])
    @pytest.mark.parametrize("world", ["subs", "spins"])
    def test_first_draw_matches_the_table(self, name, beta, world):
        # one draw from each of n seeds.  Threshold: Weissman et al. (2003)
        # at delta = 0.001 over these four cases, from n and the support
        n, delta = 10_000, 0.001
        g = fixture_graph(name, beta)
        table = getattr(exact_tables(g), world)
        firsts = [next(draws(g, world, "chain", seed, 1))[0] for seed in range(21_000, 21_000 + n)]
        support = int((table.probs > 0.0).sum())
        threshold = math.sqrt(math.log((2.0**support - 2.0) * 4 / delta) / (2 * n))
        assert tv_distance(empirical_distribution(firsts, table), table.probs) < threshold

    def test_start_budget_and_zero_samples(self, capsys):
        # the start honours --max-epoch as perfect does; no sample, no start
        argv = ["sample", "--world", "subs", "--method", "chain", "--graph",
                str(fixture_path("grid3x3", "beta")), "--seed", "3", "--max-epoch", "0"]
        assert main([*argv, "--samples", "1"]) == 4
        assert capsys.readouterr().out == ""
        assert main([*argv, "--samples", "0"]) == 0
        (summary,) = [strict_json(line) for line in capsys.readouterr().out.splitlines()]
        assert summary["samples"] == 0
        assert all(s == {"mean": None, "se": None} for s in summary["stats"].values())


def allow_cpus(monkeypatch, cpus):
    """Let this process run on ``cpus`` CPUs; None stands for a platform
    with no affinity set and an unknown CPU count."""
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace the process pool with one that maps in this process; the
    list it returns records the pool sizes asked for."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return SimpleNamespace(result=partial(fn, *args))  # runs when its result is read

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    return sizes


class TestCounts:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--world", "spins", "--method", "chain", "--samples", "3", "--thin", "0"],
            # no --burnin, whatever its value: a chain starts from a perfect draw
            ["sample", "--world", "spins", "--method", "chain", "--samples", "3", "--burnin", "5"],
            ["sample", "--world", "rc", "--method", "enum", "--samples", "-2"],
            ["sample", "--world", "rc", "--method", "cftp", "--samples", "1", "--jobs", "0"],
            ["sample", "--world", "rc", "--method", "cftp", "--samples", "1", "--max-epoch", "-1"],
            ["perfect", "--world", "rc", "--samples", "-2"],
            ["perfect", "--world", "rc", "--samples", "1", "--jobs", "0"],
            ["perfect", "--world", "rc", "--samples", "1", "--max-epoch", "-1"],
            ["perfect", "--world", "rc", "--samples", "two"],
            ["chain", "--kernel", "sw", "--steps", "-1"],
            ["chain", "--kernel", "sw", "--steps", "2", "--thin", "0"],
            ["sample", "--world", "rc", "--method", "cftp", "--samples", "1", "--max-epoch", "28"],
            ["perfect", "--world", "rc", "--samples", "1", "--max-epoch", "28"],
            ["perfect", "--world", "rc", "--samples", "1", "--max-epoch", "40"],
        ],
    )
    def test_bad_count_is_input_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--graph", TRIANGLE, "--seed", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["perfect", "--world", "rc", "--samples", "0"],
            ["perfect", "--world", "rc", "--samples", "1"],
            ["sample", "--world", "rc", "--method", "enum", "--samples", "0"],
            ["chain", "--kernel", "sw", "--steps", "1"],
            ["reduce", "--from", "rc", "--to", "subs", "--config", "z.txt"],
        ],
    )
    def test_negative_seed_is_input_error(self, argv, capsys):
        # refused by the parser, whether or not a stream is ever built
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--graph", TRIANGLE, "--seed", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("cpus,workers", [(3, [3]), (None, [])])
    def test_jobs_capped_at_cpu_count(self, cpus, workers, fake_pool, monkeypatch, capsys):
        # an unknown cpu count means one job, which runs without a pool
        argv = ["perfect", "--world", "subs", "--graph", TRIANGLE, "--samples", "4", "--seed", "5"]
        assert main([*argv, "--jobs", "1"]) == 0
        expected = capsys.readouterr().out
        allow_cpus(monkeypatch, cpus)
        assert main([*argv, "--jobs", "64"]) == 0
        assert fake_pool == workers
        assert capsys.readouterr().out == expected

    def test_jobs_capped_at_affinity(self, fake_pool, monkeypatch, capsys):
        # a cpuset-limited process may use fewer CPUs than its machine has
        allow_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        argv = ["perfect", "--world", "subs", "--graph", TRIANGLE, "--samples", "4", "--seed", "5"]
        assert main([*argv, "--jobs", "64"]) == 0
        assert fake_pool == [2]

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
    def test_manifest_records_workers_used(self, cpus, argv, workers, fake_pool, tmp_path, monkeypatch, capsys):
        # the sidecar says how many workers ran; stdout stays machine-free
        out = str(tmp_path / "d.jsonl")
        args = [*argv, "--graph", TRIANGLE, "--seed", "5", "--jobs", "64", "--out", out]
        assert main(args) == 0
        expected = capsys.readouterr().out
        allow_cpus(monkeypatch, cpus)
        assert main(args) == 0
        assert capsys.readouterr().out == expected
        assert '"workers"' not in expected
        with open(out + ".manifest.json", encoding="utf-8") as handle:
            sidecar = json.load(handle)
        assert sidecar["workers"] == workers
        assert sidecar["options"]["jobs"] == 64

    @pytest.mark.parametrize(
        "samples,blocks",
        [(3, [(0, 2), (2, 1)]), (100, [(0, 50), (50, 50)]), (301, [(0, 76), (76, 76), (152, 76), (228, 73)])],
    )
    def test_pool_splits_draws_evenly(self, samples, blocks, fake_pool, monkeypatch, capsys):
        # each worker gets as many blocks as the next and no block holds
        # more than DRAW_BLOCK draws
        argv = ["perfect", "--world", "subs", "--graph", TRIANGLE, "--samples", str(samples), "--seed", "5"]
        assert main([*argv, "--jobs", "1"]) == 0
        expected = capsys.readouterr().out
        cftp_block, sizes = chains._cftp_block, []

        def recording(*args):
            *_, stop, _, size, start = args
            sizes.append((start, min(start + size, stop) - start))
            return cftp_block(*args)

        monkeypatch.setattr(chains, "_cftp_block", recording)
        allow_cpus(monkeypatch, 2)
        assert main([*argv, "--jobs", "2"]) == 0
        assert (fake_pool, sizes) == ([2], blocks)
        assert capsys.readouterr().out == expected

    def test_zero_samples_accepted(self, capsys):
        assert main(["perfect", "--world", "rc", "--graph", TRIANGLE,
                     "--samples", "0", "--seed", "1"]) == 0
        assert capsys.readouterr().out.strip() == ""


class TestFirstEpoch:
    """The CFTP runs of a command start at the graph's first epoch, which
    the parent works out once and only the sidecar reports."""

    @pytest.mark.parametrize("argv", [["perfect"], ["sample", "--method", "cftp"], ["sample", "--method", "chain"]],
                             ids=["perfect", "cftp", "chain"])
    def test_sidecar_records_first_epoch(self, argv, tmp_path, capsys):
        graph = write(tmp_path, "grid8.beta.graph", grid_text(8, 0.44))
        args = [*argv, "--world", "subs", "--graph", graph, "--samples", "2", "--seed", "3"]
        assert main(args) == 0
        assert main([*args, "--out", str(tmp_path / "d.jsonl")]) == 0
        assert '"first_epoch"' not in capsys.readouterr().out
        sidecar = json.loads((tmp_path / "d.jsonl.manifest.json").read_text())
        assert sidecar["first_epoch"] == first_epoch(load_graph(graph)) == 8  # a sweep takes 7

    def test_pool_workers_run_no_pilot(self, tmp_path, monkeypatch, capsys):
        # tasks reach the workers pickled, as with a process pool; the
        # graph they carry already holds its first epoch
        from isingworlds import cftp

        where, pilots, run = ["parent"], [], cftp.cftp_rc_run

        def counting(g, rng, *args, **kwargs):
            if rng.stream[:1] == (cftp.PILOT,):
                pilots.append(where[0])
            return run(g, rng, *args, **kwargs)

        def in_worker(task):
            fn, args = pickle.loads(task)
            where[0] = "worker"
            try:
                return fn(*args)
            finally:
                where[0] = "parent"

        class PicklingPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                return SimpleNamespace(result=partial(in_worker, pickle.dumps((fn, args))))

        graph = write(tmp_path, "grid8.beta.graph", grid_text(8, 0.44))
        argv = ["perfect", "--world", "subs", "--graph", graph, "--samples", "6", "--seed", "5"]
        assert main([*argv, "--jobs", "1"]) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(cftp, "cftp_rc_run", counting)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", PicklingPool)
        allow_cpus(monkeypatch, 2)
        assert main([*argv, "--jobs", "2"]) == 0
        assert capsys.readouterr().out == expected
        assert pilots == ["parent"] * cftp.PILOTS


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
        # 2**1099 clusters overflow a float; verify reports log Z
        graph = write(tmp_path, "big.graph", "param beta\nnodes 1100\n0 1 inf\n")
        assert main(["verify", "--graph", graph]) == 0
        report = json.loads(capsys.readouterr().out)
        (rc,) = [c for c in report["checks"] if c["name"] == "rc_normalizer"]
        assert rc["passed"] and rc["lhs"] == pytest.approx(1099 * math.log(2.0), rel=1e-15)

    def test_sparse_huge_graph_costs_only_its_edges(self, tmp_path, capsys):
        # the tables' parity and labels cover edge-incident nodes only; a
        # loop over every node per configuration took ~25 s here
        edges = "".join(f"{i} {i + 1 + k} inf\n" for k, i in enumerate(range(0, 200_000, 25_000)))
        graph = write(tmp_path, "sparse.graph", f"param beta\nnodes 200000\n{edges}")
        assert main(["verify", "--graph", graph, "--all-identities"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        (rc,) = [c for c in report["checks"] if c["name"] == "rc_normalizer"]
        assert rc["passed"]

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
        report = strict_json(result.stdout)
        assert report["passed"] is True
        assert any(c["name"].startswith("stationarity[") for c in report["checks"])

    def test_json_fixture_accepted(self, capsys):
        graph = str(fixture_path("triangle", "beta", "json"))
        assert main(["verify", "--graph", graph]) == 0

    def test_huge_beta_passes_within_the_rounding_of_log_z(self, tmp_path, capsys):
        # log Z near 7.4e5 is rounded to 1.2e-10, coarser than IDENTITY_TOL
        graph = tmp_path / "k4.graph"
        save_graph(complete_graph(4, 123456.789), graph)
        assert main(["verify", "--graph", str(graph)]) == 0
        report = strict_json(capsys.readouterr().out)
        assert report["passed"] is True

    @pytest.mark.parametrize(
        "argv",
        [["verify"], *(["sample", "--method", method, "--world", "spins", "--samples", "200", "--seed", "1"]
                       for method in ("enum", "cftp", "chain")),
         ["perfect", "--world", "spins", "--samples", "5", "--seed", "1"],
         ["chain", "--kernel", "sw", "--steps", "5", "--seed", "1"]],
    )
    def test_couplings_past_float_range_are_input_errors(self, argv, tmp_path, capsys):
        graph = write(tmp_path, "hot.graph", HOT_PATH3)
        assert main([*argv, "--graph", graph]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "past float range" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [*(["sample", "--method", method, "--world", world, "--samples", "5", "--seed", "1"]
           for method in ("enum", "cftp", "chain") for world in ("subs", "rc")),
         ["perfect", "--world", "subs", "--samples", "5", "--seed", "1"],
         ["chain", "--kernel", "subs-sw", "--steps", "5", "--seed", "1"]],
    )
    def test_the_edge_worlds_run_such_couplings(self, argv, tmp_path, capsys):
        # both couplings pin their edge open (p = lambda = 1): every rc
        # draw opens both, and the path's only even subgraph is empty
        graph = write(tmp_path, "hot.graph", HOT_PATH3)
        assert main([*argv, "--graph", graph]) == 0
        out = capsys.readouterr().out
        if argv[0] == "chain":
            assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["0.0"] * 5
        else:
            expected = (1, 1) if "rc" in argv else (0, 0)
            assert {tuple(json.loads(line)["config"]) for line in out.splitlines()[:5]} == {expected}


def strict_documents(text):
    """The JSON documents of a payload: one indented object, or one a line."""
    if text.startswith("{\n"):
        return [strict_json(text)]
    return [strict_json(line) for line in text.splitlines()]


class TestStrictJson:
    """Every JSON payload is strict JSON, on stdout and in --out and its
    sidecar: an infinity is spelled "inf"/"-inf" and a NaN is null."""

    @pytest.fixture
    def commands(self, tmp_path):
        hot = write(tmp_path, "hot.graph", HOT_PATH3)
        config = write(tmp_path, "z.txt", "011")
        return {
            "reduce": ["reduce", "--from", "rc", "--to", "spins", "--graph", TRIANGLE, "--config", config,
                       "--seed", "1"],
            "verify": ["verify", "--graph", TRIANGLE, "--all-identities"],
            "sample": ["sample", "--world", "rc", "--method", "cftp", "--graph", hot, "--samples", "5",
                       "--seed", "1"],
            "perfect": ["perfect", "--world", "rc", "--graph", hot, "--samples", "5", "--seed", "1"],
        }

    @pytest.mark.parametrize("to_file", [False, True])
    @pytest.mark.parametrize("command", ["reduce", "verify", "sample", "perfect"])
    def test_every_payload_is_strict(self, command, to_file, commands, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(commands[command] + (["--out", str(out)] if to_file else [])) == 0
        texts = [capsys.readouterr().out]
        if to_file:
            texts += [out.read_text(), (tmp_path / "out.json.manifest.json").read_text()]
        documents = [doc for text in texts for doc in strict_documents(text)]
        assert documents

    def test_infinite_mean_and_undefined_spread(self, commands, monkeypatch, capsys):
        # no graph the spins world accepts sums its energy past float
        # range, so a statistic is patched to -inf, whose spread is NaN
        monkeypatch.setitem(STATISTICS["rc"], "edges", lambda g, z: -math.inf)
        assert main(commands["sample"]) == 0
        summary = strict_json(capsys.readouterr().out.splitlines()[-1])
        assert summary["stats"]["edges"] == {"mean": "-inf", "se": None}

    def test_failing_identity_spells_its_infinite_error(self, monkeypatch, capsys):
        # every rc row ruled out: Z_rc = 0, so rc_normalizer's error is inf
        values, _ = exact._WORLD_SPECS["rc"]

        def nothing(g, zs, ruled_out):
            ruled_out[:] = True
            yield from ()

        monkeypatch.setitem(exact._WORLD_SPECS, "rc", (values, nothing))
        assert main(["verify", "--graph", TRIANGLE]) == 1
        report = strict_json(capsys.readouterr().out)
        (rc,) = [c for c in report["checks"] if c["name"] == "rc_normalizer"]
        assert rc["relative_error"] == "inf" and rc["passed"] is False


class TestErrors:
    def test_parse_error_exit_code(self, tmp_path):
        graph = write(tmp_path, "bad.graph", "param beta\n0 0 1\n")
        assert main(["verify", "--graph", graph]) == 2

    def test_missing_file_exit_code(self):
        assert main(["verify", "--graph", "/nonexistent/g.graph"]) == 2

    @pytest.mark.parametrize("target", ["missing/trace.csv", "."], ids=["missing dir", "a dir"])
    def test_unwritable_out_is_input_error(self, tmp_path, capsys, target):
        out = str(tmp_path / target)
        assert main(["chain", "--kernel", "sw", "--graph", TRIANGLE, "--steps", "2",
                     "--seed", "3", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    @pytest.mark.parametrize("target", ["missing/o.txt", "."], ids=["missing dir", "a dir"])
    def test_unwritable_out_fails_before_sampling(self, tmp_path, capsys, monkeypatch, target):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking --out")

        monkeypatch.setattr(cli, "draws", no_sampling)
        out = str(tmp_path / target)
        graph = str(fixture_path("grid3x3", "beta"))
        assert main(["perfect", "--world", "subs", "--graph", graph, "--samples", "20000",
                     "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


class TestOutFile:
    """--out is renamed into place at the end of a run: onto the file a
    symlink names, with the old file's permission bits, and never over
    anything but a regular file."""

    ARGV = ["perfect", "--world", "subs", "--graph", TRIANGLE, "--samples", "3", "--seed", "2"]

    def test_symlinked_out_writes_the_file_it_names(self, tmp_path, capsys):
        assert main(self.ARGV) == 0
        expected = capsys.readouterr().out
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "d.jsonl", tmp_path / "link.jsonl"
        target.write_text("old\n", encoding="utf-8")
        link.symlink_to(target)
        assert main([*self.ARGV, "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target
        assert target.read_text(encoding="utf-8") == expected
        assert (tmp_path / "link.jsonl.manifest.json").is_file()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.jsonl", "data", "link.jsonl", "link.jsonl.manifest.json"]

    def test_out_keeps_its_permission_bits(self, tmp_path):
        out = tmp_path / "d.jsonl"
        out.write_text("old\n", encoding="utf-8")
        out.chmod(0o604)
        assert main([*self.ARGV, "--out", str(out)]) == 0
        assert out.stat().st_mode & 0o777 == 0o604

    def test_out_that_is_no_regular_file_is_input_error(self, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        assert main([*self.ARGV, "--out", str(fifo)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {fifo}: it is not a regular file")
        assert fifo.is_fifo() and sorted(p.name for p in tmp_path.iterdir()) == ["pipe"]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "isingworlds.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "isingworlds" in result.stdout


def test_version_matches_pyproject():
    import isingworlds

    # a regex, not tomllib: Python 3.10 has no TOML reader
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]*)"$', text, re.MULTILINE)
    assert declared is not None and declared.group(1) == isingworlds.__version__


def test_exports_resolve():
    import isingworlds

    assert [name for name in isingworlds.__all__ if not hasattr(isingworlds, name)] == []


def _probe(script, *args, environ=None):
    """Run ``script`` in a fresh interpreter, with ``environ`` (default
    ``os.environ``) plus the source path; its last stdout line is JSON."""
    environ = os.environ if environ is None else environ
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    env = {**environ, "PYTHONPATH": path}
    result = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_COMMANDS_PROBE = """
import json, sys
import isingworlds, isingworlds.cli
from isingworlds.cli import main
seen = {"import": "numpy" in sys.modules}
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen[" ".join(argv[:4])] = "numpy" in sys.modules
print(json.dumps(seen))
"""

_EXPORTS_PROBE = """
import json, os, sys
environ = dict(os.environ)
import isingworlds
before = "numpy" in sys.modules
from isingworlds import exact
from isingworlds import *
print(json.dumps({
    "before": before,
    "environ": dict(os.environ) == environ,
    "attribute": isingworlds.exact_tables is exact.exact_tables,
    "star": all(globals()[name] is getattr(isingworlds, name) for name in isingworlds.__all__),
    "dir": sorted(set(isingworlds.__all__) - set(dir(isingworlds))),
}))
"""


class TestImportGraph:
    """Only the enumeration oracle loads numpy."""

    def test_samplers_run_without_numpy(self, tmp_path):
        config = write(tmp_path, "z.txt", "010")
        common = ["--graph", TRIANGLE, "--seed", "3"]
        runs = [
            ["perfect", "--world", "subs", "--samples", "3", *common],
            ["sample", "--world", "rc", "--method", "chain", "--samples", "3", *common],
            ["sample", "--world", "spins", "--method", "cftp", "--samples", "3", *common],
            ["chain", "--kernel", "subs-sw", "--steps", "5", *common],
            ["reduce", "--from", "rc", "--to", "spins", "--config", config, *common],
            ["verify", "--graph", TRIANGLE],
        ]
        seen = _probe(_COMMANDS_PROBE, json.dumps(runs))
        assert list(seen) == ["import", *(" ".join(argv[:4]) for argv in runs)]
        assert list(seen.values()) == [False] * 6 + [True]

    def test_lazy_exports_resolve(self):
        assert _probe(_EXPORTS_PROBE) == {
            "before": False, "environ": True, "attribute": True, "star": True, "dir": []
        }


_BLAS_PROBE = """
import contextlib, io, json, os, sys
from isingworlds.cli import main
imported = os.environ.get("OPENBLAS_NUM_THREADS")
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    code = main(["verify", "--all-identities", "--graph", sys.argv[1]])
payload = json.loads(stdout.getvalue())
del payload["manifest"]
print(json.dumps({
    "code": code,
    "imported": imported,
    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy": "numpy" in sys.modules,
    "payload": payload,
}))
"""


class TestBlasThreads:
    """The CLI runs the oracle on one OpenBLAS thread unless the user says
    otherwise; the library itself leaves the environment alone."""

    def test_cli_defaults_to_one_thread_and_keeps_a_preset(self, tmp_path):
        # K5: 10 edges, at the kernel caps, so every stationarity check runs
        edges = "".join(f"{i} {j} 0.44\n" for i in range(5) for j in range(i + 1, 5))
        graph = write(tmp_path, "k5.graph", f"param beta\n{edges}")
        unset = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        default = _probe(_BLAS_PROBE, graph, environ=unset)
        preset = _probe(_BLAS_PROBE, graph, environ={**unset, "OPENBLAS_NUM_THREADS": "2"})
        assert {k: default[k] for k in ("code", "imported", "blas_threads", "numpy")} == {
            "code": 0, "imported": None, "blas_threads": "1", "numpy": True
        }
        assert {k: preset[k] for k in ("code", "imported", "blas_threads", "numpy")} == {
            "code": 0, "imported": "2", "blas_threads": "2", "numpy": True
        }
        assert any(c["name"].startswith("stationarity[") for c in default["payload"]["checks"])
        assert default["payload"] == preset["payload"]

    @pytest.mark.parametrize("command", [
        ["verify", "--graph", TRIANGLE],
        ["sample", "--world", "rc", "--method", "enum", "--graph", TRIANGLE,
         "--samples", "3", "--seed", "1"],
    ], ids=["verify", "sample enum"])
    def test_sidecar_records_the_oracle_threads(self, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        out = str(tmp_path / "payload.txt")
        assert main([*command, "--out", out]) == 0
        with open(out + ".manifest.json", encoding="utf-8") as handle:
            assert json.load(handle)["blas_threads"] == "3"
        assert "blas_threads" not in capsys.readouterr().out
        assert "blas_threads" not in Path(out).read_text(encoding="utf-8")


class TestFieldGuard:
    def test_sampling_rejects_field_graphs(self, tmp_path):
        graph = write(tmp_path, "field.graph", "param beta\nfield 0 1.0\n0 1 0.5\n")
        # refused whatever the sample count, before any draw
        for samples in ("0", "1"):
            assert main(["perfect", "--world", "rc", "--graph", graph,
                         "--samples", samples, "--seed", "0"]) == 2
            for method in ("cftp", "chain"):
                assert main(["sample", "--world", "spins", "--method", method, "--graph", graph,
                             "--samples", samples, "--seed", "0"]) == 2
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
