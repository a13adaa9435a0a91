"""End-to-end command-line behavior, exit codes, and determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from isingworlds import cli, empirical_distribution, exact_tables, tv_distance
from isingworlds.cftp import DEFAULT_MAX_EPOCH, MAX_EPOCH
from isingworlds.cli import main
from isingworlds.fixtures import fixture_graph, fixture_path
from isingworlds.graphio import load_graph

TRIANGLE = str(fixture_path("triangle", "beta"))


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

    def test_unknown_stat_is_input_error(self):
        assert main(["chain", "--kernel", "sw", "--graph", TRIANGLE, "--steps", "1",
                     "--seed", "3", "--stats", "volume"]) == 2

    def test_repeated_stat_is_input_error(self, capsys):
        assert main(["chain", "--kernel", "sw", "--graph", TRIANGLE, "--steps", "6",
                     "--seed", "3", "--stats", "m,energy,m"]) == 2
        assert capsys.readouterr().out == ""

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
    ("grid3x3", "sample-spins", 7): "20da2794a49102ffcfa26fd7c6c154393b89619c4cd58e94accf513b43e0b9a7",
    ("grid3x3", "sample-spins", 2024): "026b86c1286672c3a90aea8418ed0d29d88d56d44cc70ceabc3adfe084afce71",
    ("cycle4", "perfect-subs", 7): "df2b9a0ae2faf48dcf2496818a0d96efb1ddd026e5b9a104092ec9eb1174e626",
    ("cycle4", "perfect-subs", 2024): "46e2a40aeb340981fde0a89dfd5576baa146233ebf4099a4b262c08274122ba3",
    ("cycle4", "perfect-rc", 7): "f4deebb3ea79768bbd0f93ffaec6890d6edad9eead2ff617d64ccef1e9b8e480",
    ("cycle4", "perfect-rc", 2024): "23095683c8f3f735259f1d7cb470a1a6e970039757f6ee7dcf3b0be7d2bd1a57",
    ("cycle4", "sample-spins", 7): "26eff77472477d235b621cb255424a3b878372de5638d7c95b67c6b4b7a6e912",
    ("cycle4", "sample-spins", 2024): "ff3f375d3cf0dc70e4a9f1dff0bebe39949f18fc63a90bf7329b24eb187d188e",
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
    ("triangle", "spins"): "701ac5ea2919c82987799b3e59f7f9962717450a0ff1800dbec65492570785c5",
    ("triangle", "subs"): "4383053d717399220cbbdcaf23b9f9ef7619d1a96fc5198c1389a978ab73fda9",
    ("triangle", "rc"): "1423f97475ad76083bec08089df3b88ae7bd01dcc57251bd9411643451927ac1",
    ("grid3x3", "spins"): "c3aec5488b2f7b0dee3abd96bcfcf0a1594528a56dc78c804ddaa05bad2d4d26",
    ("grid3x3", "subs"): "64ed2f0262b4c5635a854c7d796264db9309dcbe936fa79f3c4474219d5d8a95",
    ("grid3x3", "rc"): "d6d9c8dc483c56c8df725fc523800286690787dcdacb0f4294ce2932580cdb81",
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
    ("grid3x3", "sample-spins"): "aaaacee700f466c3fdd8ee85bfd57df7a31ad6878b161ffdad3eb997794f6f77",
    ("grid3x3", "sample-subs"): "ee0faf23fd2ac20ceb0b1546e2a2cd57e1da25bbcc263cc3e803645118a58f6f",
    ("grid3x3", "sample-rc"): "07a0295eb6ec2c9c38c0b48befe729cea19c6876ae674f976ffcb5dbcf8619b0",
    ("grid12", "chain-sw"): "ef82052487a987e27c73ea6df3b24f5be68bcffffaf0ffe36c78f44416fd9221",
    ("grid12", "chain-subs-sw"): "5a7a1e976bc59e7089e7d15f9dd2196abb36e65a8b1735b025c52aa59bcf218e",
    ("grid12", "sample-spins"): "e8ee8260f5d2812e783290e4f77c563adc9cc96a2313bd98ec4a13f338197675",
    ("grid12", "sample-subs"): "d9d7f5a179f8d128faf31386c6f68090e45ca8a68f9fdc9340fcc1e6027300c8",
    ("grid12", "sample-rc"): "531af75a84fee07c7302ebc41b1e4a9bcf96b907194907fcaf88edc5cfc329da",
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
        draws = [cli._chain_samples(g, world, seed, 1, 1, DEFAULT_MAX_EPOCH)[0]
                 for seed in range(21_000, 21_000 + n)]
        support = int((table.probs > 0.0).sum())
        threshold = math.sqrt(math.log((2.0**support - 2.0) * 4 / delta) / (2 * n))
        assert tv_distance(empirical_distribution(draws, table), table.probs) < threshold

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
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
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
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
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
        report = strict_json(result.stdout)
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

        monkeypatch.setattr(cli, "perfect_sample", no_sampling)
        out = str(tmp_path / target)
        graph = str(fixture_path("grid3x3", "beta"))
        assert main(["perfect", "--world", "subs", "--graph", graph, "--samples", "20000",
                     "--seed", "1", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


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
