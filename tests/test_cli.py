"""The command-line interface."""

import json

import pytest

from repro.cli import main


class TestClassify:
    def test_q_hierarchical(self, capsys):
        assert main(["classify", "Q(Y,X,Z) = R(Y,X) * S(Y,Z)"]) == 0
        out = capsys.readouterr().out
        assert "q-hierarchical:        yes" in out
        assert "plan: viewtree" in out

    def test_with_fds(self, capsys):
        code = main(
            [
                "classify",
                "Q(Z,Y,X,W) = R(X,W) * S(X,Y) * T(Y,Z)",
                "--fd",
                "X -> Y",
                "--fd",
                "Y -> Z",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "q-hier. under FDs:     yes" in out
        assert "plan: fd-viewtree" in out

    def test_cqap(self, capsys):
        main(["classify", "Q(. | A, B, C) = E(A,B) * E(B,C) * E(C,A)"])
        out = capsys.readouterr().out
        assert "tractable CQAP:        yes" in out
        assert "plan: cqap" in out

    def test_static(self, capsys):
        main(["classify", "Q(A,B,C) = R(A,D) * S(A,B) * T@s(B,C)"])
        out = capsys.readouterr().out
        assert "static/dyn tractable:  yes" in out

    def test_insert_only_flag(self, capsys):
        main(
            [
                "classify",
                "Q(A,B,C,D) = R(A,B) * S(B,C) * T(C,D)",
                "--insert-only",
            ]
        )
        out = capsys.readouterr().out
        assert "plan: insert-only" in out

    def test_triangle(self, capsys):
        main(["classify", "Q() = R(A,B) * S(B,C) * T(C,A)"])
        out = capsys.readouterr().out
        assert "plan: ivm-eps-triangle" in out


class TestDemo:
    def test_fig2_numbers(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Q = 9" in out
        assert "Q = 5" in out
        assert "3 - 2 = 1" in out


class TestStats:
    def test_replay_prints_recorder(self, capsys):
        code = main(
            [
                "stats",
                "Q(A) = R(A,B) * S(B)",
                "--updates",
                "200",
                "--prefill",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:  viewtree" in out
        assert "updates" in out
        assert "replayed 200 updates" in out

    def test_json_dump(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        code = main(
            [
                "stats",
                "Q() = R(A,B) * S(B,C) * T(C,A)",
                "--updates",
                "300",
                "--prefill",
                "20",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == "repro.obs/1"
        assert data["stats"]["updates"] + data["stats"]["batches"] > 0
        assert data["meta"]["plan"] == "ivm-eps-triangle"
        assert data["meta"]["updates"] == 300

    def test_sharded_zipf_replay(self, tmp_path, capsys):
        path = tmp_path / "sharded.json"
        code = main(
            [
                "stats",
                "Q(B,A) = R(B,A) * S(B)",
                "--updates",
                "400",
                "--shards",
                "4",
                "--workload",
                "zipf",
                "--zipf-s",
                "1.5",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:  sharded-viewtree" in out
        assert "workload: zipf" in out
        assert "per-shard maintenance:" in out
        with open(path) as handle:
            data = json.load(handle)
        assert data["schema"] == "repro.obs/1"
        assert data["meta"]["plan"] == "sharded-viewtree"
        assert data["meta"]["shards"] == 4
        assert data["meta"]["workload"] == "zipf"
        shards = data["stats"]["shards"]
        assert set(shards) == {f"shard{i}" for i in range(4)}
        assert sum(s["batches"] for s in shards.values()) > 0

    def test_static_only_query_refused(self, capsys):
        code = main(["stats", "Q(A,B) = R@s(A,B)", "--updates", "10"])
        assert code == 1
        out = capsys.readouterr().out
        assert "no dynamic relations" in out

    def test_sliding_window_batched_replay(self, tmp_path, capsys):
        path = tmp_path / "window.json"
        code = main(
            [
                "stats",
                "Q(Y,X,Z) = R(Y,X) * S(Y,Z)",
                "--updates",
                "600",
                "--workload",
                "sliding-window",
                "--window",
                "64",
                "--batch-size",
                "50",
                "--json",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "workload: sliding-window (window=64)" in out
        # The batch kernel engaged: coalescing counters are non-zero.
        assert "batch kernel:" in out
        with open(path) as handle:
            data = json.load(handle)
        assert data["meta"]["workload"] == "sliding-window"
        assert data["meta"]["window"] == 64
        assert data["meta"]["batch"] == 50
        batch = data["stats"]["batch"]
        assert batch["raw_updates"] > 0
        assert batch["raw_updates"] >= batch["coalesced_updates"]

    def test_sliding_window_requires_deletes(self, capsys):
        code = main(
            [
                "stats",
                "Q(A) = R(A,B) * S(B)",
                "--workload",
                "sliding-window",
                "--insert-only",
            ]
        )
        assert code == 1
        assert "needs deletes" in capsys.readouterr().out

    def test_batch_size_alias(self, capsys):
        code = main(
            [
                "stats",
                "Q(A) = R(A,B) * S(B)",
                "--updates",
                "100",
                "--batch",
                "25",
            ]
        )
        assert code == 0
        capsys.readouterr()


class TestStatsStream:
    """``stats`` replays :func:`repro.serve.loadgen.update_stream`: the
    one synthetic generator, seeded ``--seed``."""

    QUERY = "Q(A, C) = R(A, B) * S(B, C)"

    def _handed(self, monkeypatch, argv):
        """The updates ``stats`` hands its engine, in order."""
        from repro.core.engine import IVMEngine

        handed = []
        apply, apply_batch = IVMEngine.apply, IVMEngine.apply_batch

        def one(self, update):
            handed.append(update)
            return apply(self, update)

        def batch(self, updates):
            handed.extend(updates)
            return apply_batch(self, updates)

        monkeypatch.setattr(IVMEngine, "apply", one)
        monkeypatch.setattr(IVMEngine, "apply_batch", batch)
        assert main(["stats", self.QUERY, *argv]) == 0
        return handed

    @pytest.mark.parametrize("workload", ["uniform", "zipf", "sliding-window"])
    @pytest.mark.parametrize("batch", ["1", "32"])
    def test_replays_update_stream(self, workload, batch, monkeypatch, capsys):
        from repro.query.parser import parse_query
        from repro.serve.loadgen import update_stream

        handed = self._handed(monkeypatch, [
            "--updates", "300", "--seed", "7", "--domain", "9",
            "--workload", workload, "--zipf-s", "1.4", "--window", "40",
            "--batch", batch,
        ])
        capsys.readouterr()
        expected = update_stream(
            parse_query(self.QUERY), 300, domain=9, seed=7,
            workload=workload, zipf_s=1.4, window=40, deletes_ok=True,
        )
        assert handed == list(expected)

    def test_insert_only_stream_has_no_deletes(self, monkeypatch, capsys):
        handed = self._handed(
            monkeypatch, ["--updates", "200", "--insert-only", "--batch", "1"]
        )
        capsys.readouterr()
        assert len(handed) == 200
        assert all(update.payload == 1 for update in handed)

    def test_json_reports_the_replay_ops(self, tmp_path, capsys):
        path = tmp_path / "ops.json"
        code = main(
            ["stats", "Q(A) = R(A,B) * S(B)", "--updates", "200", "--json", str(path)]
        )
        assert code == 0
        assert "elementary ops:" in capsys.readouterr().out
        with open(path) as handle:
            ops = json.load(handle)["stats"]["ops"]
        assert ops["lookup"] > 0 and ops["write"] > 0, ops


class TestSharedOptions:
    """``stats`` and ``serve`` declare their common flags once; each
    keeps its own defaults and its ``meta`` block."""

    SHARED = [
        "--prefill", "5", "--seed", "3", "--shards", "2",
        "--shard-executor", "serial", "--workload", "zipf", "--zipf-s", "1.5",
        "--window", "32", "--fd", "A -> B",
    ]

    def _meta(self, argv, path):
        assert main([*argv, "--json", str(path)]) == 0
        with open(path) as handle:
            return json.load(handle)["meta"]

    def test_per_command_defaults(self, tmp_path, capsys):
        query = "Q(A) = R(A,B) * S(B)"
        stats = self._meta(["stats", query, "--updates", "50"], tmp_path / "a")
        serve = self._meta(["serve", query, "--updates", "50"], tmp_path / "b")
        capsys.readouterr()
        assert (stats["domain"], serve["domain"]) == (10, 16)
        for meta in (stats, serve):
            assert meta["prefill"] == 50 and meta["seed"] == 0
            assert meta["shards"] == 1 and meta["shard_executor"] is None
            assert meta["workload"] == "uniform"
            assert meta["zipf_s"] is None and meta["window"] is None

    @pytest.mark.parametrize("command", ["stats", "serve"])
    def test_both_commands_take_every_shared_flag(self, command, tmp_path, capsys):
        meta = self._meta(
            [command, "Q(B,A) = R(B,A) * S(B)", "--updates", "60",
             "--domain", "7", *self.SHARED],
            tmp_path / "out.json",
        )
        out = capsys.readouterr().out
        assert "workload: zipf (s=1.5)" in out
        assert "per-shard maintenance:" in out
        assert meta["domain"] == 7 and meta["prefill"] == 5 and meta["seed"] == 3
        assert meta["shards"] == 2 and meta["shard_executor"] == "serial"
        assert meta["zipf_s"] == 1.5 and meta["window"] is None

    @pytest.mark.parametrize("command", ["benchplot", "benchdiff"])
    def test_benchplot_is_gone(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "x.json", "y.json"])
        assert exc.value.code == 2


class TestErrors:
    def test_bad_query(self):
        with pytest.raises(Exception):
            main(["classify", "not a query"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])
