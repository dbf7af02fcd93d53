"""Unit tests for the command-line interface."""

import contextlib
import io

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@contextlib.contextmanager
def socket_server(tmp_path, *extra):
    """A ``serve --socket`` process on the wiki proxy with its store in
    ``tmp_path / "store"``; yields the socket path, then stops the
    server and checks that it exited cleanly."""
    import os
    import subprocess
    import sys
    import time
    from pathlib import Path

    from repro.serve import request

    path = str(tmp_path / "serve.sock")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--graph", "wiki",
         "--scale", "0.25", "--store-dir", str(tmp_path / "store"),
         "--socket", path, *extra],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not os.path.exists(path):
            assert server.poll() is None, "server exited early"
            assert time.monotonic() < deadline, "socket never came up"
            time.sleep(0.1)
        yield path
        request(path, {"op": "stop"})
        assert server.wait(timeout=60) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "table1"])
        assert args.name == "table1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestCommands:
    def test_engines(self):
        code, text = run_cli("engines")
        assert code == 0
        for name in ("mixen", "pull", "ligra"):
            assert name in text

    def test_datasets(self):
        code, text = run_cli("datasets")
        assert code == 0
        assert "Table 1" in text and "Table 2" in text
        assert "weibo" in text

    def test_run_pagerank(self):
        code, text = run_cli(
            "run", "--graph", "road", "--engine", "pull",
            "--algorithm", "pagerank", "--iterations", "5",
            "--scale", "0.25", "--top", "2",
        )
        assert code == 0
        assert "pagerank on road via pull" in text
        assert "node" in text

    def test_run_cf_rank_k_scores(self):
        code, text = run_cli(
            "run", "--graph", "road", "--engine", "mixen",
            "--algorithm", "cf", "--iterations", "2", "--scale", "0.25",
        )
        assert code == 0

    def test_bfs(self):
        code, text = run_cli(
            "bfs", "--graph", "road", "--engine", "ligra",
            "--scale", "0.25",
        )
        assert code == 0
        assert "reached" in text

    def test_bfs_bad_source_is_clean_error(self):
        code, _ = run_cli(
            "bfs", "--graph", "road", "--source", "999999",
            "--scale", "0.25",
        )
        assert code == 1

    def test_experiment_table1(self, tmp_path):
        code, text = run_cli(
            "experiment", "table1", "--save", str(tmp_path)
        )
        assert code == 0
        assert "Table 1" in text
        assert (tmp_path / "table1_structure.txt").exists()

    def test_experiment_registry_complete(self):
        # Every paper artifact is reachable from the CLI.
        for required in (
            "table1", "table2", "table3", "table4",
            "fig4", "fig5", "fig6", "fig7",
        ):
            assert required in EXPERIMENTS


class TestAnalyzeCommand:
    def test_analyze_report(self):
        code, text = run_cli(
            "analyze", "--graph", "wiki", "--scale", "0.25"
        )
        assert code == 0
        assert "contract report" in text
        assert "race-proof" in text
        assert "all passed" in text

    def test_analyze_dynamic(self):
        code, text = run_cli(
            "analyze", "--graph", "road", "--scale", "0.25",
            "--block-nodes", "256", "--dynamic",
        )
        assert code == 0
        assert "race-replay" in text


class TestValidationFlags:
    def test_run_with_validate_and_race_check(self):
        code, text = run_cli(
            "run", "--graph", "wiki", "--engine", "mixen",
            "--algorithm", "pagerank", "--iterations", "2",
            "--scale", "0.25", "--validate", "--race-check",
        )
        assert code == 0
        assert "pagerank on wiki via mixen" in text

    def test_bfs_with_validate(self):
        code, _ = run_cli(
            "bfs", "--graph", "wiki", "--engine", "block",
            "--scale", "0.25", "--validate",
        )
        assert code == 0

    def test_validate_rejected_for_plain_engines(self):
        code, _ = run_cli(
            "run", "--graph", "road", "--engine", "pull",
            "--scale", "0.25", "--validate",
        )
        assert code == 1

    def test_race_check_rejected_for_plain_engines(self):
        code, _ = run_cli(
            "bfs", "--graph", "road", "--engine", "ligra",
            "--scale", "0.25", "--race-check",
        )
        assert code == 1


class TestTuneCommand:
    """End-to-end coverage for ``tune`` and the ``--tuned`` flag."""

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("tuned") / "wiki.json"
        code, text = run_cli(
            "tune", "--graph", "wiki", "--scale", "0.25",
            "--orderings", "none,degree,bfs",
            "--block-sweep", "128,512",
            "--out", str(path),
        )
        assert code == 0
        assert "tuned wiki" in text
        assert "[saved to" in text
        return path

    def test_blob_written(self, blob):
        import json

        payload = json.loads(blob.read_text())
        assert payload["graph"]["name"] == "wiki"
        assert payload["choice"]["reorder"] in ("none", "degree", "bfs")
        assert payload["choice"]["block_nodes"] in (128, 512)

    def test_reorder_flag_choices(self):
        args = build_parser().parse_args(
            ["run", "--graph", "wiki", "--reorder", "hubsort"]
        )
        assert args.reorder == "hubsort"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "wiki", "--reorder", "metis"]
            )

    def test_run_tuned_matches_explicit_flags(self, blob):
        import json

        choice = json.loads(blob.read_text())["choice"]
        code, tuned_text = run_cli(
            "run", "--graph", "wiki", "--scale", "0.25",
            "--engine", "mixen", "--iterations", "5",
            "--tuned", str(blob),
        )
        assert code == 0
        explicit = [
            "run", "--graph", "wiki", "--scale", "0.25",
            "--engine", "mixen", "--iterations", "5",
            "--block-nodes", str(choice["block_nodes"]),
        ]
        if choice["reorder"] != "none":
            explicit += ["--reorder", choice["reorder"]]
        code, explicit_text = run_cli(*explicit)
        assert code == 0

        def node_lines(text):
            return [ln for ln in text.splitlines() if "node" in ln]

        assert node_lines(tuned_text) == node_lines(explicit_text)

    def test_bfs_tuned_matches_untuned(self, blob):
        code, tuned_text = run_cli(
            "bfs", "--graph", "wiki", "--scale", "0.25",
            "--engine", "mixen", "--tuned", str(blob),
        )
        assert code == 0
        code, plain_text = run_cli(
            "bfs", "--graph", "wiki", "--scale", "0.25",
            "--engine", "mixen",
        )
        assert code == 0
        # reach/depth are label-invariant, so the report is identical
        # once the wall-clock timing suffix is stripped
        import re

        strip = lambda text: re.sub(r"[\d.]+ ms", "<ms>", text)  # noqa: E731
        assert strip(tuned_text) == strip(plain_text)

    def test_mismatched_blob_refused(self, blob):
        # the blob fingerprints wiki @0.25; any other graph must be
        # refused with the tuning exit code
        code, _ = run_cli(
            "run", "--graph", "road", "--scale", "0.25",
            "--engine", "mixen", "--iterations", "2",
            "--tuned", str(blob),
        )
        assert code == 13

    def test_missing_blob_refused(self, tmp_path):
        code, _ = run_cli(
            "run", "--graph", "wiki", "--scale", "0.25",
            "--tuned", str(tmp_path / "nope.json"),
        )
        assert code == 13


class TestDefaultKernel:
    """Commands run without ``--kernel``: ``run``/``bfs`` build
    ``bincount`` engines, ``serve`` keeps ``reduceat`` (test names keep
    the earlier batch default)."""

    @pytest.mark.parametrize("command", ("run", "bfs"))
    @pytest.mark.parametrize("engine_name", ("mixen", "block"))
    def test_blocked_commands_build_reduceat_engines(
        self, monkeypatch, command, engine_name
    ):
        import repro.cli as cli

        built = []
        original = cli.make_engine

        def recording_make_engine(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "make_engine", recording_make_engine)
        argv = [command, "--graph", "wiki", "--scale", "0.25",
                "--engine", engine_name]
        if command == "run":
            argv += ["--iterations", "2"]
        code, _ = run_cli(*argv)
        assert code == 0
        assert [engine.kernel for engine in built] == ["bincount"]

    def test_serve_drill_serves_from_reduceat(self, tmp_path):
        import json

        code, text = run_cli(
            "serve", "--graph", "wiki", "--scale", "0.25",
            "--store-dir", str(tmp_path / "store"), "--requests", "4",
            "--window", "0.01", "--max-batch", "4", "--json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["serve"]["batch_kernels"] == ["reduceat"]
        assert report["verified"] == report["completed"] == 4

    def test_serve_socket_auto_reports_reduceat(self, tmp_path):
        from repro.serve import request

        # --kernel auto resolves like the batch default, to bincount.
        with socket_server(tmp_path, "--kernel", "auto") as path:
            health = request(path, {"op": "health"})
            assert health["ok"] and health["health"]["kernel"] == "bincount"
            reply = request(path, {"op": "query", "sources": [3, 17]})
            assert reply["ok"] and reply["kernel"] == "bincount"


class TestServeRestart:
    def test_restart_after_insert_then_delete_boots_warm(self, tmp_path):
        # Epochs live in memory: an update stream that returns the
        # graph to its boot content leaves the boot layout in the
        # store, so the next restart is warm.
        import numpy as np

        from repro.graphs import load_dataset
        from repro.serve import LayoutStore, boot_engine, request

        graph = load_dataset("wiki", scale=0.25)
        neighbours = graph.csr.indices[
            graph.csr.indptr[0]:graph.csr.indptr[1]
        ]
        target = int(np.setdiff1d(np.arange(1, 64), neighbours)[0])
        with socket_server(tmp_path) as path:
            for op, epoch in (("inserts", 1), ("deletes", 2)):
                reply = request(
                    path, {"op": "update", op: [[0, target]]}
                )
                assert reply["ok"] and reply["epoch"] == epoch
        _, boot = boot_engine(graph, LayoutStore(tmp_path / "store"))
        assert boot.hit, boot.miss_reason
