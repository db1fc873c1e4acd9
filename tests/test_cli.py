"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_traces_flags(self):
        args = build_parser().parse_args(["list-traces", "--sensitive"])
        assert args.sensitive

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--trace", "mcf.1"])
        assert args.preset == "bench"
        assert args.machine == "base-victim"
        assert args.jobs is None  # defer to $REPRO_JOBS / serial default

    def test_jobs_flag_everywhere(self):
        for command in (
            ["run", "--trace", "mcf.1"],
            ["compare", "--trace", "mcf.1"],
            ["stats", "--trace", "mcf.1"],
            ["export"],
        ):
            args = build_parser().parse_args(command + ["--jobs", "4"])
            assert args.jobs == 4

    def test_stats_traces_accumulate(self):
        args = build_parser().parse_args(
            ["stats", "--trace", "mcf.1", "--trace", "lbm.1", "--json"]
        )
        assert args.traces == ["mcf.1", "lbm.1"]
        assert args.json
        assert not args.trace_events

    def test_retry_flags_everywhere(self):
        for command in (
            ["run", "--trace", "mcf.1"],
            ["compare", "--trace", "mcf.1"],
            ["stats", "--trace", "mcf.1"],
            ["export"],
            ["sweep"],
        ):
            args = build_parser().parse_args(
                command + ["--retries", "3", "--job-timeout", "2.5"]
            )
            assert args.retries == 3
            assert args.job_timeout == 2.5

    def test_retry_flags_default_to_env_deferral(self):
        args = build_parser().parse_args(["sweep"])
        assert args.retries is None  # defer to $REPRO_RETRIES
        assert args.job_timeout is None  # defer to $REPRO_JOB_TIMEOUT

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--preset", "test", "--trace", "mcf.1", "--trace",
             "sjeng.1", "--strict", "--jobs", "2"]
        )
        assert args.preset == "test"
        assert args.traces == ["mcf.1", "sjeng.1"]
        assert args.strict
        assert args.jobs == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.preset == "bench"
        assert not args.strict
        assert not args.all_traces
        assert args.traces is None

    def test_sweep_has_no_resume_flag(self):
        """A rerun finds a killed sweep's cells cached; no flag asks for it."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--resume"])


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.preset == "bench"
        assert args.socket is None and args.tcp is None
        assert args.max_queue == 1024
        assert args.client_quota == 256
        assert args.jobs is None  # defer to $REPRO_JOBS / serial default

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--preset",
                "test",
                "--tcp",
                "127.0.0.1:9000",
                "--max-queue",
                "8",
                "--client-quota",
                "2",
                "--jobs",
                "4",
            ]
        )
        assert args.tcp == "127.0.0.1:9000"
        assert args.max_queue == 8
        assert args.client_quota == 2

    def test_submit_traces_accumulate(self):
        args = build_parser().parse_args(
            ["submit", "--trace", "mcf.1", "--trace", "lbm.1", "--sweep", "--wait"]
        )
        assert args.traces == ["mcf.1", "lbm.1"]
        assert args.sweep and args.wait and not args.json

    def test_submit_requires_a_trace(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_submit_machine_flags_mirror_run(self):
        args = build_parser().parse_args(
            ["submit", "--trace", "mcf.1", "--machine", "uncompressed", "--ways", "8"]
        )
        assert args.machine == "uncompressed"
        assert args.ways == 8

    def test_serve_worker_flag(self):
        args = build_parser().parse_args(["serve", "--worker"])
        assert args.worker
        assert not build_parser().parse_args(["serve"]).worker

    def test_serve_status_flags(self):
        args = build_parser().parse_args(
            ["serve-status", "--json", "--socket", "/tmp/x.sock", "--timeout", "5"]
        )
        assert args.json and args.socket == "/tmp/x.sock"
        assert args.timeout == 5.0

    def test_submit_sweep_expands_machine_pair(self):
        from repro.cli import _submit_jobs_from_args

        args = build_parser().parse_args(
            ["submit", "--trace", "mcf.1", "--trace", "lbm.1", "--sweep"]
        )
        jobs = _submit_jobs_from_args(args)
        assert len(jobs) == 4  # 2 machines x 2 traces
        assert {job["machine"]["arch"] for job in jobs} == {
            "uncompressed",
            "base-victim",
        }

    def test_submit_single_machine_jobs(self):
        from repro.cli import _submit_jobs_from_args

        args = build_parser().parse_args(
            ["submit", "--trace", "mcf.1", "--machine", "uncompressed"]
        )
        jobs = _submit_jobs_from_args(args)
        assert [job["machine"]["arch"] for job in jobs] == ["uncompressed"]


class TestDispatchParser:
    def test_dispatch_defaults(self):
        from repro.dist.coordinator import (
            DEFAULT_LEASE_SIZE,
            DEFAULT_WORKER_RETRIES,
        )

        args = build_parser().parse_args(["dispatch"])
        assert args.preset == "bench"
        assert args.workers is None and args.worker_specs == []
        assert args.lease_size == DEFAULT_LEASE_SIZE
        assert args.worker_retries == DEFAULT_WORKER_RETRIES
        assert not args.strict and not args.json
        assert args.timeout is None

    def test_dispatch_crash_safety_defaults(self):
        from repro.dist.coordinator import (
            DEFAULT_FOLD_EVERY,
            DEFAULT_HEARTBEAT_INTERVAL,
        )

        args = build_parser().parse_args(["dispatch"])
        assert args.fold_every == DEFAULT_FOLD_EVERY
        assert args.heartbeat == DEFAULT_HEARTBEAT_INTERVAL
        assert args.heartbeat_deadline is None
        assert not args.resume
        assert args.redispatch == 0

    def test_dispatch_crash_safety_flags(self):
        args = build_parser().parse_args(
            ["dispatch", "--fold-every", "4", "--heartbeat", "0.3",
             "--heartbeat-deadline", "1", "--resume", "--redispatch", "2"]
        )
        assert args.fold_every == 4
        assert args.heartbeat == 0.3
        assert args.heartbeat_deadline == 1.0
        assert args.resume
        assert args.redispatch == 2

    def test_dispatch_spawned_fleet_flags(self):
        args = build_parser().parse_args(
            ["dispatch", "--preset", "test", "--trace", "mcf.1",
             "--workers", "3", "--lease-size", "2", "--worker-retries", "1",
             "--strict", "--json", "--timeout", "30"]
        )
        assert args.workers == 3
        assert args.traces == ["mcf.1"]
        assert args.lease_size == 2 and args.worker_retries == 1
        assert args.strict and args.json and args.timeout == 30.0

    def test_dispatch_worker_specs_accumulate(self):
        args = build_parser().parse_args(
            ["dispatch", "--worker", "tcp:10.0.0.2:7700",
             "--worker", "/tmp/fwd/serve.sock"]
        )
        assert args.worker_specs == ["tcp:10.0.0.2:7700", "/tmp/fwd/serve.sock"]

    def test_dispatch_shares_the_sweep_worker_flags(self):
        args = build_parser().parse_args(
            ["dispatch", "--jobs", "4", "--retries", "2",
             "--job-timeout", "9", "--lock-timeout", "5"]
        )
        assert args.jobs == 4 and args.retries == 2
        assert args.job_timeout == 9.0 and args.lock_timeout == 5.0


class TestCommands:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out
        assert "Figure 8" in out
        assert "bench_fig08_basevictim.py" in out

    def test_list_traces(self, capsys):
        assert main(["list-traces"]) == 0
        out = capsys.readouterr().out
        assert "100 traces" in out
        assert "mcf.1" in out

    def test_list_traces_sensitive(self, capsys):
        assert main(["list-traces", "--sensitive"]) == 0
        assert "60 traces" in capsys.readouterr().out

    def test_area(self, capsys):
        assert main(["area"]) == 0
        out = capsys.readouterr().out
        assert "7.3%" in out
        assert "8.5%" in out

    def test_run_single_trace(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "--trace", "sjeng.1", "--preset", "test"]) == 0
        out = capsys.readouterr().out
        assert "IPC:" in out
        assert "victim hits:" in out

    def test_compare(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["compare", "--trace", "sjeng.1", "--preset", "test"]) == 0
        out = capsys.readouterr().out
        assert "base-victim" in out
        assert "uncompressed" in out

    def test_stats_text_mode(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["stats", "--trace", "sjeng.1", "--preset", "test"]) == 0
        out = capsys.readouterr().out
        assert "hit/miss breakdown" in out
        assert "victim-cache occupancy" in out
        assert "partner victimizations" in out
        assert "wall time by phase" in out

    def test_stats_json_mode(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            ["stats", "--trace", "sjeng.1", "--trace", "mcf.1", "--preset", "test", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["traces"]) == ["mcf.1", "sjeng.1"]
        merged = payload["merged"]
        for key in (
            "llc/victim_occupancy",
            "llc/partner_evictions",
            "codec/bdi/size_bytes",
            "hits/llc_victim",
        ):
            assert key in merged
        assert all(metric["kind"] != "timer" for metric in merged.values())
        assert payload["timers"]  # live wall-time is reported separately

    def test_malformed_repro_jobs_is_a_clean_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert main(["run", "--trace", "sjeng.1", "--preset", "test"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "REPRO_JOBS" in err

    def test_sweep_healthy(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(
            ["sweep", "--preset", "test", "--trace", "sjeng.1", "--jobs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "recomputed: 2 cells" in out
        assert "failed: 0 cells" in out
        assert "retries: 0" in out
        # A second run recovers everything from cache.
        assert main(
            ["sweep", "--preset", "test", "--trace", "sjeng.1", "--jobs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "recovered from cache: 2 cells" in out
        assert "recomputed: 0 cells" in out

    def test_sweep_rerun_recovers_the_cells_already_cached(
        self, capsys, tmp_path, monkeypatch
    ):
        """What a killed sweep finished is in the cache: the rerun lists
        it as recovered, computes the rest and leaves the file sorted."""
        from repro.sim.resultcache import read_cache_entries

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "--trace", "sjeng.1", "--preset", "test"]) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "--preset", "test", "--trace", "sjeng.1", "--jobs", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "recovered from cache: 1 cells" in out
        assert "recomputed: 1 cells" in out
        keys = list(read_cache_entries(next(tmp_path.glob("results-v*.jsonl")))[0])
        assert len(keys) == 2 and keys == sorted(keys)

    def test_stats_reports_corrupt_lines_skipped(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["stats", "--trace", "sjeng.1", "--preset", "test"]) == 0
        capsys.readouterr()
        cache_file = next(tmp_path.glob("results-v*.jsonl"))
        with cache_file.open("a") as handle:
            handle.write('{"torn line\n')
        with pytest.warns(Warning):
            assert main(["stats", "--trace", "sjeng.1", "--preset", "test"]) == 0
        assert "corrupt cache lines skipped: 1" in capsys.readouterr().out

    def test_compare_parallel_matches_serial(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "serial"))
        assert main(["compare", "--trace", "sjeng.1", "--preset", "test", "--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        assert main(["compare", "--trace", "sjeng.1", "--preset", "test", "--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out


class TestLockAndValidationFlags:
    def test_lock_timeout_flag_everywhere(self):
        for command in (
            ["run", "--trace", "mcf.1"],
            ["compare", "--trace", "mcf.1"],
            ["stats", "--trace", "mcf.1"],
            ["export"],
            ["sweep"],
            ["cache", "canonicalize"],
        ):
            args = build_parser().parse_args(command + ["--lock-timeout", "5"])
            assert args.lock_timeout == 5.0

    def test_lock_timeout_defaults_to_env_deferral(self):
        args = build_parser().parse_args(["sweep"])
        assert args.lock_timeout is None  # defer to $REPRO_LOCK_TIMEOUT

    def test_cache_subcommand_parses(self):
        args = build_parser().parse_args(["cache", "verify", "--strict"])
        assert args.command == "cache"
        assert args.cache_command == "verify"
        assert args.strict
        args = build_parser().parse_args(
            ["cache", "verify", "--cache-dir", "/tmp/x"]
        )
        assert args.cache_dir == "/tmp/x"
        args = build_parser().parse_args(
            ["cache", "canonicalize", "--lock-timeout", "5"]
        )
        assert args.cache_command == "canonicalize"
        assert args.lock_timeout == 5.0

    def test_cache_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    @pytest.mark.parametrize(
        "command", [["cache", "migrate"], ["trace", "migrate", "t.rptr"]]
    )
    def test_retired_migrate_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(command)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_policy_is_a_structured_cli_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["run", "--trace", "sjeng.1", "--preset", "test", "--policy", "mru"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "policy" in err and "'mru'" in err
        assert "valid choices" in err and "nru" in err

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--preset", "test"],
            ["compare", "--preset", "test"],
            ["stats", "--preset", "test", "--trace", "sjeng.1"],
            ["perf", "--preset", "test"],
            ["sweep", "--preset", "test"],
            ["submit"],
            ["dispatch", "--preset", "test", "--workers", "1"],
        ],
        ids=lambda command: command[0],
    )
    def test_unknown_trace_is_rejected_up_front(
        self, command, capsys, tmp_path, monkeypatch
    ):
        """An unknown --trace exits 2 with one line naming it, before any
        runner, cache file, shard directory or worker exists."""
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
        assert main(command + ["--trace", "nosuch"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: unknown trace 'nosuch' (see repro list-traces)"
        ]
        assert not cache_dir.exists()

    def test_unknown_victim_policy_is_rejected_eagerly(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(
            ["run", "--trace", "sjeng.1", "--preset", "test",
             "--victim-policy", "bogus"]
        )
        assert code == 2
        assert "victim_policy" in capsys.readouterr().err


class TestCacheCommands:
    @staticmethod
    def _seed_cache(tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["run", "--trace", "sjeng.1", "--preset", "test"]) == 0
        return next(tmp_path.glob("results-v*.jsonl"))

    def test_verify_clean_cache(self, capsys, tmp_path, monkeypatch):
        self._seed_cache(tmp_path, monkeypatch)
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "results-v5-test.jsonl" in out
        assert "0 with rejected lines" in out

    @pytest.mark.parametrize("mask", [0x04, 0x80], ids=["bit2", "bit7"])
    def test_verify_strict_fails_on_flipped_bit(
        self, capsys, tmp_path, monkeypatch, mask
    ):
        cache_file = self._seed_cache(tmp_path, monkeypatch)
        raw = bytearray(cache_file.read_bytes())
        raw[20] ^= mask
        cache_file.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert main(
            ["cache", "verify", "--cache-dir", str(tmp_path), "--strict"]
        ) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_verify_empty_directory(self, capsys, tmp_path):
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "no cache files" in capsys.readouterr().out

    def test_stale_version_files_are_listed_and_never_rewritten(
        self, capsys, tmp_path, monkeypatch
    ):
        """Only current-version files are read or rewritten.

        A v4 file beside the v5 cache survives ``canonicalize`` byte for
        byte, and its presence fails ``verify --strict``.
        """
        import json as _json

        from repro.sim.resultcache import load_cache_entries

        cache_file = self._seed_cache(tmp_path, monkeypatch)
        stale = tmp_path / "results-v4-test.jsonl"
        stale.write_text(
            "".join(
                _json.dumps({"key": key, "result": result}) + "\n"
                for key, result in load_cache_entries(cache_file).items()
            )
        )
        original = stale.read_bytes()
        capsys.readouterr()
        assert main(["cache", "canonicalize", "--cache-dir", str(tmp_path)]) == 0
        assert "results-v4-test.jsonl: stale v4 file" in capsys.readouterr().out
        assert stale.read_bytes() == original
        assert main(["cache", "verify", "--cache-dir", str(tmp_path)]) == 0
        assert "1 stale" in capsys.readouterr().out
        assert main(
            ["cache", "verify", "--cache-dir", str(tmp_path), "--strict"]
        ) == 1
        assert "verification failed" in capsys.readouterr().err

    def test_canonicalize_sorts_and_is_idempotent(self, capsys, tmp_path, monkeypatch):
        from repro.sim.resultcache import load_cache_entries

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        # Two runs in reverse-key-friendly order: write order != key order.
        assert main(["run", "--trace", "sjeng.1", "--preset", "test"]) == 0
        assert main(["run", "--trace", "astar.1", "--preset", "test"]) == 0
        cache_file = next(tmp_path.glob("results-v*.jsonl"))
        entries = load_cache_entries(cache_file)
        capsys.readouterr()

        assert main(["cache", "canonicalize", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "canonical (2 entries)" in out
        canonical = cache_file.read_bytes()
        keys = list(load_cache_entries(cache_file))
        assert keys == sorted(keys)  # key-sorted on disk
        assert load_cache_entries(cache_file) == entries  # nothing lost
        # Idempotent: a second pass rewrites identical bytes.
        assert main(["cache", "canonicalize", "--cache-dir", str(tmp_path)]) == 0
        assert cache_file.read_bytes() == canonical

    def test_canonicalize_empty_directory(self, capsys, tmp_path):
        assert main(["cache", "canonicalize", "--cache-dir", str(tmp_path)]) == 0
        assert "no cache files" in capsys.readouterr().out
