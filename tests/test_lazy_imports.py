"""NumPy and asyncio load only in the processes that use them.

``import repro`` and every command that reads results or talks to a
server leave NumPy unloaded: it is imported at the first trace
synthesis or palette sizing (``repro.workloads.generators``,
``repro.compression.kernels``).  asyncio is imported by the server
alone.  Each case runs in a fresh interpreter, since ``sys.modules``
of the test process already holds both.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.sim.resultcache import cache_file_name

REPO_ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, *args: str) -> None:
    """Run ``code`` in a fresh interpreter; fail with its stderr if it fails."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_reading_results_never_imports_numpy(tmp_path):
    """A Figure 8 pair read from a copy of the committed bench cache."""
    name = cache_file_name("bench")
    shutil.copyfile(REPO_ROOT / ".repro_cache" / name, tmp_path / name)
    _python(
        """
        import sys
        from pathlib import Path

        import repro
        import repro.dist.coordinator
        import repro.serve.client
        import repro.serve.server
        import repro.sim.report
        from repro.cli import build_parser
        from repro.sim.config import BASE_VICTIM_2MB, BASELINE_2MB, BENCH
        from repro.sim.experiment import ExperimentRunner
        from repro.workloads.suite import sensitive_specs

        build_parser()
        runner = ExperimentRunner(BENCH, cache_dir=Path(sys.argv[1]), jobs=1)
        names = [spec.name for spec in sensitive_specs()[:2]]
        pairs = runner.run_pair(BASELINE_2MB, BASE_VICTIM_2MB, names)
        assert [base.trace for base, _ in pairs] == names
        assert (runner.cache_hits, runner.cache_misses) == (4, 0)
        assert "numpy" not in sys.modules, "reading results imported NumPy"
        """,
        str(tmp_path),
    )


@pytest.mark.parametrize(
    "code",
    [
        pytest.param(
            """
            from repro.sim.parallel import _pool_context

            assert _pool_context().get_start_method() == "fork"
            """,
            id="fork-pool",
            marks=pytest.mark.skipif(
                "fork" not in multiprocessing.get_all_start_methods(),
                reason="no fork start method on this platform",
            ),
        ),
        pytest.param(
            """
            from repro.sim.config import BASELINE_2MB, TEST
            from repro.sim.experiment import ExperimentRunner

            runner = ExperimentRunner(TEST, use_disk_cache=False, jobs=1)
            runner.run_single(BASELINE_2MB, "sjeng.1")
            assert runner.cache_misses == 1
            """,
            id="cold-run",
        ),
    ],
)
def test_simulating_imports_numpy(code):
    """The processes that do need NumPy have it: a forking sweep parent
    (so workers inherit it) and a cold simulation."""
    check = 'import sys\nassert "numpy" in sys.modules, "NumPy was never imported"\n'
    _python(textwrap.dedent(code) + check)


def test_cli_and_client_never_import_asyncio():
    """Only ``repro serve`` runs an event loop."""
    _python(
        """
        import sys

        import repro.serve.client
        from repro.cli import build_parser

        build_parser()
        assert "asyncio" not in sys.modules, "the CLI or client imported asyncio"
        """
    )
