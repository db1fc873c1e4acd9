"""Tier-1 enforcement of the docs gate (module map, protocol spec, code refs)."""

import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_architecture_docs.py"


def _run(repo_root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(CHECKER), "--repo-root", str(repo_root)],
        capture_output=True,
        text=True,
    )


def test_architecture_module_map_matches_tree():
    proc = _run(REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "docs gate OK" in proc.stdout


def test_gate_fails_on_undocumented_module(tmp_path):
    shutil.copy(REPO_ROOT / "ARCHITECTURE.md", tmp_path / "ARCHITECTURE.md")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "brand_new_module.py").write_text("")
    proc = _run(tmp_path)
    assert proc.returncode == 1
    assert "repro.brand_new_module" in proc.stdout
    assert "missing from ARCHITECTURE.md" in proc.stdout


def test_gate_fails_on_stale_doc_entry(tmp_path):
    text = (REPO_ROOT / "ARCHITECTURE.md").read_text()
    text = text.replace(
        "repro.sim.retry",
        "repro.sim.retired_module",
    )
    (tmp_path / "ARCHITECTURE.md").write_text(text)
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    proc = _run(tmp_path)
    assert proc.returncode == 1
    assert "repro.sim.retired_module" in proc.stdout
    assert "no longer exist" in proc.stdout


def _protocol_fixture(tmp_path: Path, protocol_text: str) -> Path:
    """A repo-shaped tree with real code and a (possibly doctored) spec."""
    shutil.copy(REPO_ROOT / "ARCHITECTURE.md", tmp_path / "ARCHITECTURE.md")
    (tmp_path / "PROTOCOL.md").write_text(protocol_text)
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    return tmp_path


def test_gate_fails_on_missing_protocol_spec(tmp_path):
    shutil.copy(REPO_ROOT / "ARCHITECTURE.md", tmp_path / "ARCHITECTURE.md")
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    proc = _run(tmp_path)
    assert proc.returncode == 1
    assert "PROTOCOL.md is missing" in proc.stdout


def test_gate_fails_on_invalid_protocol_example(tmp_path):
    # Corrupt one documented example: a field no parser accepts.
    text = (REPO_ROOT / "PROTOCOL.md").read_text()
    doctored = text.replace('"op": "lease"', '"op": "lease", "wait": true', 1)
    assert doctored != text
    proc = _run(_protocol_fixture(tmp_path, doctored))
    assert proc.returncode == 1
    assert "unknown lease field" in proc.stdout


def test_gate_fails_on_stale_protocol_constant(tmp_path):
    text = (REPO_ROOT / "PROTOCOL.md").read_text()
    doctored = text.replace("| `PROTOCOL_VERSION` | 3 |", "| `PROTOCOL_VERSION` | 7 |")
    assert doctored != text
    proc = _run(_protocol_fixture(tmp_path, doctored))
    assert proc.returncode == 1
    assert "PROTOCOL.md states PROTOCOL_VERSION = 7" in proc.stdout


def test_gate_fails_on_stale_example_protocol_version(tmp_path):
    text = (REPO_ROOT / "PROTOCOL.md").read_text()
    doctored = text.replace('"protocol": 3', '"protocol": 2', 1)
    assert doctored != text
    proc = _run(_protocol_fixture(tmp_path, doctored))
    assert proc.returncode == 1
    assert "protocol 2 is not PROTOCOL_VERSION 3" in proc.stdout


def test_gate_fails_when_spec_omits_an_event(tmp_path):
    # Dropping every ``lease-done`` example must trip the coverage check.
    text = (REPO_ROOT / "PROTOCOL.md").read_text()
    doctored = text.replace('"event": "lease-done"', '"event": "done"')
    assert doctored != text
    proc = _run(_protocol_fixture(tmp_path, doctored))
    assert proc.returncode == 1
    assert "no example for event 'lease-done'" in proc.stdout


def test_gate_fails_on_unresolved_code_reference(tmp_path):
    fixture = _protocol_fixture(tmp_path, (REPO_ROOT / "PROTOCOL.md").read_text())
    (fixture / "README.md").write_text(
        "# Notes\n"
        "\n"
        "The kernel is `repro.sim.batch.scalar_kernel` in `repro/sim/batch.py`.\n"
        "Traces came from `repro.workloads.nosuch`,\n"
        "which lived in `src/repro/nosuch.py`.\n"
        "```\n"
        "`repro.fenced.blocks.are.not.prose`\n"
        "```\n"
    )
    proc = _run(fixture)
    assert proc.returncode == 1
    assert "README.md:4: repro.workloads.nosuch" in proc.stdout
    assert "README.md:5: src/repro/nosuch.py" in proc.stdout
    # Resolvable references and fenced blocks are not reported.
    assert "README.md:3:" not in proc.stdout
    assert "README.md:7:" not in proc.stdout


def test_readme_links_architecture():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "ARCHITECTURE.md" in readme
    assert "PROTOCOL.md" in readme
