"""repro-lint: every rule fires on its fixture, the repo lints clean."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import RULES, Finding, lint_paths, lint_source, main

FIXTURES = Path(__file__).parent / "fixtures"
REPO = Path(__file__).resolve().parents[2]


def findings_for(fixture: str) -> list[Finding]:
    path = FIXTURES / fixture
    return lint_source(path.read_text(), str(path))


def codes_and_lines(findings: list[Finding]) -> list[tuple[str, int]]:
    return [(f.code, f.line) for f in findings]


def line_of(fixture: str, needle: str, occurrence: int = 1) -> int:
    hits = 0
    for lineno, text in enumerate(
        (FIXTURES / fixture).read_text().splitlines(), start=1
    ):
        if needle in text:
            hits += 1
            if hits == occurrence:
                return lineno
    raise AssertionError(f"{needle!r} (#{occurrence}) not in {fixture}")


class TestRules:
    def test_spmd001_rank_branch(self):
        fixture = "spmd001_rank_branch.py"
        found = findings_for(fixture)
        assert codes_and_lines(found) == [
            ("SPMD001", line_of(fixture, "comm.allreduce(data)")),
            ("SPMD001", line_of(fixture, "comm.barrier()")),
        ]
        assert "block forever" in found[0].message
        assert "allreduce" in found[0].message

    def test_spmd002_leaked_request(self):
        fixture = "spmd002_leaked_request.py"
        found = findings_for(fixture)
        assert codes_and_lines(found) == [
            ("SPMD002", line_of(fixture, "comm.isend(np.ones(4), dest=1)")),
            ("SPMD002", line_of(fixture, "req = comm.ireduce")),
        ]
        assert "isend" in found[0].message
        assert "never waited" in found[1].message or "discard" in found[1].message.lower()

    def test_spmd003_blocking_in_pipeline(self):
        fixture = "spmd003_blocking_in_pipeline.py"
        found = findings_for(fixture)
        assert [f.code for f in found] == ["SPMD003"]
        assert found[0].line == line_of(fixture, "comm.allreduce(np.sum(blocks[1]))")
        assert "outstanding" in found[0].message
        assert "ireduce" in found[0].message

    def test_spmd005_mutable_default(self):
        fixture = "spmd005_mutable_default.py"
        found = findings_for(fixture)
        assert [f.code for f in found] == ["SPMD005", "SPMD005"]
        assert found[0].line == line_of(fixture, "def list_default")
        assert found[1].line == line_of(fixture, "def ndarray_default")

    def test_spmd006_env_read(self):
        fixture = "spmd006_env_read.py"
        found = findings_for(fixture)
        assert [f.code for f in found] == ["SPMD006"] * 5
        assert [f.line for f in found] == [
            line_of(fixture, 'os.environ["REPRO_SPMD_BACKEND"]'),
            line_of(fixture, 'os.environ.get("REPRO_SANITIZE", "0")'),
            line_of(fixture, 'os.getenv("REPRO_FAULTS")'),
            line_of(fixture, 'getenv("REPRO_SPMD_POOL", "1")'),
            line_of(fixture, "os.environ.get(OVERLAP_ENV_VAR"),
        ]
        assert "REPRO_SPMD_BACKEND" in found[0].message
        assert "repro.config" in found[0].message
        assert "OVERLAP_ENV_VAR" in found[4].message

    def test_spmd006_exempts_the_config_package(self):
        src = 'import os\nLEVEL = os.environ.get("REPRO_SANITIZE", "0")\n'
        assert lint_source(src, "src/repro/config/runtime.py") == []
        assert [f.code for f in lint_source(src, "src/repro/other.py")] == [
            "SPMD006"
        ]

    def test_spmd007_shm_alloc(self):
        fixture = "spmd007_shm_alloc.py"
        found = findings_for(fixture)
        assert [f.code for f in found] == ["SPMD007"] * 6
        # Every create-spelled allocation in a non-exempt file is a
        # location finding; the errno-blind handler adds one more.  The
        # errno-routed and narrow-subclass handlers add none, and
        # attaching by name is never flagged.
        assert [f.line for f in found] == [
            line_of(fixture, "shared_memory.SharedMemory(create=True"),
            line_of(fixture, "return create_segment(nbytes)"),
            line_of(fixture, "return create_segment(nbytes)", 2),
            line_of(fixture, "except OSError:"),
            line_of(fixture, "return create_segment(nbytes)", 3),
            line_of(fixture, "shared_memory.SharedMemory(name=name, create"),
        ]
        assert "fault gate" in found[0].message
        assert "errno" in found[3].message

    def test_spmd007_exempts_the_gated_layers(self):
        src = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    return shared_memory.SharedMemory(create=True, size=n)\n"
        )
        for exempt in (
            "src/repro/mpi/process_transport.py",
            "src/repro/faults/status.py",
        ):
            assert lint_source(src, exempt) == []
        for gated in ("src/repro/driver.py", "src/repro/resources/governor.py"):
            assert [f.code for f in lint_source(src, gated)] == ["SPMD007"]

    def test_spmd007_errno_blind_handler_flagged_inside_layers(self):
        # The handler half of the rule applies everywhere, gated layers
        # included: exhaustion must never be silently swallowed.
        src = (
            "from multiprocessing import shared_memory\n"
            "def alloc(n):\n"
            "    try:\n"
            "        return shared_memory.SharedMemory(create=True, size=n)\n"
            "    except OSError:\n"
            "        return None\n"
        )
        found = lint_source(src, "src/repro/faults/status.py")
        assert [f.code for f in found] == ["SPMD007"]

    def test_spmd008_implicit_dtype(self):
        # The rule is scoped to the kernel and distributed trees, so the
        # fixture is linted under a synthetic in-scope path.
        fixture = "spmd008_implicit_dtype.py"
        src = (FIXTURES / fixture).read_text()
        found = lint_source(src, f"src/repro/distributed/{fixture}")
        assert [f.code for f in found] == ["SPMD008"] * 6
        assert [f.line for f in found] == [
            line_of(fixture, "np.empty(shape)  # flagged"),
            line_of(fixture, "np.zeros(shape)  # flagged"),
            line_of(fixture, "np.ones(shape)  # flagged"),
            line_of(fixture, "np.full(shape, 1.0)  # flagged"),
            line_of(fixture, "np.array([0.25, 0.5, 0.25])"),
            line_of(fixture, "np.asarray((1.0, 2.0))"),
        ]
        assert "float64" in found[0].message
        assert "match_dtype" in found[0].message

    def test_spmd008_fires_only_inside_scoped_trees(self):
        src = "import numpy as np\nbuf = np.zeros((4, 4))\n"
        for scoped in (
            "src/repro/distributed/gram.py",
            "src/repro/tensor/ttm.py",
        ):
            assert [f.code for f in lint_source(src, scoped)] == ["SPMD008"]
        for outside in (
            "src/repro/perfmodel/machine.py",
            "benchmarks/test_perf_kernels.py",
            str(FIXTURES / "spmd008_implicit_dtype.py"),
        ):
            assert lint_source(src, outside) == []

    def test_suppression_comments(self):
        assert findings_for("suppressed.py") == []

    def test_every_rule_has_a_firing_fixture(self):
        fired = set()
        for fixture in FIXTURES.glob("spmd*.py"):
            fired.update(f.code for f in findings_for(fixture.name))
            # Path-scoped rules (SPMD008) only fire inside the kernel and
            # distributed trees; lint each fixture there as well.
            fired.update(
                f.code
                for f in lint_source(
                    fixture.read_text(),
                    f"src/repro/distributed/{fixture.name}",
                )
            )
        assert fired == set(RULES)


class TestAnalyzerPrecision:
    """No false positives on the idioms the runtime itself relies on."""

    def test_paired_p2p_under_rank_branch_is_legal(self):
        src = (
            "def exchange(comm, data):\n"
            "    if comm.rank % 2 == 0:\n"
            "        comm.send(data, dest=comm.rank + 1)\n"
            "        return comm.recv(source=comm.rank + 1)\n"
            "    req = comm.isend(data, dest=comm.rank - 1)\n"
            "    out = comm.recv(source=comm.rank - 1)\n"
            "    req.wait()\n"
            "    return out\n"
        )
        assert lint_source(src, "x.py") == []

    def test_closure_capture_consumes_requests(self):
        src = (
            "def pipeline(comm, chunks):\n"
            "    reqs = [comm.isendrecv(c, dest=1, source=1) for c in chunks]\n"
            "    def _drain():\n"
            "        return [r.wait() for r in reqs]\n"
            "    return _drain\n"
        )
        assert lint_source(src, "x.py") == []

    def test_wait_in_loop_consumes(self):
        src = (
            "def staged(comm, parts):\n"
            "    pending = []\n"
            "    for part in parts:\n"
            "        pending.append(comm.ireduce(part, root=0))\n"
            "    for req in pending:\n"
            "        req.wait()\n"
            "    return comm.allreduce(1)\n"
        )
        assert lint_source(src, "x.py") == []

    def test_select_narrows_rules(self):
        fixture = FIXTURES / "spmd005_mutable_default.py"
        only_001 = lint_source(
            fixture.read_text(), str(fixture), select={"SPMD001"}
        )
        assert only_001 == []


class TestRepoIsClean:
    def test_src_and_benchmarks_lint_clean(self):
        findings, errors = lint_paths(
            [str(REPO / "src"), str(REPO / "benchmarks")]
        )
        assert errors == []
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCli:
    def test_exit_one_on_findings(self, capsys):
        rc = main([str(FIXTURES / "spmd001_rank_branch.py")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SPMD001" in out and "spmd001_rank_branch.py" in out

    def test_exit_zero_on_clean(self, capsys):
        rc = main([str(FIXTURES / "suppressed.py")])
        assert rc == 0

    def test_exit_two_on_missing_path(self, capsys):
        rc = main([str(FIXTURES / "does_not_exist.py")])
        assert rc == 2

    def test_exit_two_on_unknown_rule(self, capsys):
        rc = main(["--select", "SPMD999", str(FIXTURES)])
        assert rc == 2

    def test_json_output_schema(self, capsys):
        rc = main(["--json", str(FIXTURES / "spmd002_leaked_request.py")])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2
        for row in payload:
            assert set(row) == {"path", "line", "col", "code", "message"}

    def test_list_rules(self, capsys):
        rc = main(["--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_select_flag(self, capsys):
        rc = main(["--select", "SPMD005", str(FIXTURES)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "SPMD005" in out
        assert not [code for code in RULES if code != "SPMD005" and code in out]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.lint", "--list-rules"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "SPMD001" in proc.stdout
