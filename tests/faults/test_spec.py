"""Fault-spec grammar, determinism, and retry-policy units (no SPMD runs)."""

import pytest

from repro.faults import (
    FAULTS_ENV_VAR,
    FaultClause,
    FaultSpec,
    RetryPolicy,
    resolve_faults,
)
from repro.mpi.errors import RankDeadError, SpmdError


@pytest.fixture(autouse=True)
def spmd_backend():
    """Shadow the package sweep: nothing here launches ranks."""
    return None


class TestGrammar:
    def test_minimal_clause(self):
        spec = FaultSpec.parse("kind=crash")
        (clause,) = spec.clauses
        assert clause.kind == "crash"
        assert clause.rank is None and clause.site is None
        assert clause.nth == 1 and clause.p == 1.0 and clause.attempt == 1

    def test_full_clause(self):
        spec = FaultSpec.parse(
            "rank=2:site=allreduce:nth=3:kind=exception:p=0.5:seed=9"
        )
        (c,) = spec.clauses
        assert (c.rank, c.site, c.nth, c.kind, c.p, c.seed) == (
            2, "allreduce", 3, "exception", 0.5, 9
        )

    def test_multiple_clauses(self):
        spec = FaultSpec.parse(
            "rank=0:site=send:kind=delay,rank=1:site=recv:kind=exception"
        )
        assert len(spec.clauses) == 2
        assert spec.clauses[0].kind == "delay"
        assert spec.clauses[1].site == "recv"

    def test_roundtrip_through_str(self):
        spec = FaultSpec.parse("rank=1:site=recv:nth=2:kind=crash:p=0.25")
        assert FaultSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize(
        "bad",
        [
            "rank=1",  # no kind
            "kind=explode",  # unknown kind
            "kind=crash:bogus=1",  # unknown field
            "kind=crash:kind=delay",  # duplicate field
            "kind=crash:p=1.5",  # p out of range
            "kind=crash:nth=0",  # nth must be >= 1
            "kind=crash:rank=x",  # non-integer rank
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultSpec.parse(bad)

    def test_clause_filtering(self):
        spec = FaultSpec.parse("rank=1:kind=crash;rank=2:kind=delay")
        assert [c.kind for c in spec.clauses_for(1, 1)] == ["crash"]
        assert [c.kind for c in spec.clauses_for(2, 1)] == ["delay"]
        assert spec.clauses_for(0, 1) == []

    def test_resource_kinds_parse_and_roundtrip(self):
        spec = FaultSpec.parse(
            "rank=0:site=arena:nth=2:kind=enospc,"
            "rank=1:site=allreduce:kind=stall"
        )
        assert [c.kind for c in spec.clauses] == ["enospc", "stall"]
        assert spec.clauses[0].site == "arena"
        assert FaultSpec.parse(str(spec)) == spec

    def test_attempt_gating_defaults_to_first(self):
        spec = FaultSpec.parse("rank=0:kind=crash")
        assert spec.clauses_for(0, 1)
        assert not spec.clauses_for(0, 2)
        sticky = FaultSpec.parse("rank=0:kind=crash:attempt=2")
        assert not sticky.clauses_for(0, 1)
        assert sticky.clauses_for(0, 2)


class TestResolve:
    def test_none_without_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert resolve_faults(None) is None

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "rank=1:site=send:kind=delay")
        spec = resolve_faults(None)
        assert spec is not None and spec.clauses[0].site == "send"

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "rank=1:kind=crash")
        spec = resolve_faults("rank=2:kind=delay")
        assert spec.clauses[0].rank == 2

    def test_spec_passthrough(self):
        spec = FaultSpec.parse("kind=delay")
        assert resolve_faults(spec) is spec

    def test_type_error(self):
        with pytest.raises(TypeError):
            resolve_faults(42)


class TestDeterminism:
    def test_chance_is_reproducible(self):
        c = FaultClause(kind="crash", p=0.5, seed=3)
        draws = [c.chance(1, "allreduce", h) for h in range(10)]
        again = [c.chance(1, "allreduce", h) for h in range(10)]
        assert draws == again
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_chance_varies_with_seed_and_site(self):
        a = FaultClause(kind="crash", p=0.5, seed=1)
        b = FaultClause(kind="crash", p=0.5, seed=2)
        assert [a.chance(0, "send", h) for h in range(8)] != [
            b.chance(0, "send", h) for h in range(8)
        ]
        assert [a.chance(0, "send", h) for h in range(8)] != [
            a.chance(0, "recv", h) for h in range(8)
        ]


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-1.0)

    def test_exponential_backoff(self):
        p = RetryPolicy(max_attempts=4, backoff=0.1)
        assert p.delay(1) == pytest.approx(0.1)
        assert p.delay(2) == pytest.approx(0.2)
        assert p.delay(3) == pytest.approx(0.4)

    def test_retries_rank_death_by_default(self):
        p = RetryPolicy(max_attempts=3)
        dead = SpmdError({1: RankDeadError("rank 1 died", dead_rank=1)})
        plain = SpmdError({0: ValueError("boom")})
        assert p.should_retry(dead, 1)
        assert p.should_retry(dead, 2)
        assert not p.should_retry(dead, 3)  # attempts exhausted
        assert not p.should_retry(plain, 1)

    def test_custom_retry_on(self):
        p = RetryPolicy(max_attempts=2, retry_on=(ValueError,))
        assert p.should_retry(SpmdError({0: ValueError("x")}), 1)
        assert not p.should_retry(
            SpmdError({1: RankDeadError("d", dead_rank=1)}), 1
        )
