"""Shared test configuration: pinned hypothesis profiles, isolated caches.

Property-based tests must behave identically on every CI run, so the
default profile ("ci") derandomizes hypothesis: examples are derived from
the test function itself, not from wall-clock entropy.  Developers hunting
for counterexamples can opt into more and randomized examples with
``HYPOTHESIS_PROFILE=dev pytest``.

Every simulation replays a recorded trace, so every test that simulates
writes traces, warm checkpoints and (unless it opts out) results into the
cache root.  The session fixture points ``REPRO_CACHE_DIR`` at a temporary
directory -- inherited by subprocesses -- so a test run never touches the
user's ``~/.cache/repro``.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "dev",
    deadline=None,
    max_examples=200,
)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    """One temporary cache root for the whole session."""
    from repro.trace.store import reset_shared_stores

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("repro-cache")))
        reset_shared_stores()
        yield
    reset_shared_stores()


@pytest.fixture
def isolated_store(monkeypatch, tmp_path):
    """A per-test cache root: traces, warm state and results start empty."""
    from repro.trace.store import reset_shared_stores

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    reset_shared_stores()
    yield
    reset_shared_stores()
