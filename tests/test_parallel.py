import pytest

from cfstereo import parallel


@pytest.mark.parametrize(
    "env, cpus, want",
    [
        (None, 2, 2),
        ("0", 64, 8),
        ("3", 64, 3),
        ("8", 2, 8),
        ("1000000", 2, 8),
        ("1000000", 64, 64),
        ("1000000", None, 8),
    ],
)
def test_thread_count_caps(monkeypatch, env, cpus, want):
    if env is None:
        monkeypatch.delenv("CFSTEREO_THREADS", raising=False)
    else:
        monkeypatch.setenv("CFSTEREO_THREADS", env)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    assert parallel.thread_count() == want


@pytest.mark.parametrize("env", ["-1", "two"])
def test_thread_count_rejects_bad_values(monkeypatch, env):
    monkeypatch.setenv("CFSTEREO_THREADS", env)
    with pytest.raises(ValueError, match="CFSTEREO_THREADS"):
        parallel.thread_count()
