"""Self-tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (imports chaocrypt from the checkout's src/)
from spans import NO_PARENT, Tracer, self_times, unique_ratio  # noqa: E402


def test_self_times_on_synthetic_tree():
    # root [0, 100] has children a [10, 30] and b [20, 50], which overlap,
    # and c [90, 120], which outlives it; a has one child [12, 18].
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [NO_PARENT, 0, 0, 0, 1]
    assert self_times(start, end, parent) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_unique_ratio_counts_distinct_keys_per_op():
    assert unique_ratio({1: [(1, 2), (1, 2), (3, 4)], 2: [(1, 2)]}) == (3, 4)


def _one_message(tmp_path, seed, golden):
    tmp_path.mkdir(parents=True, exist_ok=True)
    r = run.Run("short-messages", seed, golden, tmp_path)
    workload = run.short_messages(r)
    return r, lambda count=1: run.run_items(r, workload, count)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_default_seed_matches_golden(tmp_path, workload):
    r = run.Run(workload, run.DEFAULT_SEED, run.load_golden(), tmp_path)
    assert "0" in r.expected, f"golden.json has no {workload} digests"
    run.run_items(r, run.WORKLOAD_FUNCS[workload](r), 1)
    assert r.attempted > 0 and r.failed == 0, r.failures


def test_corrupted_ciphertext_fails_its_digest_and_the_round_trip(tmp_path, monkeypatch):
    r, run_items = _one_message(tmp_path, run.DEFAULT_SEED, run.load_golden())
    real = run.cli.encrypt

    def corrupt(plaintext, params):
        ciphertext, record = real(plaintext, params)
        return bytes([ciphertext[0] ^ 1]) + ciphertext[1:], record

    monkeypatch.setattr(run.cli, "encrypt", corrupt)
    run_items()
    assert (r.attempted, r.failed) == (2, 2)
    assert any("ciphertext digest" in f for f in r.failures)
    assert any("round trip differs" in f for f in r.failures)


def test_corrupted_plaintext_fails_the_round_trip(tmp_path, monkeypatch):
    r, run_items = _one_message(tmp_path, 7, {})
    real = run.cli.cipher_decrypt
    monkeypatch.setattr(run.cli, "cipher_decrypt", lambda c, k: real(c, k)[:-1] + b"#")
    run_items()
    assert (r.attempted, r.failed) == (2, 1)
    assert r.failures == ["decrypt item 0: round trip differs"]


def _traced_messages(tmp_path, seed, count):
    r, run_items = _one_message(tmp_path, seed, {})
    with Tracer() as tracer:
        r.tracer = tracer
        run_items(count)
    counts = (
        tracer.steps,
        tracer.generations,
        dict(tracer.calls_by_name()),
        unique_ratio(tracer.keystreams),
        unique_ratio(tracer.scores),
    )
    return r, counts


def test_same_seed_gives_identical_digests_and_counts(tmp_path):
    first, counts_1 = _traced_messages(tmp_path / "1", 11, 3)
    second, counts_2 = _traced_messages(tmp_path / "2", 11, 3)
    assert first.failed == second.failed == 0
    assert first.recorded == second.recorded
    assert counts_1 == counts_2
    assert counts_1[2]["cli.main"] == 6 and counts_1[0] > 0


def test_tracer_rebinds_imported_names_and_restores_them():
    from chaocrypt import cipher, cli, ga

    before = (ga.build_keystream, cli.cipher_decrypt, ga.FitnessEvaluator.__dict__["score"])
    with Tracer():
        assert ga.build_keystream is not before[0]
        assert ga.build_keystream is cipher.build_keystream
        assert cli.cipher_decrypt is cipher.decrypt
    assert (ga.build_keystream, cli.cipher_decrypt, ga.FitnessEvaluator.__dict__["score"]) == before


def test_exits_nonzero_without_the_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, bench)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
