"""The names, parameters and result shapes the benchmark reaches into still
exist.

perfbench/spans.py wraps the functions it lists in LAYERS and reads some of
their arguments by name; perfbench/selftest.py patches `cli.encrypt` and
`cli.cipher_decrypt` and checks `ga.build_keystream`; perfbench/run.py reads
the Lyapunov exponents by attribute, sweeps from `DEFAULT_SWEEP_STATE`,
joins an orbit's two axes with `+` and catches a bad key file's error as
`chaocrypt.ChaocryptError`.  A change to src/ that drops one of them breaks
the benchmark without failing anything else in this suite, so this module
loads spans.py by path (it does not edit it) and checks each seam.
"""

import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import chaocrypt
from chaocrypt import analysis, chaos, cipher, cli, ga, keyfile

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_every_layer_and_uninstalls_cleanly(tmp_path):
    # install() fails on a name in LAYERS that is gone; a short traced run
    # feeds every argument _observe reads.
    spans = _spans()
    main, score = cli.main, ga.FitnessEvaluator.__dict__["score"]
    plain = tmp_path / "p"
    plain.write_bytes(b"a short message for a traced key search")
    with spans.Tracer() as tracer:
        assert cli.main is not main and ga.FitnessEvaluator.__dict__["score"] is not score
        argv = ["encrypt", str(plain), "--out", str(tmp_path / "c"), "--key-out", str(tmp_path / "k"),
                "--seed", "1", "--max-generations", "2"]
        assert cli.main(argv) == 0
        assert cli.main(["analyze", "lyapunov", "--a", "2", "--b", "2", "--iters", "20", "--transient", "5"]) == 0
    assert cli.main is main and ga.FitnessEvaluator.__dict__["score"] is score
    calls = tracer.calls_by_name()
    assert {"cli.main", "ga.evolve", "ga.FitnessEvaluator.score", "cipher.encrypt",
            "chaos.generate_sequence", "analysis.lyapunov_spectrum"} <= set(calls)
    assert tracer.steps > 0 and tracer.generations >= 1 and tracer.lyapunov_steps == 20
    assert tracer.keystreams and tracer.scores


def test_names_the_benchmark_patches_are_the_library_functions():
    assert cli.encrypt is cipher.encrypt
    assert cli.cipher_decrypt is cipher.decrypt
    assert ga.build_keystream is cipher.build_keystream


def test_arguments_the_tracer_reads_by_name_exist():
    def params(fn):
        return set(inspect.signature(fn).parameters)

    assert {"n", "transient"} <= params(chaos.generate_sequence)
    assert {"params", "initial", "n"} <= params(cipher.build_keystream)
    assert "params" in params(ga.FitnessEvaluator.score)
    assert "iterations" in params(analysis.lyapunov_spectrum)
    assert "generations_run" in {f.name for f in fields(ga.EvolutionReport)}


def test_results_run_py_reads_have_their_shape(tmp_path):
    result = analysis.lyapunov_spectrum(chaos.MapParams(2.5, 1.5), analysis.DEFAULT_SWEEP_STATE, 20, 5)
    assert type(result.exponent_1) is float and type(result.exponent_2) is float
    assert isinstance(analysis.DEFAULT_SWEEP_STATE, chaos.MapState)
    # sin_fingerprint hashes xs + ys: the 2n values of both axes, x first.
    n = 64
    xs, ys = chaos.generate_sequence(chaos.MapParams(3.7, 2.9), chaos.MapState(0.123, 0.456), n, transient=8)
    joined = np.asarray(xs + ys, dtype="<f8")
    assert joined.shape == (2 * n,)
    assert joined.tolist() == [*xs, *ys]
    bad = tmp_path / "k"
    bad.write_text("not a key file\n")
    with pytest.raises(chaocrypt.ChaocryptError):
        keyfile.read_key_file(bad)
