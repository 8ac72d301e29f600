import hashlib
import os
import random
import stat
import string
import subprocess
import sys
import warnings

import pytest

from chaocrypt import GaConfig, KeyRecord, decrypt, sample_text, spawn_population, write_key_file
from chaocrypt.cli import main


def _lines(path):
    return path.read_text().splitlines()


def test_encrypt_decrypt_round_trip_skip_ga(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"attack at dawn, retreat at dusk")
    cipher = tmp_path / "cipher.bin"
    keyfile = tmp_path / "key.txt"
    out = tmp_path / "out.txt"

    rc = main(
        [
            "encrypt", str(plain),
            "--out", str(cipher), "--key-out", str(keyfile),
            "--skip-ga", "--a", "2.5", "--b", "1.5",
        ]
    )
    assert rc == 0
    assert "fitness:" in capsys.readouterr().out
    assert cipher.stat().st_size == plain.stat().st_size

    rc = main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == plain.read_bytes()


def test_encrypt_with_ga_reports_and_reproduces(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_bytes(b"a short note that wants a good key " * 2)

    outputs = []
    for tag in ("one", "two"):
        cipher = tmp_path / f"cipher.{tag}"
        keyfile = tmp_path / f"key.{tag}"
        report = tmp_path / f"report.{tag}.csv"
        rc = main(
            [
                "encrypt", str(plain),
                "--out", str(cipher), "--key-out", str(keyfile),
                "--report", str(report),
                "--seed", "42", "--max-generations", "8",
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "generations:" in text
        assert "best fitness:" in text
        assert "terminated by:" in text
        outputs.append((cipher.read_bytes(), keyfile.read_bytes(), report.read_bytes()))

    assert outputs[0] == outputs[1]
    header = _lines(tmp_path / "report.one.csv")[0]
    assert header == "generation,genome,a,b,fitness"

    out = tmp_path / "roundtrip.txt"
    rc = main(
        ["decrypt", str(tmp_path / "cipher.one"), "--key", str(tmp_path / "key.one"), "--out", str(out)]
    )
    assert rc == 0
    assert out.read_bytes() == plain.read_bytes()


_PLAINTEXT_ARGVS = (
    ["encrypt", "plain", "--out", "c", "--key-out", "k"],
    ["encrypt", "plain", "--out", "c", "--key-out", "k", "--skip-ga", "--a", "2.5", "--b", "1.5"],
    ["analyze", "landscape", "--plaintext", "plain", "--grid-a", "3", "--grid-b", "3", "--out", "g.csv"],
    ["analyze", "sensitivity", "--plaintext", "plain", "--a", "2.5", "--b", "1.5",
     "--component", "a", "--epsilon", "1e-15", "--out", "s.csv"],
)
_KEY_ARGV = ["analyze", "sensitivity", "--plaintext", "plain", "--key", "key",
             "--component", "a", "--epsilon", "1e-15", "--out", "s.csv"]


@pytest.mark.parametrize(
    "content, message, argv",
    [
        pytest.param(bytes(4), "plaintext bytes sum to zero", argv, id=f"argv{i}")
        for i, argv in enumerate(_PLAINTEXT_ARGVS)
    ]
    + [
        pytest.param(b"", "plaintext must be non-empty", argv, id=f"empty-argv{i}")
        for i, argv in enumerate(_PLAINTEXT_ARGVS)
    ]
    + [pytest.param(b"", "data is 0 bytes but the key is for a 4-byte message", _KEY_ARGV, id="empty-argv4")],
)
def test_all_nul_plaintext_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, content, message, argv):
    # x0 = mean / sum of the plaintext bytes has no value when they sum to
    # zero or when there are none.  --key takes x0 from the key file, so only
    # the empty plaintext fails there, as a length the key does not name.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain").write_bytes(content)
    write_key_file(KeyRecord(2.5, 1.5, 0.25, 0.5), tmp_path / "key")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["key", "plain"]


def test_skip_ga_without_params_exits_2(tmp_path, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"data")
    rc = main(
        ["encrypt", str(plain), "--out", str(tmp_path / "c"), "--key-out", str(tmp_path / "k"), "--skip-ga"]
    )
    assert rc == 2


def test_decrypt_missing_key_file_names_path(tmp_path, capsys):
    cipher = tmp_path / "c"
    cipher.write_bytes(b"xyz")
    rc = main(["decrypt", str(cipher), "--key", str(tmp_path / "nope.key"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.key" in capsys.readouterr().err


def test_decrypt_empty_ciphertext_exits_2(tmp_path, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"data")
    main(
        [
            "encrypt", str(plain),
            "--out", str(tmp_path / "c"), "--key-out", str(tmp_path / "k"),
            "--skip-ga", "--a", "2.0", "--b", "2.0",
        ]
    )
    capsys.readouterr()
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    rc = main(["decrypt", str(empty), "--key", str(tmp_path / "k"), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_decrypt_with_tampered_key_file_scrambles_output(tmp_path, capsys):
    import random

    from chaocrypt.keyfile import float_to_hex, hex_to_float

    plain = tmp_path / "plain.txt"
    plain.write_bytes(random.Random(20).randbytes(1000))
    cipher = tmp_path / "c"
    keyfile = tmp_path / "k"
    main(
        [
            "encrypt", str(plain),
            "--out", str(cipher), "--key-out", str(keyfile),
            "--skip-ga", "--a", "2.75", "--b", "1.25",
        ]
    )
    capsys.readouterr()

    original_hex = float_to_hex(2.75)
    flipped_hex = original_hex[:-1] + ("D" if original_hex[-1] != "D" else "C")
    nudged = hex_to_float(flipped_hex)
    text = keyfile.read_text()
    text = text.replace(f"a.dec = {2.75:.17g}", f"a.dec = {nudged:.17g}")
    text = text.replace(original_hex, flipped_hex)
    keyfile.write_text(text)

    out = tmp_path / "o"
    assert main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(out)]) == 0
    recovered = out.read_bytes()
    source = plain.read_bytes()
    differ = sum(a != b for a, b in zip(recovered, source))
    assert differ >= 0.9 * len(source)


def _skip_ga_encrypt(tmp_path, data, tag="m"):
    plain = tmp_path / f"{tag}.txt"
    plain.write_bytes(data)
    cipher, keyfile = tmp_path / f"{tag}.enc", tmp_path / f"{tag}.key"
    argv = ["encrypt", str(plain), "--out", str(cipher), "--key-out", str(keyfile)]
    assert main(argv + ["--skip-ga", "--a", "2.5", "--b", "1.5"]) == 0
    return cipher, keyfile


def test_decrypt_rejects_ciphertext_longer_than_its_key(tmp_path, capsys):
    import random

    _, short_key = _skip_ga_encrypt(tmp_path, random.Random(1).randbytes(116), "short")
    long_cipher, _ = _skip_ga_encrypt(tmp_path, random.Random(2).randbytes(1000), "long")
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["decrypt", str(long_cipher), "--key", str(short_key), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1000 bytes" in err and "116-byte" in err
    assert not out.exists()


def test_decrypt_rejects_truncated_ciphertext(tmp_path, capsys):
    cipher, keyfile = _skip_ga_encrypt(tmp_path, b"one byte too few, and we should know it")
    cipher.write_bytes(cipher.read_bytes()[:-1])
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(out)]) == 2
    assert "38 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_decrypt_write_cut_short_leaves_no_output(tmp_path):
    # A file size limit makes an output write fail part way; the run must
    # leave neither that output nor its temp file behind.  Each row is a
    # command whose output outgrows the limit, and the inputs it reads:
    # decrypt's plaintext, encrypt's --report (written before the key and
    # the ciphertext, 8 capped generations of 20 rows) and a 2,000-row
    # bifurcation CSV.
    import random

    resource = pytest.importorskip("resource")
    from chaocrypt import MapParams, encrypt

    limit = 4096
    ciphertext, record = encrypt(random.Random(3).randbytes(4 * limit), MapParams(2.5, 1.5))
    rows = {
        "decrypt": (["decrypt", "c", "--key", "k", "--out", "o"], ["c", "k"]),
        "encrypt-report": (
            ["encrypt", "p", "--out", "c", "--key-out", "k", "--report", "r.csv",
             "--seed", "1", "--threshold", "100.5", "--max-generations", "8"],
            ["p"],
        ),
        "bifurcation": (
            ["analyze", "bifurcation", "--param", "a", "--fixed", "2", "--range", "1:4", "--steps", "20",
             "--out", "b.csv"],
            [],
        ),
    }

    def cap_file_size():
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))

    write_key_file(record, tmp_path / "k")
    contents = {"c": ciphertext, "k": (tmp_path / "k").read_bytes(), "p": random.Random(4).randbytes(64)}
    for name, (argv, inputs) in rows.items():
        work = tmp_path / name
        work.mkdir()
        for input_ in inputs:
            (work / input_).write_bytes(contents[input_])
        proc = subprocess.run(
            [sys.executable, "-B", "-m", "chaocrypt.cli", *argv],
            cwd=work,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            preexec_fn=cap_file_size,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, name
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, name
        assert "File too large" in proc.stderr, name
        assert sorted(p.name for p in work.iterdir()) == inputs, name


def test_every_output_is_created_0600(tmp_path, capsys, monkeypatch):
    # The key file holds the secret; no output is readable by others, also
    # under a umask that would leave a file world-readable, and also where
    # the output already exists with a wider mode.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p").write_bytes(b"a message written under umask 022 " * 3)
    (tmp_path / "o").write_bytes(b"an older plaintext")
    (tmp_path / "o").chmod(0o644)
    old = os.umask(0o022)
    try:
        assert main(["encrypt", "p", "--out", "c", "--key-out", "k", "--report", "r.csv",
                     "--seed", "3", "--max-generations", "2"]) == 0
        assert main(["decrypt", "c", "--key", "k", "--out", "o"]) == 0
        assert main(["analyze", "bifurcation", "--param", "a", "--fixed", "2", "--range", "1:4",
                     "--steps", "2", "--out", "b.csv"]) == 0
        write_key_file(KeyRecord(2.5, 1.5, 0.25, 0.5), tmp_path / "lib.key")
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("k", "c", "r.csv", "o", "b.csv", "lib.key")}
    assert modes == dict.fromkeys(modes, 0o600)
    assert (tmp_path / "o").read_bytes() == (tmp_path / "p").read_bytes()


def test_a_link_at_an_output_or_its_old_temp_name_is_never_written_through(tmp_path, capsys):
    # The temp names were once .NAME.PID.tmp; a link planted there, or an
    # output that is itself a link, must leave the link's target as it was.
    # An output link is replaced by the file written.
    victim = tmp_path / "victim"
    victim.write_bytes(b"not yours to overwrite")
    for name in ("m.key", "m.enc", "o"):
        (tmp_path / f".{name}.{os.getpid()}.tmp").symlink_to(victim)
    cipher, keyfile = _skip_ga_encrypt(tmp_path, b"the key goes to m.key only")
    out = tmp_path / "out-link"
    out.symlink_to(victim)
    assert main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(tmp_path / "o")]) == 0
    assert main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(out)]) == 0
    assert victim.read_bytes() == b"not yours to overwrite"
    for path in (keyfile, cipher, tmp_path / "o", out):
        assert not path.is_symlink()
    assert out.read_bytes() == (tmp_path / "o").read_bytes() == b"the key goes to m.key only"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_output_that_is_not_a_regular_file_exits_2_before_reading_input(tmp_path, capsys, monkeypatch):
    # A rename would replace a FIFO or a device, and fail on a directory;
    # writing in place would block on a FIFO.  Each is refused before any
    # input is read.
    from chaocrypt import cli

    cipher, keyfile = _skip_ga_encrypt(tmp_path, b"a message for a fifo")
    plain = tmp_path / "m.txt"
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    folder = tmp_path / "folder"
    folder.mkdir()
    capsys.readouterr()

    def boom(*args):
        raise AssertionError("read an input before the output was checked")

    monkeypatch.setattr(cli, "_read_bytes", boom)
    monkeypatch.setattr(cli, "read_key_file", boom)
    for path in (fifo, link, folder):
        for argv in (
            ["decrypt", str(cipher), "--key", str(keyfile), "--out", str(path)],
            ["encrypt", str(plain), "--out", str(tmp_path / "c2"), "--key-out", str(tmp_path / "k2"),
             "--report", str(path)],
            ["analyze", "bifurcation", "--param", "a", "--fixed", "2", "--range", "1:4", "--out", str(path)],
        ):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {path}: is not a regular file\n")
            assert stat.S_ISFIFO(fifo.lstat().st_mode) and link.readlink() == fifo
    assert list(folder.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "folder", "link", "m.enc", "m.key", "m.txt"]


def test_encrypt_without_seed_warns_once_and_writes_the_seed_0_bytes(tmp_path, capsys):
    # The default seed stays 0, so a run without --seed is reproducible;
    # it says on stderr that every such run starts from the same pairs.
    plain = tmp_path / "p"
    plain.write_bytes(b"a message that any seedless run would key alike")
    results = {}
    for tag, extra in (
        ("default", ["--max-generations", "5"]),
        ("seed-0", ["--max-generations", "5", "--seed", "0"]),
        ("skip-ga", ["--skip-ga", "--a", "2.5", "--b", "1.5"]),
    ):
        cipher, keyfile = tmp_path / f"{tag}.enc", tmp_path / f"{tag}.key"
        assert main(["encrypt", str(plain), "--out", str(cipher), "--key-out", str(keyfile), *extra]) == 0
        out, err = capsys.readouterr()
        results[tag] = (out, err, cipher.read_bytes(), keyfile.read_bytes())
    assert results["default"][1] == (
        "warning: no --seed given: every such run spawns the same 20 (a, b) pairs (seed 0), "
        "and a message of 300 bytes or more usually keeps one of them\n"
    )
    assert results["seed-0"][1] == results["skip-ga"][1] == ""
    assert results["default"][0] == results["seed-0"][0]
    assert results["default"][2:] == results["seed-0"][2:]


_PRINTABLE = frozenset(string.printable.encode())


def _recover_without_the_key(ciphertext, seeds):
    """The plaintext of a GA ciphertext whose key is a pair spawned from one
    of seeds, from the ciphertext alone: x0 = 1/n and y0 = 1 - x0 follow
    from its length, and the output with the most printable bytes wins."""
    x0 = 1 / len(ciphertext)
    candidates = (
        decrypt(ciphertext, KeyRecord(a, b, x0, 1 - x0))
        for seed in seeds
        for a, b in spawn_population(GaConfig(), random.Random(seed))
    )
    return max(candidates, key=lambda text: sum(byte in _PRINTABLE for byte in text))


def _ga_encrypt_sample(tmp_path, n, *extra):
    plain, cipher, keyfile = tmp_path / f"{n}.txt", tmp_path / f"{n}.enc", tmp_path / f"{n}.key"
    plain.write_bytes(sample_text(n, random.Random(12000 + 7 * n)))
    assert main(["encrypt", str(plain), "--out", str(cipher), "--key-out", str(keyfile), *extra]) == 0
    return plain.read_bytes(), cipher.read_bytes()


@pytest.mark.parametrize("n", [300, 1000])
def test_a_default_seed_ciphertext_decrypts_without_its_key(tmp_path, capsys, n):
    # From about 300 B the GA stops at generation 1 (every score is above
    # the threshold), so the key is one of the 20 pairs every run without
    # --seed spawns: 20 decrypts recover the text (README, "Known limitation").
    plaintext, ciphertext = _ga_encrypt_sample(tmp_path, n)
    assert _recover_without_the_key(ciphertext, [0]) == plaintext


def test_a_small_seed_is_found_by_searching_the_seeds(tmp_path, capsys):
    plaintext, ciphertext = _ga_encrypt_sample(tmp_path, 300, "--seed", "58")
    assert "generations: 1\n" in capsys.readouterr().out
    assert _recover_without_the_key(ciphertext, range(100)) == plaintext


def test_sensitivity_with_a_key_for_another_length_exits_2(tmp_path, capsys):
    _, keyfile = _skip_ga_encrypt(tmp_path, b"twenty-eight bytes of secret")
    probe, out = tmp_path / "q", tmp_path / "s.csv"
    probe.write_bytes(bytes(range(65, 125)))
    capsys.readouterr()
    argv = ["analyze", "sensitivity", "--plaintext", str(probe), "--key", str(keyfile),
            "--component", "a", "--epsilon", "1e-15", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: data is 60 bytes but the key is for a 28-byte message\n"
    assert not out.exists()


def test_sensitivity_nudge_of_x0_that_changes_the_named_length_exits_2(tmp_path, capsys):
    # round(1 / (0.001 + 1e-6)) = 999, so the nudged key names another length.
    plain, keyfile, out = tmp_path / "p", tmp_path / "k", tmp_path / "s.csv"
    plain.write_bytes(bytes(range(1, 201)) * 5)
    write_key_file(KeyRecord(2.5, 1.5, 0.001, 0.999), keyfile)
    argv = ["analyze", "sensitivity", "--plaintext", str(plain), "--key", str(keyfile),
            "--component", "x0", "--epsilon", "1e-6", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: data is 1000 bytes but the key is for a 999-byte message\n"
    assert not out.exists()
    argv[argv.index("1e-6")] = "1e-15"
    assert main(argv) == 0


def _ga_encrypt_argv(tmp_path, out, key_out):
    plain = tmp_path / "p"
    plain.write_bytes(b"a message whose key search must not start")
    return ["encrypt", str(plain), "--out", str(out), "--key-out", str(key_out)]


def _evolve_must_not_run(monkeypatch):
    from chaocrypt import ga

    def boom(*args):
        raise AssertionError("evolve ran before the output paths were checked")

    monkeypatch.setattr(ga, "evolve", boom)


def test_encrypt_out_in_missing_directory_exits_2_before_ga(tmp_path, capsys, monkeypatch):
    _evolve_must_not_run(monkeypatch)
    missing = tmp_path / "nope" / "c.enc"
    key = tmp_path / "k"
    assert main(_ga_encrypt_argv(tmp_path, missing, key)) == 2
    assert str(missing) in capsys.readouterr().err
    assert not key.exists()


def test_encrypt_key_out_in_missing_directory_leaves_no_ciphertext(tmp_path, capsys, monkeypatch):
    _evolve_must_not_run(monkeypatch)
    cipher = tmp_path / "c.enc"
    missing = tmp_path / "nope" / "k"
    assert main(_ga_encrypt_argv(tmp_path, cipher, missing)) == 2
    assert str(missing) in capsys.readouterr().err
    assert not cipher.exists()


@pytest.mark.parametrize(
    "same_as",
    [("--out", "--key-out"), ("--out", "--report"), ("--key-out", "--report")],
    ids=["out-key_out", "out-report", "key_out-report"],
)
def test_encrypt_rejects_out_equal_to_key_out(tmp_path, capsys, monkeypatch, same_as):
    _evolve_must_not_run(monkeypatch)
    same = tmp_path / "both"
    paths = {flag: str(same if flag in same_as else tmp_path / flag.strip("-"))
             for flag in ("--out", "--key-out", "--report")}
    argv = _ga_encrypt_argv(tmp_path, paths["--out"], paths["--key-out"])
    assert main([*argv, "--report", paths["--report"], "--max-generations", "1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {same_as[0]} and {same_as[1]} are the same file: {same}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p"]


# Per command, an argv whose every file is named after the input or output
# flag that takes it: "--key-out key_out", positional "plaintext".
_FILE_ARGV = {
    "encrypt": ["encrypt", "plaintext", "--out", "out", "--key-out", "key_out", "--report", "report"],
    "decrypt": ["decrypt", "ciphertext", "--key", "key", "--out", "out"],
    "landscape": ["analyze", "landscape", "--plaintext", "plaintext", "--grid-a", "2", "--grid-b", "2",
                  "--out", "out"],
    "sensitivity": ["analyze", "sensitivity", "--plaintext", "plaintext", "--key", "key", "--component", "a",
                    "--epsilon", "0", "--out", "out"],
}
_INPUT_FILES = {"plaintext": b"a message", "ciphertext": b"\x01\x02\x03", "key": b"version = 1\n"}


def _run_with_output_on_input(tmp_path, monkeypatch, argv):
    """Run argv in tmp_path holding the input files; return main's exit code
    and each file's bytes, which must be the input files unchanged."""
    _evolve_must_not_run(monkeypatch)
    for name, data in _INPUT_FILES.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    rc = main(argv)
    return rc, {p.name: p.read_bytes() for p in tmp_path.iterdir()}


@pytest.mark.parametrize(
    "command, input_, output",
    [
        ("encrypt", "plaintext", "--out"),
        ("encrypt", "plaintext", "--key-out"),
        ("encrypt", "plaintext", "--report"),
        ("decrypt", "ciphertext", "--out"),
        ("decrypt", "--key", "--out"),
        ("landscape", "--plaintext", "--out"),
        ("sensitivity", "--plaintext", "--out"),
        ("sensitivity", "--key", "--out"),
    ],
)
def test_output_naming_an_input_file_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch, command, input_,
                                                               output):
    argv = list(_FILE_ARGV[command])
    name = input_.lstrip("-")
    argv[argv.index(output) + 1] = name
    rc, files = _run_with_output_on_input(tmp_path, monkeypatch, argv)
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err == f"error: {input_} and {output} are the same file: {name}\n"
    assert files == _INPUT_FILES


@pytest.mark.parametrize("link", ["symlink_to", "hardlink_to"])
def test_output_naming_an_input_file_through_a_link_exits_2(tmp_path, capsys, monkeypatch, link):
    (tmp_path / "plaintext").write_bytes(_INPUT_FILES["plaintext"])
    getattr(tmp_path / "lp", link)(tmp_path / "plaintext")
    argv = list(_FILE_ARGV["encrypt"])
    argv[1], argv[argv.index("--report") + 1] = "lp", "plaintext"
    rc, files = _run_with_output_on_input(tmp_path, monkeypatch, argv)
    assert rc == 2
    assert capsys.readouterr() == ("", "error: plaintext and --report are the same file: plaintext\n")
    assert files == {**_INPUT_FILES, "lp": _INPUT_FILES["plaintext"]}


def test_symlink_loop_as_input_or_output_exits_2(tmp_path, capsys, monkeypatch):
    from chaocrypt import cli

    cipher, keyfile = _skip_ga_encrypt(tmp_path, b"a message")
    plain = tmp_path / "m.txt"
    loop = tmp_path / "loop"
    loop.symlink_to(loop)
    capsys.readouterr()
    for argv in (["decrypt", str(loop), "--key", str(keyfile), "--out", str(tmp_path / "o")],
                 ["decrypt", str(cipher), "--key", str(keyfile), "--out", str(loop)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()

    # An output that loops is found before any input is read or any work done.
    def boom(*args):
        raise AssertionError("ran before the output was checked")

    for name in ("read_key_file", "cipher_decrypt", "encrypt"):
        monkeypatch.setattr(cli, name, boom)
    monkeypatch.setattr(cli.ga, "evolve", boom)
    new_key = tmp_path / "new.key"
    for argv in (["decrypt", str(cipher), "--key", str(keyfile), "--out", str(loop)],
                 ["encrypt", str(plain), "--out", str(loop), "--key-out", str(new_key)],
                 ["encrypt", str(plain), "--out", str(loop), "--key-out", str(new_key),
                  "--skip-ga", "--a", "2.5", "--b", "1.5"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "loop" in err and err.count("\n") == 1
        assert loop.is_symlink() and loop.readlink() == loop
        assert not new_key.exists()


def test_request_too_large_for_memory_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    from chaocrypt import cli

    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli.analysis, "fitness_landscape", out_of_memory)
    plain, out = tmp_path / "p", tmp_path / "o.csv"
    plain.write_bytes(b"a message")
    argv = ["analyze", "landscape", "--plaintext", str(plain), "--grid-a", "1000000", "--grid-b", "1000000",
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: the request needs more memory than this machine has\n")
    assert not out.exists()


def test_decrypt_out_in_missing_directory_exits_2_before_decrypting(tmp_path, capsys, monkeypatch):
    from chaocrypt import cli

    cipher, keyfile = _skip_ga_encrypt(tmp_path, b"a message that must not be decrypted")
    capsys.readouterr()

    def boom(*args):
        raise AssertionError("decrypt ran before --out was checked")

    monkeypatch.setattr(cli, "cipher_decrypt", boom)
    missing = tmp_path / "nope" / "o"
    assert main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {missing}: directory {str(missing.parent)!r} does not exist\n"
    assert not missing.parent.exists()


def test_encrypt_writes_key_before_ciphertext_and_leaves_no_temp_files(tmp_path, capsys, monkeypatch):
    import os

    written = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (written.append(dst), real_replace(src, dst)))
    cipher, keyfile = _skip_ga_encrypt(tmp_path, b"key first, then the ciphertext")
    assert [str(p) for p in written] == [str(keyfile), str(cipher)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.enc", "m.key", "m.txt"]


def test_analyze_bifurcation_row_count(tmp_path, capsys):
    out = tmp_path / "bif.csv"
    rc = main(
        [
            "analyze", "bifurcation",
            "--param", "a", "--fixed", "2.0", "--range", "1:4",
            "--steps", "100", "--iters", "600", "--transient", "500",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[0].startswith("#")  # sweep provenance comment
    assert lines[1] == "a,x"
    assert len(lines) == 2 + 100 * 100


def _assert_numerical_error(rc, err, out):
    assert rc == 3
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not out.exists()


def test_decrypt_with_key_whose_orbit_overflows_exits_3(tmp_path, capsys):
    from chaocrypt import KeyRecord, write_key_file

    keyfile, cipher, out = tmp_path / "k", tmp_path / "c", tmp_path / "o"
    write_key_file(KeyRecord(a=2.5, b=1.5, x0=1.0, y0=1e308), keyfile)
    cipher.write_bytes(b"x")
    rc = main(["decrypt", str(cipher), "--key", str(keyfile), "--out", str(out)])
    _assert_numerical_error(rc, capsys.readouterr().err, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["lyapunov", "--a", "1", "--b", "1", "--y0", "1e308"],
        ["bifurcation", "--param", "a", "--fixed", "2", "--range", "1:4", "--steps", "2",
         "--iters", "20", "--transient", "5", "--y0", "1e308"],
        ["bifurcation", "--param", "b", "--fixed", "2", "--range", "1:4", "--steps", "2",
         "--iters", "20", "--transient", "5", "--x0", "1e308"],
        ["bifurcation", "--param", "a", "--fixed", "1.7e308", "--range", "1e308:1.7e308",
         "--steps", "2", "--iters", "5", "--transient", "1"],
        ["sensitivity", "--plaintext", "PLAIN", "--a", "2.5", "--b", "1.5",
         "--component", "y0", "--epsilon", "1e308"],
    ],
)
def test_analyze_orbit_leaving_the_finite_doubles_exits_3(tmp_path, capsys, argv):
    plain, out = tmp_path / "p", tmp_path / "o.csv"
    plain.write_bytes(b"a short message")
    argv = [str(plain) if a == "PLAIN" else a for a in argv]
    rc = main(["analyze", *argv, "--out", str(out)])
    _assert_numerical_error(rc, capsys.readouterr().err, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["bifurcation", "--param", "a", "--fixed", "2", "--range=-1.7e308:1.7e308",
         "--steps", "2", "--iters", "5", "--transient", "1"],
        ["landscape", "--plaintext", "PLAIN", "--a-range=-1.7e308:1.7e308"],
    ],
)
def test_analyze_range_wider_than_a_double_exits_2_without_warnings(tmp_path, capsys, argv):
    plain, out = tmp_path / "p", tmp_path / "o.csv"
    plain.write_bytes(b"a short message")
    argv = [str(plain) if a == "PLAIN" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["analyze", *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert caught == []
    assert rc == 2
    assert err.startswith("error: range -1.7e+308:1.7e+308 ") and err.count("\n") == 1
    assert not out.exists()


def test_analyze_lyapunov_with_a_degenerate_frame_exits_3_without_warnings(capsys):
    argv = ["analyze", "lyapunov", "--a", "1e308", "--b", "0.5", "--x0", "0", "--y0", "0.25",
            "--iters", "10", "--transient", "2"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert caught == []
    assert rc == 3
    assert capsys.readouterr() == ("", "numerical error: tangent frame degenerated\n")


def test_analyze_lyapunov_prints_positive_exponent(tmp_path, capsys):
    rc = main(["analyze", "lyapunov", "--a", "2", "--b", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    first = [l for l in out.splitlines() if l.startswith("exponent_1:")][0]
    assert float(first.split(":")[1]) > 0.0


def test_analyze_lengths_mirrors_single_trial_layout(tmp_path, capsys):
    out = tmp_path / "lengths.csv"
    rc = main(
        [
            "analyze", "lengths",
            "--lengths", "10,20,30", "--seed", "7", "--max-generations", "3",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "length,generations,max_fitness"
    assert len(lines) == 4


def test_analyze_lengths_rows_follow_the_list_and_the_summary_sorts(tmp_path, capsys):
    # CSV rows keep the order --lengths gives, trial-minor; the summary
    # prints one line per length by increasing length.
    out = tmp_path / "lengths.csv"
    argv = ["analyze", "lengths", "--lengths", "40,10", "--trials", "2", "--seed", "3",
            "--max-generations", "3", "--population", "8", "--out", str(out)]
    assert main(argv) == 0
    lines = _lines(out)
    assert lines[0] == "length,trial,generations,max_fitness"
    assert [line.split(",")[:2] for line in lines[1:]] == [["40", "0"], ["40", "1"], ["10", "0"], ["10", "1"]]
    summary = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in summary] == ["length 10", "length 40"]


def test_analyze_lengths_malformed_list_exits_2(tmp_path, capsys, monkeypatch):
    # An empty item is as malformed as any other, so no list names no lengths.
    from chaocrypt import analysis

    def boom(*args):
        raise AssertionError("a key search ran for a refused list")

    monkeypatch.setattr(analysis, "evolve", boom)
    out = tmp_path / "len.csv"
    cases = [(["--lengths", text], f"malformed number list {text!r}") for text in ("10,abc", "10,", "10,,20", ",", "")]
    cases += [(["--lengths", "0"], "every length must be >= 1"), (["--trials", "0"], "trials must be >= 1")]
    cases += [(["--lengths", "10,10,20"], "each length may be given only once")]
    for flags, message in cases:
        assert main(["analyze", "lengths", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


def test_analyze_sensitivity_with_inline_params(tmp_path, capsys):
    plain = tmp_path / "p"
    plain.write_bytes(b"a message of reasonable length for probing keys")
    rc = main(
        [
            "analyze", "sensitivity",
            "--plaintext", str(plain), "--a", "2.5", "--b", "1.5",
            "--component", "a", "--epsilon", "1e-15",
        ]
    )
    assert rc == 0
    assert "fraction changed:" in capsys.readouterr().out


def test_keystream_builds_per_command(tmp_path, capsys, monkeypatch):
    """A GA encrypt builds one keystream per distinct pair its run scores and
    one more for the winner; the other commands build a fixed few, and the
    landscape ranks its grid's orbits without build_keystream."""
    from chaocrypt import cipher, ga

    builds, reports = [], []
    build, evolve = cipher.build_keystream, ga.evolve

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    def recorded_evolve(*args):
        reports.append(evolve(*args))
        return reports[-1]

    monkeypatch.setattr(cipher, "build_keystream", counted_build)
    monkeypatch.setattr(ga, "build_keystream", counted_build)  # ga imports the name
    monkeypatch.setattr(ga, "evolve", recorded_evolve)

    plain = tmp_path / "p"
    plain.write_bytes(b"a message of reasonable length for probing keys.")
    assert len(plain.read_bytes()) == 48
    cipher_out, key = tmp_path / "c", tmp_path / "k"
    files = ["--out", str(cipher_out), "--key-out", str(key)]

    def count(argv):
        builds.clear()
        assert main(argv) == 0
        capsys.readouterr()
        return len(builds)

    ga_builds = count(["encrypt", str(plain), *files, "--seed", "3", "--max-generations", "5"])
    (report,) = reports
    pairs = {(a, b) for population in report.history for a, b, _ in population}
    assert ga_builds == len(pairs) + 1 == 45
    assert count(["encrypt", str(plain), *files, "--skip-ga", "--a", "2.5", "--b", "1.5"]) == 2
    assert count(["decrypt", str(cipher_out), "--key", str(key), "--out", str(tmp_path / "d")]) == 1
    sensitivity = ["analyze", "sensitivity", "--plaintext", str(plain), "--key", str(key), "--component", "a",
                   "--epsilon", "1e-15"]
    assert count(sensitivity) == 2
    landscape = ["analyze", "landscape", "--plaintext", str(plain), "--grid-a", "3", "--grid-b", "3",
                 "--out", str(tmp_path / "g.csv")]
    assert count(landscape) == 0


def test_keyspace_defaults_print_paper_size(capsys):
    assert main(["keyspace"]) == 0
    out = capsys.readouterr().out
    assert "1.17e+63" in out
    ratio = float(out.splitlines()[1].split(":")[1])
    assert ratio > 1.0


def test_keyspace_custom_range(capsys):
    assert main(["keyspace", "--range", "0:1:0.5"]) == 0
    assert "key space size: 2" in capsys.readouterr().out


def test_keyspace_malformed_range_exits_2(capsys):
    for text, message in (
        ("0:1", "expected 3 ':'-separated numbers, got '0:1'"),
        ("a:1:1", "malformed number list 'a:1:1'"),
        ("1::2", "malformed number list '1::2'"),
    ):
        assert main(["keyspace", "--range", text]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "ranges",
    [
        ["0:inf:1"],
        ["-1.7e308:1.7e308:1e-15"],
        ["0:1:1e-320", "0:1:1e-320"],
        ["0:1:inf"],
    ],
)
def test_keyspace_that_is_not_a_finite_double_exits_2(capsys, ranges):
    rc = main(["keyspace", *(f"--range={r}" for r in ranges)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("step", ["inf", "nan"])
def test_encrypt_non_finite_mutation_step_exits_2_before_ga(tmp_path, capsys, monkeypatch, step):
    _evolve_must_not_run(monkeypatch)
    cipher, key = tmp_path / "c", tmp_path / "k"
    argv = _ga_encrypt_argv(tmp_path, cipher, key)
    assert main([*argv, f"--mutation-step={step}", "--mutation-prob", "1"]) == 2
    assert capsys.readouterr().err == "error: mutation_step must be finite and >= 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p"]


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--mutation-step=-0.1", "mutation_step must be finite and >= 0"),
        ("--quorum=1.5", "quorum_fraction must be in [0, 1]"),
    ],
)
def test_encrypt_ga_setting_out_of_range_exits_2_before_ga(tmp_path, capsys, monkeypatch, flag, message):
    _evolve_must_not_run(monkeypatch)
    argv = _ga_encrypt_argv(tmp_path, tmp_path / "c", tmp_path / "k")
    assert main([*argv, flag]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p"]


@pytest.mark.parametrize("epsilon", ["-1", "nan"])
def test_analyze_sensitivity_negative_or_nan_epsilon_exits_2(tmp_path, capsys, epsilon):
    plain, out = tmp_path / "p", tmp_path / "o.csv"
    plain.write_bytes(b"a message to nudge a key by no amount at all")
    argv = ["analyze", "sensitivity", "--plaintext", str(plain), "--a", "2.5", "--b", "1.5",
            "--component", "a", f"--epsilon={epsilon}", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: epsilon must be >= 0\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p"]


@pytest.mark.parametrize("ranges", [["0:1e-300:1e300"], ["0:1e-200:1", "0:1e-200:1"]])
def test_keyspace_that_underflows_to_zero_exits_2(capsys, ranges):
    rc = main(["keyspace", *(f"--range={r}" for r in ranges)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: key space size underflows to 0\n")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_encrypt_non_finite_threshold_exits_2_before_ga(tmp_path, capsys, monkeypatch, threshold):
    _evolve_must_not_run(monkeypatch)
    argv = _ga_encrypt_argv(tmp_path, tmp_path / "c", tmp_path / "k")
    assert main([*argv, f"--threshold={threshold}", "--max-generations", "3"]) == 2
    assert capsys.readouterr().err == "error: fitness_threshold must be finite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p"]


@pytest.mark.parametrize(
    "argv, option",
    [
        (["encrypt", "PLAIN", "--out", "OUT", "--key-out", "KEY", "--a", "2", "--b", "2"], "--a"),
        (
            ["encrypt", "PLAIN", "--out", "OUT", "--key-out", "KEY",
             "--skip-ga", "--a", "2", "--b", "2", "--report", "REPORT"],
            "--report",
        ),
        (
            ["analyze", "sensitivity", "--plaintext", "PLAIN", "--key", "KEY", "--a", "3.9", "--b", "0.2",
             "--component", "a", "--epsilon", "1e-15", "--out", "OUT"],
            "--a",
        ),
        # every GA flag on a --skip-ga encrypt, including values GaConfig rejects
        *(
            (["encrypt", "PLAIN", "--out", "OUT", "--key-out", "KEY", "--skip-ga", "--a", "2", "--b", "2",
              flag, value], flag)
            for flag, value in [
                ("--population", "3"),
                ("--elite-fraction", "0.5"),
                ("--mutation-prob", "0.5"),
                ("--mutation-step", "0.1"),
                ("--threshold", "90"),
                ("--quorum", "0.5"),
                ("--max-generations", "0"),
                ("--seed", "5"),
            ]
        ),
        # analyze sensitivity with neither --key nor both --a and --b
        (
            ["analyze", "sensitivity", "--plaintext", "PLAIN", "--a", "3.9", "--component", "a",
             "--epsilon", "1e-15", "--out", "OUT"],
            "--key",
        ),
        (
            ["analyze", "sensitivity", "--plaintext", "PLAIN", "--component", "a", "--epsilon", "1e-15",
             "--out", "OUT"],
            "--key",
        ),
    ],
)
def test_option_the_mode_does_not_use_exits_2_before_reading_input(tmp_path, capsys, monkeypatch, argv, option):
    from chaocrypt import cli

    def must_not_read(path):
        raise AssertionError(f"{path} was read before the options were checked")

    _evolve_must_not_run(monkeypatch)
    monkeypatch.setattr(cli, "_read_bytes", must_not_read)
    monkeypatch.setattr(cli, "read_key_file", must_not_read)
    (tmp_path / "plain").write_bytes(b"a message that must not be read")
    paths = {name: str(tmp_path / name.lower()) for name in ("PLAIN", "OUT", "KEY", "REPORT")}
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain"]


def test_ga_flags_left_out_take_ga_config_defaults():
    from chaocrypt import GaConfig, cli

    parser = cli._build_parser()
    assert cli._build_parser() is parser
    args = parser.parse_args(["analyze", "lengths", "--out", "o.csv", "--seed", "7"])
    assert cli._ga_config(args) == GaConfig(rng_seed=7)
    args = parser.parse_args(["analyze", "lengths", "--out", "o.csv"])
    assert cli._ga_config(args) == GaConfig()


@pytest.mark.parametrize(
    "argv",
    [
        ["landscape", "--plaintext", "PLAIN", "--grid-a", "2", "--grid-b", "2"],
        ["bifurcation", "--param", "a", "--fixed", "2", "--range", "1:4"],
        ["lyapunov", "--a", "2", "--b", "1"],
        ["lengths", "--lengths", "10"],
        ["sensitivity", "--plaintext", "PLAIN", "--a", "2.5", "--b", "1.5", "--component", "a",
         "--epsilon", "1e-15"],
    ],
)
def test_analyze_out_in_missing_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch, argv):
    from chaocrypt import analysis

    def boom(*args, **kwargs):
        raise AssertionError("the analysis ran before --out was checked")

    for name in ("fitness_landscape", "bifurcation_sweep", "lyapunov_spectrum", "length_experiment",
                 "sensitivity_probe"):
        monkeypatch.setattr(analysis, name, boom)
    plain, missing = tmp_path / "p", tmp_path / "nope" / "o.csv"
    plain.write_bytes(b"a short message")
    rc = main(["analyze", *(str(plain) if a == "PLAIN" else a for a in argv), "--out", str(missing)])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["p"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chaocrypt.cli", "keyspace"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1.17e+63" in proc.stdout


# SHA-256 of (CSV bytes, stdout) for every command that writes a CSV.  The
# bifurcation sweeps run once with >= ORBIT_MIN_LANES steps (numpy lanes)
# and once with fewer (generate_sequence lane by lane).
_CSV_PINS = {
    "bif_a_lanes": (
        ["analyze", "bifurcation", "--param", "a", "--fixed", "1.5", "--range", "1:4",
         "--steps", "64", "--iters", "120", "--transient", "40", "--out", "OUT"],
        "42a3ae83ba134ed76d43dbe87caba3e6d0a17459c13283d5df670e73dcd79cbc",
        "cff4ffc0cd800f511de2fb6564ae88e3c8d6bb78a0fcc59363bc535340718ae4",
    ),
    "bif_a_fallback": (
        ["analyze", "bifurcation", "--param", "a", "--fixed", "0.75", "--range", "1:4",
         "--steps", "7", "--iters", "90", "--transient", "30", "--x0", "0.3", "--y0", "-0.2", "--out", "OUT"],
        "fad2d316d7f0178ab591a47e14cc33331a52ce2e7027b7987ded4a2be297c6ff",
        "742687a2aba5c86e5927f5048106a3372f6dcb6320cc2daca5527d3e81422961",
    ),
    "bif_b_lanes": (
        ["analyze", "bifurcation", "--param", "b", "--fixed", "2.5", "--range", "0.1:4",
         "--steps", "64", "--iters", "120", "--transient", "40", "--out", "OUT"],
        "3f600a67b6f2a485a59115a8658999f11e394f1209db253247a74e3b428ae457",
        "012e1de5331f5205672f7751c664c4921c04911ead24fbe8d207a2ae5e13593e",
    ),
    "bif_b_fallback": (
        ["analyze", "bifurcation", "--param", "b", "--fixed", "3.25", "--range=-0.5:0.5",
         "--steps", "5", "--iters", "90", "--transient", "0", "--out", "OUT"],
        "14f40e19f992179a10c73f49666a1eee54d9b19b1e11a9007060b433acf56717",
        "4635936c3181f652808fdd797fb75f00defbe7216eb7acabab1ba70d76d68f27",
    ),
    "landscape": (
        ["analyze", "landscape", "--plaintext", "PLAIN", "--grid-a", "3", "--grid-b", "3", "--out", "OUT"],
        "8f234f105ad285ce8781834a0e4880634026af6d1b77d100487085e0b2337e16",
        "87a126b305b592f2567a6cedb2e46025bf058cdb5572ee0a50d2df575000c24e",
    ),
    "lyapunov": (
        ["analyze", "lyapunov", "--a", "2.5", "--b", "1.5", "--iters", "400", "--transient", "100", "--out", "OUT"],
        "0a2eede7dfbd6715818fba06a9275bc45c491c749b40fe891a88bf2823bbc4ab",
        "ce2e073693a3bc67ef1fee417c0cf423a6aeea87d302879f87836713737c1149",
    ),
    "lengths_1": (
        ["analyze", "lengths", "--lengths", "10,40", "--seed", "3", "--max-generations", "3",
         "--population", "8", "--out", "OUT"],
        "d87368550654c2c103d78926ca8b99b0be88406b6c36136df48631ac0090d5a0",
        "ffdd856ad61c0e5ce774a480915f18a775654e4d4a4a4141161fba580113901e",
    ),
    "lengths_2": (
        ["analyze", "lengths", "--lengths", "10,40", "--trials", "2", "--seed", "3",
         "--max-generations", "3", "--population", "8", "--out", "OUT"],
        "197c2c774a85638cc1ff416bd6fb6cb27418c6749ca8eecac7e589dd663ea58c",
        "93e255b1d32b018bed205ae42960e19990338eae5981c014c3271d7ee0de262e",
    ),
    "sensitivity": (
        ["analyze", "sensitivity", "--plaintext", "PLAIN", "--a", "2.5", "--b", "1.5",
         "--component", "b", "--epsilon", "1e-12", "--out", "OUT"],
        "c22df1919505f1ccef09e35a65f6fe8506cce3f43c0ed204d8eecefd33fe55f7",
        "8ff351efd24089c606507c27a1b08c4f9608692b19ca6c9225904effee3b39ab",
    ),
    "encrypt_report": (
        ["encrypt", "PLAIN", "--out", "CIPHER", "--key-out", "KEY", "--seed", "11",
         "--max-generations", "4", "--population", "10", "--report", "OUT"],
        "2566353a6c0448c71e583efa3d1e2fe88232e6364e3cf74642465f22115f270d",
        "02751c807bcc4ab90e032f827ee1527eb92c63c8f0e6e1b6e0b96e7d0dee9b5c",
    ),
}


@pytest.mark.parametrize("name", sorted(_CSV_PINS))
def test_csv_and_stdout_bytes_are_pinned(tmp_path, capsys, name):
    argv, csv_digest, stdout_digest = _CSV_PINS[name]
    plain, out = tmp_path / "p.txt", tmp_path / "o.csv"
    plain.write_bytes(b"pinned plaintext, 40 bytes of it: abcdef")
    names = {"PLAIN": plain, "CIPHER": tmp_path / "c", "KEY": tmp_path / "k", "OUT": out}
    assert main([str(names.get(a, a)) for a in argv]) == 0
    stdout = capsys.readouterr().out
    got = (hashlib.sha256(out.read_bytes()).hexdigest(), hashlib.sha256(stdout.encode()).hexdigest())
    assert got == (csv_digest, stdout_digest)
