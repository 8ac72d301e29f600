import subprocess
import sys

import pytest

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


def test_encrypt_empty_file_exits_2(tmp_path, capsys):
    plain = tmp_path / "empty"
    plain.write_bytes(b"")
    rc = main(
        [
            "encrypt", str(plain),
            "--out", str(tmp_path / "c"), "--key-out", str(tmp_path / "k"),
            "--skip-ga", "--a", "2.0", "--b", "2.0",
        ]
    )
    assert rc == 2
    assert "error:" in capsys.readouterr().err


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


def test_analyze_lengths_malformed_list_exits_2(tmp_path, capsys):
    out = tmp_path / "len.csv"
    assert main(["analyze", "lengths", "--lengths", "10,abc", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
    assert main(["keyspace", "--range", "0:1"]) == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chaocrypt.cli", "keyspace"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "1.17e+63" in proc.stdout
