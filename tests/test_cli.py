import hashlib
import warnings

import numpy as np
import pytest

from privmarket import cli, ledger
from privmarket.cli import main
from privmarket.envelope import digest, encode_bit_matrix, encode_bit_vector
from privmarket.ldp import PrivacyParams
from privmarket.ledger import EventKind, EventLog
from privmarket.simulate import ExperimentConfig, Mode, run_full_protocol_experiment
from reference import encode_payload


def read_all(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestSimulateCommand:
    def test_small_run_succeeds(self, tmp_path, capsys):
        code = main([
            "simulate", "--populations", "100,200", "--choices", "20", "--mean", "10",
            "--sd", "2", "--f", "0.5", "--seed", "42", "--trials", "2",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {
            "N100_trial000.csv", "N100_trial001.csv",
            "N200_trial000.csv", "N200_trial001.csv", "summary.csv",
        }
        out = capsys.readouterr().out
        assert "mean_l1_norm" in out

    def test_identical_flags_identical_files(self, tmp_path):
        flags = ["simulate", "--populations", "150", "--seed", "9", "--trials", "2"]
        assert main(flags + ["--out", str(tmp_path / "a")]) == 0
        assert main(flags + ["--out", str(tmp_path / "b")]) == 0
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    # SHA-256 of every file `simulate --populations 500,1000,5000,10000 --trials 2
    # --seed 104729` writes, at the default f = 0.5 and at f = 0.25
    SIMULATE_PINS = {
        (): {
            "N10000_trial000.csv": "97dbb86aea55c05988e928b4f486ed7e8d33e9ace7d771cb3feeaae3983bb444",
            "N10000_trial001.csv": "a5c06489a0fdaa15f9145c72af1699d9c40e0256b35b78278db576e9943eda2e",
            "N1000_trial000.csv": "64e6ab50ee59e650eb7d1a19bd5fb5c2e509254854125b11878be959245e9f54",
            "N1000_trial001.csv": "f0bbf0f0d92808d0f80732ba131e26750c85ee1cfa2caa49c651e4b700e772e7",
            "N5000_trial000.csv": "fe557c98c6e19617dc8846460a009f92122c3dee8f04a1e79a1220d92f3dd1e6",
            "N5000_trial001.csv": "911def2069ae02654bb59c7aa489fdaf254c72743cac7cd1bc2a7bb2c2ccc1f0",
            "N500_trial000.csv": "235c0f8acf05ad4a369254cbb289ecbf2cfd699d5f43e532e7aaf50fbdd9a450",
            "N500_trial001.csv": "e164acee2a458314f582a9ca1cf2f0fe625968461704cdcb133988241326a1e5",
            "summary.csv": "9856839904dff51ae35d1f7e3e4744fba5620c5a251b0dcbdf404c60685431ca",
        },
        ("--f", "0.25"): {
            "N10000_trial000.csv": "abb29b52d60b57b47b42e5c73c00f41f9cd359ce05eccf9d52249ba152359df5",
            "N10000_trial001.csv": "5b99469f6c0f6a8a110efebcea03a260b10eb3b37dfa3cdd5510a3b4e877c3df",
            "N1000_trial000.csv": "572139019bffad5306bb8aa8341849d5a4ff8d7976346985c24304d9f3c55e0f",
            "N1000_trial001.csv": "fa4c8f3e511f98695c8d7b06e8240f14c9796a54dd1e7e92851e4ae1e966c757",
            "N5000_trial000.csv": "91cbb8ed8582bf33fc82b8ba3554e3bc9163d1b12e72c7d97612aec9d75cf7d0",
            "N5000_trial001.csv": "8d697601d9d7946e1c5b75433c6d479437ac93038be536408d8c5eff48d04903",
            "N500_trial000.csv": "4b927ba7ae4b2170c01168f3f144281173d8613c1ab101d3e6cbae83fa10df8c",
            "N500_trial001.csv": "823a3b9f9f5584b3a651a38c7e7ee43511873f51ec79cdeb829656596bca1352",
            "summary.csv": "73247e8af020860c45e2f0f3c79f06984ecc6f6da155bac5feec2a9193a4b5e6",
        },
    }

    @pytest.mark.parametrize("f_flags", sorted(SIMULATE_PINS), ids=lambda flags: "-".join(flags) or "default-f")
    def test_simulate_bytes_match_pinned_digests(self, tmp_path, f_flags):
        flags = ["simulate", "--populations", "500,1000,5000,10000", "--trials", "2", "--seed", "104729"]
        assert main(flags + list(f_flags) + ["--out", str(tmp_path / "out")]) == 0
        written = {name: hashlib.sha256(data).hexdigest() for name, data in read_all(tmp_path / "out").items()}
        assert written == self.SIMULATE_PINS[f_flags]

    def test_full_protocol_mode_writes_what_ldp_only_writes(self, tmp_path, capsys):
        # the marketplace run gives the LDP-only estimate bit for bit, so every file and the summary agree
        flags = ["simulate", "--populations", "50,80", "--trials", "2", "--seed", "3"]
        written = {}
        for mode in ("ldp_only", "full_protocol"):
            assert main(flags + ["--mode", mode, "--out", str(tmp_path / mode)]) == 0
            written[mode] = (read_all(tmp_path / mode), capsys.readouterr().out)
        assert written["full_protocol"] == written["ldp_only"]
        assert len(written["ldp_only"][0]) == 5  # four trial files and summary.csv

    def test_invalid_flip_probability_is_usage_error(self, tmp_path):
        assert main(["simulate", "--f", "1.5", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "flag",
        [f"--sd={v}" for v in ("nan", "inf", "-inf", "0", "-1")] + [f"--mean={v}" for v in ("nan", "inf", "-inf")]
        + ["--choices=1"],
    )
    def test_bad_experiment_value_is_one_usage_error_before_any_trial(self, tmp_path, capsys, flag):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a bad value must stop before numpy sees it
            code = main(["simulate", "--populations", "100,200", flag, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1 and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_repeated_population_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--populations", "100,100", "--out", str(tmp_path / "out")]) == 2
        assert "populations must not repeat" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_out_is_usage_error(self):
        assert main(["simulate"]) == 2

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "below-a-file"])
    def test_an_out_that_cannot_be_a_directory_fails_before_any_trial(self, tmp_path, capsys, monkeypatch, below):
        def no_trials(config):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(cli, "run_trials", no_trials)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["simulate", "--populations", "100", "--mode", "full_protocol", "--out", str(taken.joinpath(*below))])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["obliterate"]) == 2


class TestDemoCommand:
    def test_demo_settles(self, tmp_path, capsys):
        code = main([
            "demo", "--operators", "5", "--nr", "3", "--fee", "100",
            "--f", "0.5", "--seed", "7", "--trace-out", str(tmp_path / "d"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pay-operator") == 3
        assert "amount=26" in out  # floor(0.8 * 100 / 3)
        assert "final phase: SETTLED" in out
        assert "chain: OK" in out
        names = {p.name for p in (tmp_path / "d").iterdir()}
        assert names == {"trace.txt", "events.bin", "events.txt"}

    def test_the_largest_u64_fee_settles(self, capsys):
        assert main(["demo", "--fee", "18446744073709551615"]) == 0
        out = capsys.readouterr().out
        assert "fee=18446744073709551615" in out
        assert "final phase: SETTLED" in out

    def test_demo_dumps_the_log_once(self, tmp_path, monkeypatch, capsys):
        # stdout and events.txt print the one dump
        dumps, text_dump = [], EventLog.text_dump
        monkeypatch.setattr(EventLog, "text_dump", lambda log: dumps.append(text_dump(log)) or dumps[-1])
        assert main(["demo", "--trace-out", str(tmp_path)]) == 0
        assert len(dumps) == 1 and dumps[0] in capsys.readouterr().out
        assert (tmp_path / "events.txt").read_text() == dumps[0]

    def test_demo_deterministic(self, tmp_path):
        flags = ["demo", "--operators", "4", "--nr", "2", "--seed", "13"]
        assert main(flags + ["--trace-out", str(tmp_path / "a")]) == 0
        assert main(flags + ["--trace-out", str(tmp_path / "b")]) == 0
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_demo_bytes_match_pinned_digests(self, tmp_path):
        # ledger bytes and event hashes stay fixed across versions, not only across reruns
        assert main([
            "demo", "--operators", "5", "--nr", "3", "--fee", "100",
            "--f", "0.5", "--seed", "7", "--trace-out", str(tmp_path / "d"),
        ]) == 0
        pinned = {
            "events.bin": "a49630fb0974f6b4e4661381bfe7cdfd0c61f687fbc03ab2a89804ef9b531b57",
            "trace.txt": "31b1d10c7aa4a4390382c1205724318726d321fc3a38c6e722a92aaa06667a3d",
        }
        for name, want in pinned.items():
            assert hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest() == want

    def test_screened_demo_bytes_match_pinned_digests(self, tmp_path, capsys):
        # ineligible operators, skipped deliveries and 100 pay lines, pinned before the trace was made lazy
        criteria = tmp_path / "criteria.json"
        criteria.write_text('{"region": ["NSW", "VIC"]}')
        assert main([
            "demo", "--operators", "300", "--nr", "100", "--seed", "1",
            "--criteria-file", str(criteria), "--trace-out", str(tmp_path / "d"),
        ]) == 0
        pinned = {
            "events.bin": "23cfb78a0acc45378816e0e6fb884bb6ef9a5da8458f6de68f0f009082b86c6d",
            "events.txt": "18a9581f351478a3e8cec0fd6be6fe2d19e5bb86b45c526341455e6e4947bd9e",
            "trace.txt": "76f9bb52a854d7db2c3b99788d2e64d3a806460d905c28626419502c40b2170c",
        }
        for name, want in pinned.items():
            assert hashlib.sha256((tmp_path / "d" / name).read_bytes()).hexdigest() == want
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == "e41abca9ca917e45e645ee16d3ef0c3d381cdc97cfa4cecc2c28f703d0093b9a"

    def test_a_trace_out_that_is_a_file_fails_before_the_survey(self, tmp_path, capsys, monkeypatch):
        def no_survey(*args):
            raise AssertionError("the survey ran")

        monkeypatch.setattr(cli, "run_seeded_survey", no_survey)
        taken = tmp_path / "taken"
        taken.write_text("")
        code = main(["demo", "--trace-out", str(taken)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_too_few_operators_fails(self, capsys):
        assert main(["demo", "--operators", "2", "--nr", "3"]) == 1
        assert "protocol failed" in capsys.readouterr().err

    def test_criteria_excluding_everyone_fails(self, tmp_path, capsys):
        criteria = tmp_path / "criteria.json"
        criteria.write_text('{"region": ["TAS"]}')
        code = main([
            "demo", "--operators", "5", "--nr", "2", "--criteria-file", str(criteria),
        ])
        assert code == 1

    @pytest.mark.parametrize("text", ['{"region": 5}', '{"region": ["NSW", 3]}', '{"region": "NSW"}'])
    def test_criteria_value_that_is_not_a_list_of_strings_is_an_error(self, tmp_path, capsys, text):
        criteria = tmp_path / "criteria.json"
        criteria.write_text(text)
        assert main(["demo", "--criteria-file", str(criteria)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --criteria-file {criteria}: criteria for 'region' must be a list of strings\n"

    def test_a_lone_surrogate_in_the_criteria_is_one_error_line(self, tmp_path, capsys):
        criteria = tmp_path / "criteria.json"
        criteria.write_text('{"region": ["\\ud800"]}')  # JSON's escape for a lone surrogate
        assert main(["demo", "--criteria-file", str(criteria)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --criteria-file {criteria}: criteria for 'region': '\\ud800' holds a lone surrogate,"
            " which UTF-8 cannot encode\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"region": ["NSW"]\n,,}', "Expecting property name enclosed in double quotes: line 2 column 2 (char 20)"),
            ('{"region"\n}', "Expecting ':' delimiter: line 2 column 1 (char 10)"),
            ('["NSW"]', "expected a JSON object"),
        ],
        ids=["extra-comma", "missing-colon", "not-an-object"],
    )
    def test_a_malformed_criteria_file_names_the_flag_and_path(self, tmp_path, capsys, text, message):
        criteria = tmp_path / "criteria.json"
        criteria.write_text(text)
        assert main(["demo", "--criteria-file", str(criteria)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --criteria-file {criteria}: {message}\n"

    def test_a_missing_criteria_file_names_the_flag_and_path(self, tmp_path, capsys):
        criteria = tmp_path / "absent.json"
        assert main(["demo", "--criteria-file", str(criteria)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --criteria-file {criteria}: ") and err.count("\n") == 1

    def test_criteria_filtering_works(self, tmp_path, capsys):
        criteria = tmp_path / "criteria.json"
        criteria.write_text('{"region": ["NSW"]}')
        code = main([
            "demo", "--operators", "6", "--nr", "2", "--seed", "3",
            "--criteria-file", str(criteria),
        ])
        assert code == 0
        assert "eligible=2" in capsys.readouterr().out


class TestInspectCommand:
    def _demo_log(self, tmp_path):
        assert main([
            "demo", "--operators", "4", "--nr", "2", "--seed", "5",
            "--trace-out", str(tmp_path / "d"),
        ]) == 0
        return tmp_path / "d" / "events.bin"

    def test_intact_log_verifies(self, tmp_path, capsys):
        log_file = self._demo_log(tmp_path)
        assert main(["inspect-ledger", "--log-file", str(log_file)]) == 0
        assert "chain OK" in capsys.readouterr().out

    def test_mutated_log_detected(self, tmp_path, capsys):
        log_file = self._demo_log(tmp_path)
        data = bytearray(log_file.read_bytes())
        data[len(data) // 2] ^= 0x40
        bad = tmp_path / "mutated.bin"
        bad.write_bytes(bytes(data))
        assert main(["inspect-ledger", "--log-file", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "BROKEN" in captured.out or "corrupt" in captured.err

    def test_truncated_log_names_bad_record(self, tmp_path, capsys):
        log_file = self._demo_log(tmp_path)
        bad = tmp_path / "truncated.bin"
        bad.write_bytes(log_file.read_bytes()[:-7])
        assert main(["inspect-ledger", "--log-file", str(bad)]) == 1
        assert "record" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["inspect-ledger", "--log-file", str(tmp_path / "nope.bin")]) == 1

    def test_empty_log_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert main(["inspect-ledger", "--log-file", str(empty)]) == 1
        assert capsys.readouterr() == ("", "log file holds no events\n")

    def test_party_strings_cannot_add_dump_lines(self, tmp_path, capsys):
        log = EventLog()
        log.append(EventKind.CREATED, {"config_uri": "x\n1 Committed event=00\nchain OK"})
        forged = tmp_path / "forged.bin"
        forged.write_bytes(log.to_bytes())
        assert main(["inspect-ledger", "--log-file", str(forged)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(log) + 1
        assert lines[-1] == "chain OK"


class TestEstimateCommand:
    def test_f_zero_echoes_counts(self, tmp_path, capsys):
        vectors = [(1, 0, 0), (1, 0, 0), (0, 0, 1)]
        reports = tmp_path / "reports.bin"
        reports.write_bytes(b"".join(encode_bit_vector(v) for v in vectors))
        assert main(["estimate", "--reports-file", str(reports), "--f", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "choice_index,ones,estimated_raw,estimated_clamped"
        assert lines[1] == "0,2,2.0,2.0"
        assert lines[2] == "1,0,0.0,0.0"
        assert lines[3] == "2,1,1.0,1.0"

    def test_denoised_estimate(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        vectors = [tuple(int(b) for b in rng.integers(0, 2, size=4)) for _ in range(10)]
        reports = tmp_path / "reports.bin"
        reports.write_bytes(b"".join(encode_bit_vector(v) for v in vectors))
        assert main(["estimate", "--reports-file", str(reports), "--f", "0.5"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_corrupt_reports_file(self, tmp_path, capsys):
        reports = tmp_path / "reports.bin"
        reports.write_bytes(encode_bit_vector((1, 0)) + b"\xff")
        assert main(["estimate", "--reports-file", str(reports), "--f", "0.5"]) == 1
        assert "corrupt" in capsys.readouterr().err

    TWO = encode_bit_vector((1, 0))

    @pytest.mark.parametrize(
        "blob,stderr",
        [
            (b"", "reports file holds no vectors"),
            (TWO + b"\x00\x00", "corrupt reports file: record 1: truncated length prefix"),
            (TWO + b"\x00\x00\x00\x09\xff", "corrupt reports file: record 1: truncated body"),
            (TWO + b"\x00\x00\x00\x02\xa1", "corrupt reports file: record 1: nonzero padding bits"),
            (TWO + encode_bit_vector((1,) * 9), "reports file mixes vector lengths"),
            (TWO + encode_bit_vector((1, 0, 1)), "reports file mixes vector lengths"),
            (TWO + TWO + b"\x00", "corrupt reports file: record 2: truncated length prefix"),
            (b"\xff\xff\xff\xff", "corrupt reports file: record 0: truncated body"),
            (encode_bit_vector(()) * 3, "reports hold 0-bit vectors; a query has at least 2 choices"),
            (encode_bit_vector((1,)) * 3, "reports hold 1-bit vectors; a query has at least 2 choices"),
        ],
        ids=["empty", "truncated-prefix", "truncated-body", "nonzero-padding", "mixed-lengths",
             "mixed-lengths-same-size", "trailing-partial-record", "oversized-prefix", "zero-bit", "one-bit"],
    )
    def test_error_paths(self, tmp_path, capsys, blob, stderr):
        reports = tmp_path / "reports.bin"
        reports.write_bytes(blob)
        assert main(["estimate", "--reports-file", str(reports), "--f", "0.5"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", stderr + "\n")

    @pytest.mark.parametrize("name, error", [
        ("absent.bin", "[Errno 2] No such file or directory"),
        (".", "[Errno 21] Is a directory"),
    ])
    def test_an_unreadable_reports_file_is_named(self, tmp_path, capsys, name, error):
        path = tmp_path / name
        assert main(["estimate", "--reports-file", str(path), "--f", "0.5"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"cannot read reports file: {error}: '{path}'\n")

    def test_requires_f(self, tmp_path):
        reports = tmp_path / "reports.bin"
        reports.write_bytes(encode_bit_vector((1, 0)))
        assert main(["estimate", "--reports-file", str(reports)]) == 2


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def survey_log_file(tmp_path_factory):
    """The event log of a seeded N = 2,000 full-protocol survey."""
    config = ExperimentConfig(
        population=2000, n_choices=20, mean=10.0, sd=2.0,
        privacy=PrivacyParams(0.5), seed=11, mode=Mode.FULL_PROTOCOL,
    )
    _, log, _ = run_full_protocol_experiment(config, 0)
    path = tmp_path_factory.mktemp("survey") / "events.bin"
    path.write_bytes(log.to_bytes())
    return path


class TestReadPathPins:
    # output bytes stay fixed across versions, not only across reruns
    def test_log_bytes_and_parse_round_trip(self, survey_log_file):
        data = survey_log_file.read_bytes()
        assert sha256(data) == "5122edd71c8065c691282488c18063a459328332c118341d19ba06cfb1be310e"
        log = EventLog.from_bytes(data)
        assert log.to_bytes() == data
        for event in log:  # the stored bytes re-encode from the parsed fields and hash to the event hash
            fields = event.sequence_no.to_bytes(4, "big") + bytes([event.kind]) + encode_payload(event.payload)
            assert fields + event.prev_hash == event.event_bytes
            assert digest(fields + event.prev_hash).value == event.event_hash

    def test_inspect_intact_log(self, survey_log_file, capsys):
        assert main(["inspect-ledger", "--log-file", str(survey_log_file)]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\nchain OK\n")
        assert sha256(out.encode()) == "73382734261ecc2732ff61f99e018be06ee36ee17aea7d70c063d96a90d85eff"

    def test_inspect_checks_each_record_fit_once(self, survey_log_file, monkeypatch, capsys):
        checked, fits = [], ledger._fits
        monkeypatch.setattr(ledger, "_fits", lambda records: checked.append(len(records)) or fits(records))
        assert main(["inspect-ledger", "--log-file", str(survey_log_file)]) == 0
        assert sum(checked) == 2006 and capsys.readouterr().out.endswith("\nchain OK\n")

    def test_inspect_tampered_log(self, survey_log_file, tmp_path, capsys):
        data = bytearray(survey_log_file.read_bytes())
        data[-65] ^= 0x01  # last payload byte of the final record
        bad = tmp_path / "tampered.bin"
        bad.write_bytes(bytes(data))
        assert main(["inspect-ledger", "--log-file", str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.endswith("\nchain BROKEN at 2005\n")
        assert sha256(out.encode()) == "bfdfd70e3e5713bfb4320b59f59718039331e3d71053bf9becd71cd7c5ab7ac2"

    def test_estimate_seeded_reports(self, tmp_path, capsys):
        bits = np.random.default_rng(20240).integers(0, 2, size=(12_000, 20), dtype=np.uint8)
        reports = tmp_path / "reports.bin"
        reports.write_bytes(b"".join(encode_bit_vector(row) for row in bits))
        assert sha256(reports.read_bytes()) == "60d2b93eaf654655a809874ad908f8a9a3f26f7d8754bea236806340a7929eaa"
        assert main(["estimate", "--reports-file", str(reports), "--f", "0.5"]) == 0
        out = capsys.readouterr().out
        assert sha256(out.encode()) == "825294a2f538430a3e9e9b68ca7baf3bc6a07642fad5eba029e4d977a118b080"

    @pytest.mark.parametrize("n, reports_sha, out_sha", [
        (20, "9c31d0c777b943ad4fb478573637025ef2aa68de309f75ca1380d20147ff053f",
         "62aff899e238e218aa65a13b4825b67901da41320fad2c4d2d643ce7da2e295b"),
        # 9 bits: every record carries 7 padding bits in its second packed byte
        (9, "82c0e7a207947d2daf4ddfadec20085dcdd0f9df4cb596ff418fb91750d69ceb",
         "62393490b6da7b9a12d4eeebf9db767c4f4c8ca4e4ec321111bf3fa38a8ebdbb"),
    ])
    def test_estimate_100k_packed_reports(self, tmp_path, capsys, n, reports_sha, out_sha):
        # the counts are taken from the packed rows; the output is the bytes of an unpacked column sum
        bits = np.random.default_rng([20240, n]).integers(0, 2, size=(100_000, n), dtype=np.uint8)
        reports = tmp_path / "reports.bin"
        reports.write_bytes(b"".join(encode_bit_matrix(bits)))
        assert sha256(reports.read_bytes()) == reports_sha
        assert main(["estimate", "--reports-file", str(reports), "--f", "0.5"]) == 0
        out = capsys.readouterr().out
        assert sha256(out.encode()) == out_sha
        assert [int(line.split(",")[1]) for line in out.splitlines()[1:]] == bits.sum(axis=0).tolist()


class TestBadFlagValues:
    """A bad flag value is a usage error before any work: exit 2, nothing on stdout, no output written."""

    # flags a constructor rejects: SurveyConfiguration, ExperimentConfig or PrivacyParams
    CONSTRUCTOR_CHECKED = [
        ["demo", "--nr", "0"],
        ["demo", "--fee", "-1"],
        ["demo", "--operators", "0"],
        ["demo", "--seed", "-1"],
        ["demo", "--f", "1.5"],
        ["estimate", "--f", "1.5"],
        ["simulate", "--populations", "100", "--choices", "0"],
        ["simulate", "--populations", "100", "--trials", "0"],
        ["simulate", "--populations", "100", "--seed", "-1"],
        ["simulate", "--populations", "0"],
    ]

    @staticmethod
    def run(tmp_path, capsys, argv):
        out = tmp_path / "out"
        reports = tmp_path / "reports.bin"
        reports.write_bytes(encode_bit_vector((1, 0)))
        destination = {"demo": ["--trace-out", str(out)], "simulate": ["--out", str(out)],
                       "estimate": ["--reports-file", str(reports)]}
        code = main(argv + destination[argv[0]])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert not out.exists()
        return captured.err

    @pytest.mark.parametrize("argv", CONSTRUCTOR_CHECKED, ids=" ".join)
    def test_constructor_checked_flag_is_one_error_line(self, tmp_path, capsys, argv):
        err = self.run(tmp_path, capsys, argv)
        assert err.startswith("error: ") and err.count("\n") == 1

    # each flag a constructor checks, with the error line that names it and its value
    FLAG_ERRORS = [
        (["demo", "--operators", "0"], "--operators 0: population must be at least 1"),
        (["demo", "--nr", "0"], "--nr 0: required response count must be at least 1"),
        (["demo", "--fee", "-1"], "--fee -1: fee must be non-negative"),
        (["demo", "--f", "1.5"], "--f 1.5: flip probability must satisfy 0 <= f < 1, got 1.5"),
        (["demo", "--fee", "18446744073709551616"], "--fee 18446744073709551616: fee must be below 2**64"),
        (["demo", "--nr", "18446744073709551616"],
         "--nr 18446744073709551616: required response count must be below 2**64"),
        (["demo", "--seed", "-1"], "--seed -1: seed must be non-negative"),
        (["demo", "--nr", "0", "--operators", "0"], "--operators 0: population must be at least 1"),
        (["estimate", "--f", "-0.5"], "--f -0.5: flip probability must satisfy 0 <= f < 1, got -0.5"),
        (["simulate", "--populations", "0"], "--populations 0: population must be at least 1"),
        (["simulate", "--populations", "100,0"], "--populations 0: population must be at least 1"),
        (["simulate", "--trials", "0"], "--trials 0: need at least one trial"),
        (["simulate", "--choices", "1"], "--choices 1: need at least 2 choices"),
        (["simulate", "--sd", "0"], "--sd 0.0: standard deviation must be finite and positive, got 0.0"),
        (["simulate", "--mean", "inf"], "--mean inf: mean must be finite, got inf"),
        (["simulate", "--seed", "-1"], "--seed -1: seed must be non-negative"),
        (["simulate", "--f", "1"], "--f 1.0: flip probability must satisfy 0 <= f < 1, got 1.0"),
    ]

    @pytest.mark.parametrize("argv, message", FLAG_ERRORS, ids=[" ".join(argv) for argv, _ in FLAG_ERRORS])
    def test_a_refused_flag_value_is_named_with_its_flag(self, tmp_path, capsys, argv, message):
        assert self.run(tmp_path, capsys, argv) == f"error: {message}\n"

    def test_population_that_is_not_an_integer_is_a_usage_error(self, tmp_path, capsys):
        err = self.run(tmp_path, capsys, ["simulate", "--populations", "5,x"])
        assert "expected comma-separated integers" in err


def test_help_exits_zero():
    assert main(["--help"]) == 0
