import math

import numpy as np
import pytest

from unmix.experiment import DEFAULT_LAMBDA_GRID, parse_experiment_config
from unmix.fileio import (
    BadMagic,
    ParseError,
    ShapeMismatch,
    parse_band_ranges,
    read_matrix,
    read_truth_meta,
    write_matrix,
    write_truth_meta,
)


class TestMatrixFormat:
    def test_round_trip_exact(self, rng, tmp_path):
        A = rng.standard_normal((3, 4)) * np.exp(rng.uniform(-30, 30, size=(3, 4)))
        path = tmp_path / "a.txt"
        write_matrix(path, A)
        np.testing.assert_array_equal(read_matrix(path), A)

    def test_header_format(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        first = path.read_text().splitlines()[0]
        assert first == "UNMIX-MATRIX v1 2 2"

    def test_values_written_with_17_significant_digits(self, tmp_path):
        values = [-0.0, 5e-324, 1e300, 0.1, 1 / 3]
        path = tmp_path / "v.txt"
        write_matrix(path, np.array([values]))
        assert path.read_text().splitlines()[1] == " ".join(format(v, ".17g") for v in values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("MATRIX 2 2\n1 2\n3 4\n")
        with pytest.raises(BadMagic):
            read_matrix(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("UNMIX-MATRIX v1 2 2\n1 2\n3\n")
        with pytest.raises(ShapeMismatch):
            read_matrix(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad_value.txt"
        path.write_text("UNMIX-MATRIX v1 2 2\n1 2\n3 oops\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 3

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# leading comment\nUNMIX-MATRIX v1 2 2\n1 2\n# interleaved\n3 4\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_indented_comment_before_header_ignored(self, tmp_path):
        path = tmp_path / "ic.txt"
        path.write_text("  # indented note\nUNMIX-MATRIX v1 1 2\n\t# another\n1 2\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0]])

    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("UNMIX-MATRIX v1 1 2\n1e-3 2.5E+2\n")
        np.testing.assert_array_equal(read_matrix(path), [[1e-3, 250.0]])

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("UNMIX-MATRIX v1 1 2\nnan 1\n")
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_tokens_read_as_float_reads_them(self, tmp_path):
        tokens = ["1_0", "+.5", "5.", "1E+2", "\u0661\u0662", "\u0663.\u0665", "-0", "4.9e-324"]
        path = tmp_path / "f.txt"
        path.write_text(f"UNMIX-MATRIX v1 2 4\n{' '.join(tokens[:4])}\n{' '.join(tokens[4:])}\n", encoding="utf-8")
        got = read_matrix(path).ravel()
        assert [v.hex() for v in got.tolist()] == [float(t).hex() for t in tokens]

    @pytest.mark.parametrize(
        "token, message",
        [("1x", "bad value '1x'"), ("inf", "non-finite value 'inf'"), ("-NaN", "non-finite value '-NaN'")],
    )
    def test_bad_token_reports_its_line(self, tmp_path, token, message):
        path = tmp_path / "b.txt"
        path.write_text(f"UNMIX-MATRIX v1 3 3\n1 2 3\n# note\n4 5 6\n7 {token} oops\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.line == 5
        assert str(err.value) == f"line 5: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_numbers_count_every_line_boundary(self, tmp_path, newline):
        # a form feed, a file separator and U+2028 each end a line, as the
        # newline does, whether or not the file is read line by line
        text = newline.join(["UNMIX-MATRIX v1 2 2", "# note\x0c1 2", "3\x1c# c\u2028x", ""])
        path = tmp_path / "s.txt"
        path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert str(err.value) == "line 6: bad value 'x'"
        path.write_bytes(text.replace("x", "4").encode("utf-8"))
        np.testing.assert_array_equal(read_matrix(path), [[1.0, 2.0], [3.0, 4.0]])


class TestTruthMeta:
    def test_round_trip(self, tmp_path):
        from unmix import gen_cube, gen_endmembers
        from unmix.synth import SyntheticSpec

        M = gen_endmembers(3, 20, seed=1)
        spec = SyntheticSpec(model="ppnmm", R=3, L=20, T=8, snr_db=25.0, n_corrupt=4, seed=7)
        _, truth = gen_cube(M, spec)
        path = tmp_path / "meta.txt"
        write_truth_meta(path, truth, spec)
        meta = read_truth_meta(path)
        assert meta["model"] == "ppnmm"
        assert int(meta["seed"]) == 7
        assert [int(v) for v in meta["corrupted_bands"].split(",")] == list(truth.corrupted_bands)
        b = np.array([float(v) for v in meta["b"].split(",")])
        np.testing.assert_array_equal(b, truth.b)
        assert float(meta["noise_sigma"]) == truth.noise_sigma


class TestBandRanges:
    def test_paper_style_ranges(self):
        idx = parse_band_ranges("1-3,105-115,150-170,223-224")
        assert idx[:3] == [0, 1, 2]
        assert 104 in idx and 114 in idx and 115 not in idx
        assert len(idx) == 3 + 11 + 21 + 2

    def test_single_band(self):
        assert parse_band_ranges("5") == [4]

    def test_bad_ranges(self):
        with pytest.raises(ParseError):
            parse_band_ranges("0-3")
        with pytest.raises(ParseError):
            parse_band_ranges("7-4")
        with pytest.raises(ParseError):
            parse_band_ranges("a-b")


def config_text(**overrides):
    base = {
        "model": "lmm",
        "R": "3",
        "L": "40",
        "T": "16",
        "snr_db": "25",
        "corrupt_list": "0,20,40,60",
        "algorithms": "ls,fcls",
        "seeds": "1,2",
        "metric": "rmse",
    }
    base.update(overrides)
    return "\n".join(f"{k} = {v}" for k, v in base.items() if v is not None) + "\n"


class TestExperimentConfig:
    def test_minimal_config(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text())
        cfg = parse_experiment_config(path)
        assert cfg.model == "lmm"
        assert cfg.corrupt_list == (0, 20, 40, 60)
        assert cfg.algorithms == ("ls", "fcls")
        assert cfg.metrics == ("RMSE",)
        assert cfg.lambda_grid == DEFAULT_LAMBDA_GRID

    def test_unknown_key_fails_closed(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text() + "mystery = 42\n")
        with pytest.raises(ParseError) as err:
            parse_experiment_config(path)
        assert "mystery" in str(err.value)

    def test_empty_algorithms_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(algorithms=""))
        with pytest.raises(ParseError):
            parse_experiment_config(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(model=None))
        with pytest.raises(ParseError):
            parse_experiment_config(path)

    def test_inf_snr_and_lists(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            config_text(snr_db="inf", metric="rmse,sre", lambda_grid="1e-4,1e-3", K="4")
        )
        cfg = parse_experiment_config(path)
        assert math.isinf(cfg.snr_db)
        assert cfg.metrics == ("RMSE", "SRE_dB")
        assert cfg.lambda_grid == (1e-4, 1e-3)
        assert cfg.K == 4

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text() + "model = ppnmm\n")
        with pytest.raises(ParseError):
            parse_experiment_config(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(config_text(algorithms="ls,magic"))
        with pytest.raises(ParseError):
            parse_experiment_config(path)
