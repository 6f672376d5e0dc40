"""Command-line contract: CSV shape, round-trip formatting, exit codes."""

import argparse
import hashlib
import io
import math
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EPS, exact_transmission, five_factor_scale, ulps_from
from pointscatter import cli, dirac, schrodinger
from pointscatter.cli import main
from pointscatter.connection import ConnectionParams
from pointscatter.schrodinger import NonRelMedium

DELTA_FLAGS = ["--alpha", "1", "--beta", "0", "--gamma", "1", "--delta", "1"]
CONNECTION_FLAGS = ("--alpha", "--beta", "--gamma", "--delta")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransmission:
    def test_identity_connection_all_ones(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "schrodinger",
            "--alpha", "1", "--beta", "0", "--gamma", "0", "--delta", "1",
            "--sweep-start", "0.5", "--sweep-stop", "4", "--sweep-count", "8",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,T2,R2"
        assert len(lines) == 9
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_delta_row_value(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--mass", "1", "--sweep-start", "2", "--sweep-stop", "4", "--sweep-count", "3",
        ])
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert first[0] == "2"
        assert float(first[1]) == pytest.approx(0.8, abs=1e-15)

    def test_epsilon_low_k_transmits(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "schrodinger",
            "--alpha", "1", "--beta", "1", "--gamma", "0", "--delta", "1",
            "--sweep-start", "1e-6", "--sweep-stop", "1", "--sweep-count", "7",
            "--spacing", "log",
        ])
        assert code == 0
        first = out.splitlines()[1].split(",")
        assert float(first[1]) > 1.0 - 1e-10

    def test_dirac_framework_sweeps_energy(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "dirac", *DELTA_FLAGS,
            "--mass", "1", "--sweep-start", "1.5", "--sweep-stop", "10", "--sweep-count", "4",
        ])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        for x_str, t2_str, r2_str in rows:
            want = dirac.transmission(ConnectionParams(1, 0, 1, 1, 0), float(x_str), 1.0)
            assert float(t2_str) == pytest.approx(want, abs=1e-15)

    def test_rows_recompute_bit_identically(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--mass", "1", "--sweep-start", "0.3", "--sweep-stop", "7", "--sweep-count", "11",
            "--spacing", "log",
        ])
        assert code == 0
        p = ConnectionParams(1, 0, 1, 1, 0)
        for line in out.splitlines()[1:]:
            x_str, t2_str, r2_str = line.split(",")
            k = float(x_str)
            t2 = schrodinger.transmission(p, NonRelMedium(m=1.0, k=k))
            assert format(t2, ".17g") == t2_str
            assert format(1.0 - t2, ".17g") == r2_str

    def test_invalid_determinant_exits_2(self, capsys):
        # The computed det of 1e8 * 1e8 - 1e8 * 1e8 is 0: inside the rounding
        # band, but not positive, so no sqrt(0) rescale is attempted.
        for entries in [("2", "0", "0", "1"), ("1e8",) * 4]:
            flags = [x for pair in zip(CONNECTION_FLAGS, entries) for x in pair]
            code, _, err = run_cli(capsys, [
                "transmission", "--framework", "schrodinger", *flags,
                "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "2",
            ])
            assert code == 2
            assert "must be 1" in err

    def test_nonpositive_mass_exits_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--mass", "-1", "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "2",
        ])
        assert code == 2
        assert "mass" in err

    def test_nan_mass_exits_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "dirac", *DELTA_FLAGS,
            "--mass", "nan", "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "2",
        ])
        assert code == 2
        assert "mass" in err

    def test_wave_number_whose_square_underflows_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--sweep-start", "1e-170", "--sweep-stop", "1", "--sweep-count", "2",
        ])
        assert code == 0
        assert out.splitlines()[1:] == ["9.9999999999999998e-171,0,1", "1,0.5,0.5"]

    def test_schrodinger_rows_whose_rho_squared_underflows(self, capsys):
        # rho = k/2m is near 5e-309, and rho^2 underflows to 0: both rows
        # printed T2 = 0, R2 = 1 for T2 near 1e-16 and 4e-16.
        code, out, _ = run_cli(capsys, [
            "transmission", "--alpha=1", "--beta=0", "--gamma=1e-300", "--delta=1",
            "--framework=schrodinger", "--mass=1e308", "--sweep-start=1", "--sweep-stop=2",
            "--sweep-count=2",
        ])
        assert code == 0
        p, m = ConnectionParams(1, 0, 1e-300, 1), Fraction(1e308)
        for line in out.splitlines()[1:]:
            k, t2, _ = map(float, line.split(","))
            assert ulps_from(t2, exact_transmission(p, (Fraction(k) / (2 * m)) ** 2)) <= 4

    def test_schrodinger_rows_whose_rho_overflows(self, capsys):
        # rho = k/2m is above 2.2e308: both rows printed T2 = 0, R2 = 1 for T2 near 8e-17 and 2e-17.
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework=schrodinger", "--alpha=1", "--beta=1e-300", "--gamma=0",
            "--delta=1", "--mass=2.2250738585072014e-308", "--sweep-start=10", "--sweep-stop=20",
            "--sweep-count=2",
        ])
        assert code == 0
        p, m = ConnectionParams(1, 1e-300, 0, 1), Fraction(2.2250738585072014e-308)
        for line in out.splitlines()[1:]:
            k, t2, _ = map(float, line.split(","))
            assert ulps_from(t2, exact_transmission(p, (Fraction(k) / (2 * m)) ** 2)) <= 4

    def test_dirac_energies_where_e_plus_m_overflows(self, capsys):
        # Both rows printed T2 = 0, R2 = 1.
        code, out, _ = run_cli(capsys, [
            "transmission", "--alpha=1", "--beta=0", "--gamma=1", "--delta=1", "--framework=dirac",
            "--mass=1e308", "--sweep-start=1.5e308", "--sweep-stop=1.7e308", "--sweep-count=2",
        ])
        assert code == 0
        p, m = ConnectionParams(1, 0, 1, 1), Fraction(1e308)
        for line in out.splitlines()[1:]:
            E, t2, _ = map(float, line.split(","))
            exact = exact_transmission(p, (Fraction(E) - m) / (Fraction(E) + m))
            assert ulps_from(t2, exact) <= 4

    def test_dirac_infinite_energy_exits_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "dirac", *DELTA_FLAGS,
            "--mass", "1", "--sweep-start", "2", "--sweep-stop", "inf", "--sweep-count", "2",
        ])
        assert code == 2
        assert "finite" in err

    def test_dirac_energy_below_mass_exits_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "dirac", *DELTA_FLAGS,
            "--mass", "1", "--sweep-start", "0.5", "--sweep-stop", "2", "--sweep-count", "2",
        ])
        assert code == 2
        assert "above the mass" in err

    def test_near_unimodular_parameters_are_rescaled(self, capsys):
        # det off by 1e-10 sits inside the CLI's 1e-9 floor but outside the
        # library's 1e-12: the CLI projects it onto det 1.  Entries in the
        # thousands put det 3.7e-9 off, and entries 2^27 with gamma 10 ulps
        # low put it at 20: both only inside the rounding band of
        # alpha*delta - beta*gamma, where a sqrt(det) rescale is no rounding-
        # level correction, so the CLI keeps them.  The rows are the library's
        # for the connection so formed.
        for entries, rescaled in [
            ((1.0000000001, 0.0, 1.0, 1.0), True),
            ((3295.6212316547953, 5458.915783827469, 5045.419583098643, 8357.307973883806),
             False),
            ((2.0**27, 2.0**27, 2.0**27 - 10 * 2.0**-26, 2.0**27), False),
        ]:
            flags = [x for pair in zip(CONNECTION_FLAGS, entries) for x in (pair[0], repr(pair[1]))]
            code, out, _ = run_cli(capsys, [
                "transmission", "--framework", "schrodinger", *flags,
                "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "5",
            ])
            assert code == 0
            alpha, beta, gamma, delta = entries
            scale = math.sqrt(alpha * delta - beta * gamma) if rescaled else 1.0
            p = ConnectionParams(*(x / scale for x in entries))
            lines = out.splitlines()
            assert len(lines) == 6
            for line in lines[1:]:
                x_str, t2_str, r2_str = line.split(",")
                t2 = schrodinger.transmission(p, NonRelMedium(m=1.0, k=float(x_str)))
                assert (t2_str, r2_str) == (format(t2, ".17g"), format(1.0 - t2, ".17g"))

    def test_sweep_count_must_be_at_least_two(self, capsys):
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "1",
        ])
        assert code == 2
        assert "sweep-count" in err

    def test_log_spacing_needs_positive_endpoints(self, capsys):
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--sweep-start", "-1", "--sweep-stop", "2", "--sweep-count", "3",
            "--spacing", "log",
        ])
        assert code == 2
        assert "positive endpoints" in err


class TestConverge:
    def test_schrodinger_errors_decay(self, capsys):
        code, out, _ = run_cli(capsys, [
            "converge", "--framework", "schrodinger",
            "--alpha", "2", "--beta", "1", "--gamma", "1", "--delta", "1", "--theta", "0.3",
            "--mass", "1", "--k", "1",
            "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "5",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,err"
        errs = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(later < earlier for earlier, later in zip(errs, errs[1:]))

    def test_dirac_errors_decay(self, capsys):
        code, out, _ = run_cli(capsys, [
            "converge", "--framework", "dirac", "--s", "1", "--v", "1",
            "--energy", "2", "--mass", "1",
            "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "3",
        ])
        assert code == 0
        errs = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert errs[0] > errs[1] > errs[2]

    def test_singular_renormalization_exits_3(self, capsys):
        code, _, err = run_cli(capsys, [
            "converge", "--framework", "schrodinger",
            "--alpha", "-1", "--beta", "0", "--gamma", "3", "--delta", "-1",
            "--k", "1", "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "3",
        ])
        assert code == 3
        assert "alpha + delta" in err

    def test_missing_framework_parameters_exit_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "converge", "--framework", "schrodinger",
            "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "3",
        ])
        assert code == 2
        assert "--alpha" in err

    def test_tiny_beta_warns(self, capsys):
        code, out, err = run_cli(capsys, [
            "converge", "--framework", "schrodinger",
            "--alpha", "1", "--beta", "1e-8", "--gamma", "0", "--delta", "1",
            "--k", "1", "--sweep-start", "1e-1", "--sweep-stop", "1e-2", "--sweep-count", "2",
        ])
        assert code == 0
        assert "beta" in err


class TestCompare:
    def test_columns_and_values(self, capsys):
        code, out, _ = run_cli(capsys, [
            "compare", *DELTA_FLAGS, "--mass", "1",
            "--sweep-start", "1e-6", "--sweep-stop", "1e6", "--sweep-count", "5",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "kinetic,T2_schrodinger,T2_dirac,diff"
        p = ConnectionParams(1, 0, 1, 1, 0)
        for line in lines[1:]:
            eps_str, ts_str, td_str, diff_str = line.split(",")
            eps = float(eps_str)
            ts = schrodinger.transmission(p, NonRelMedium(m=1.0, k=math.sqrt(2.0 * eps)))
            td = dirac.transmission(p, 1.0 + eps, 1.0)
            assert format(ts, ".17g") == ts_str
            assert format(td, ".17g") == td_str
            assert format(abs(ts - td), ".17g") == diff_str


    # 2 m eps is subnormal, 0 and infinite: T2_schrodinger read 0.88888998842776179, exit 2
    # ("wave number must be positive") and 0.
    @pytest.mark.parametrize("m, eps", [("1e-160", "1e-160"), ("1e-300", "1e-300"), ("1", "1e308")],
                             ids=["subnormal", "zero", "infinite"])
    def test_schrodinger_column_where_two_m_eps_is_not_normal(self, capsys, m, eps):
        code, out, _ = run_cli(capsys, [
            "compare", "--alpha=1", "--beta=1", "--gamma=0", "--delta=1", f"--mass={m}",
            f"--sweep-start={eps}", f"--sweep-stop={eps}", "--sweep-count=2",
        ])
        assert code == 0
        rho2 = Fraction(float(eps)) / (2 * Fraction(float(m)))
        exact = exact_transmission(ConnectionParams(1, 1, 0, 1), rho2)
        for line in out.splitlines()[1:]:
            assert ulps_from(float(line.split(",")[1]), exact) <= 4


    # 2 m eps is normal and (k/2m)^2 overflows: every row printed T2_schrodinger = 0 for 1.
    def test_schrodinger_column_where_rho_squared_overflows(self, capsys):
        code, out, _ = run_cli(capsys, [
            "compare", "--alpha=1", "--beta=1e-200", "--gamma=0", "--delta=1", "--mass=1e-300",
            "--sweep-start=1e9", "--sweep-stop=2e10", "--sweep-count=3",
        ])
        assert code == 0
        p = ConnectionParams(1, 1e-200, 0, 1)
        for line in out.splitlines()[1:]:
            eps, t_s = map(float, line.split(",")[:2])
            exact = exact_transmission(p, Fraction(eps) / (2 * Fraction(1e-300)))
            assert ulps_from(t_s, exact) <= 4

    # A log sweep up to DBL_MAX: ratio**(n-1) overflows by rounding, which exited 1 with an
    # OverflowError.  --sweep-stop replaces that power, so it is never formed.
    @pytest.mark.filterwarnings("error")
    def test_log_sweep_up_to_the_largest_float(self, capsys):
        code, out, err = run_cli(capsys, [
            "compare", "--alpha=1", "--beta=0", "--gamma=1", "--delta=1", "--sweep-start=1",
            "--sweep-stop=1.7976931348623157e308", "--sweep-count=5",
        ])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines[-1] == "1.7976931348623157e+308,1,0.80000000000000004,0.19999999999999996"


class TestClassify:
    @pytest.mark.parametrize(
        "argv,want",
        [
            (["--s", "1", "--v", "1"], "delta strength=2"),
            (["--s", "1", "--v", "-1"], "epsilon strength=2"),
            (["--s", "0", "--v", "1"], "trig"),
            (["--s", "2", "--v", "0.5"], "hyperbolic"),
        ],
    )
    def test_tags(self, capsys, argv, want):
        code, out, _ = run_cli(capsys, ["classify", *argv])
        assert code == 0
        assert out == want + "\n"

    def test_nonzero_theta_on_boundary_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["classify", "--s", "1", "--v", "1", "--theta", "0.5"])
        assert code == 2
        assert "theta" in err


class TestPropagate:
    def test_schrodinger_identity_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, [
            "propagate", "--framework", "schrodinger", "--x", "0", "--mass", "1", "--k", "2",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "re11,im11,re12,im12,re21,im21,re22,im22"
        assert lines[1] == "1,0,0,0,0,0,1,0"

    def test_dirac_matches_library(self, capsys):
        code, out, _ = run_cli(capsys, [
            "propagate", "--framework", "dirac", "--x", "0.5", "--mass", "1",
            "--energy", "2", "--scalar", "0.4", "--vector", "0.1", "--avec", "0.2",
        ])
        assert code == 0
        cells = out.splitlines()[1].split(",")
        med = dirac.DiracMedium(m=1.0, E=2.0, S=0.4, V=0.1, A=0.2)
        M = dirac.propagator(0.5, med)
        flat = [M[0, 0], M[0, 1], M[1, 0], M[1, 1]]
        for idx, entry in enumerate(flat):
            assert cells[2 * idx] == format(entry.real, ".17g")
            assert cells[2 * idx + 1] == format(entry.imag, ".17g")

    def test_missing_k_exits_2(self, capsys):
        code, _, err = run_cli(capsys, [
            "propagate", "--framework", "schrodinger", "--x", "1",
        ])
        assert code == 2
        assert "--k" in err


# One call of each subcommand, written to stdout or to --output.
OUTPUT_ARGV = {
    "transmission": ["transmission", "--framework", "schrodinger", *DELTA_FLAGS,
                     "--sweep-start", "1", "--sweep-stop", "4", "--sweep-count", "4"],
    "converge": ["converge", "--framework", "dirac", "--s", "1", "--v", "0.5", "--energy", "2",
                 "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "3"],
    "compare": ["compare", *DELTA_FLAGS, "--sweep-start", "1e-3", "--sweep-stop", "1e3",
                "--sweep-count", "5"],
    "classify": ["classify", "--s", "1", "--v", "-1"],
    "propagate": ["propagate", "--framework", "schrodinger", "--x", "0.5", "--k", "2"],
}


class TestOutputFile:
    @pytest.mark.parametrize("name", sorted(OUTPUT_ARGV))
    def test_writes_identical_bytes_to_file(self, capsysbinary, tmp_path, name):
        target = tmp_path / "out.csv"
        assert main(OUTPUT_ARGV[name]) == 0
        out = capsysbinary.readouterr().out
        assert out.endswith(b"\n")
        assert main([*OUTPUT_ARGV[name], "--output", str(target)]) == 0
        assert capsysbinary.readouterr() == (b"", b"")
        assert target.read_bytes() == out

    def test_text_printed_first_comes_out_first(self, monkeypatch):
        # Unlike pytest's capture, a TextIOWrapper left to itself holds text
        # back until it is flushed: main must flush before it writes bytes.
        stdout = io.TextIOWrapper(io.BytesIO(), "ascii", newline="\n")
        monkeypatch.setattr(sys, "stdout", stdout)
        print("before")
        assert main(OUTPUT_ARGV["classify"]) == 0
        print("after")
        stdout.flush()
        assert stdout.buffer.getvalue() == b"before\nepsilon strength=2\nafter\n"

    @pytest.mark.parametrize("name", ["classify", "transmission"])
    def test_text_only_stdout_gets_the_same_text(self, capsysbinary, monkeypatch, name):
        # A stream with no binary .buffer, as contextlib.redirect_stdout(io.StringIO()) installs.
        assert main(OUTPUT_ARGV[name]) == 0
        want = capsysbinary.readouterr().out.decode("ascii")
        stdout = io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        print("before")
        assert main(OUTPUT_ARGV[name]) == 0
        assert stdout.getvalue() == "before\n" + want

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


SWEEP = ["--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "3"]
SPACINGS = ["--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "3"]
SCHRODINGER_CONVERGE = ["converge", "--framework", "schrodinger", *DELTA_FLAGS, "--k", "1"]
DIRAC_CONVERGE = ["converge", "--framework", "dirac", "--s", "1", "--v", "0.5", "--energy", "2"]

# (argv, documented exit code, fragment the error line must contain).
# "{missing}" stands for a path whose directory does not exist.
HOSTILE_INPUTS = {
    "mass-nan": (["transmission", "--framework", "schrodinger", *DELTA_FLAGS,
                  "--mass", "nan", *SWEEP], 2, "mass"),
    "transmission-sweep-start-nan": (["transmission", "--framework", "schrodinger",
                                      *DELTA_FLAGS, "--sweep-start", "nan",
                                      "--sweep-stop", "2", "--sweep-count", "3"], 2, "wave number"),
    "converge-sweep-start-nan": ([*SCHRODINGER_CONVERGE, "--sweep-start", "nan",
                                  "--sweep-stop", "1e-4", "--sweep-count", "3"], 2, "finite"),
    "compare-sweep-start-nan": (["compare", *DELTA_FLAGS, "--sweep-start", "nan",
                                 "--sweep-stop", "1", "--sweep-count", "3"], 2, "finite"),
    "alpha-nan": (["transmission", "--framework", "dirac", "--alpha", "nan", "--beta", "0",
                   "--gamma", "1", "--delta", "1", "--sweep-start", "2", "--sweep-stop", "3",
                   "--sweep-count", "2"], 2, "alpha"),
    "propagate-x-inf": (["propagate", "--framework", "schrodinger", "--x", "inf", "--k", "1"],
                        2, "--x"),
    "propagate-x-nan": (["propagate", "--framework", "dirac", "--x", "nan", "--energy", "2"],
                        2, "--x"),
    "propagate-energy-inf": (["propagate", "--framework", "dirac", "--x", "1", "--energy", "inf"],
                             2, "finite"),
    "propagate-k-nan": (["propagate", "--framework", "schrodinger", "--x", "1", "--k", "nan"],
                        2, "wave number"),
    "propagate-k-inf": (["propagate", "--framework", "schrodinger", "--x", "1", "--k", "inf"],
                        2, "propagator"),
    "propagate-overflows": (["propagate", "--framework", "dirac", "--x", "1e3", "--energy", "2",
                             "--scalar", "10"], 2,
                            "displacement x=1000.0 is out of range: the propagator overflows"),
    "converge-dirac-s-1e308": (["converge", "--framework", "dirac", "--s", "1e308", "--v", "0.5",
                                "--energy", "2", *SPACINGS], 2, "finite"),
    "converge-dirac-limit-overflows": (["converge", "--framework", "dirac", "--s", "1000",
                                       "--v", "0", "--energy", "2", *SPACINGS],
                                      2, "s=1000.0, v=0.0"),
    "propagate-huge-mass-overflows": (["propagate", "--framework", "dirac", "--x", "1e-300",
                                       "--mass", "1e200", "--energy", "2e200"],
                                      2, "propagator overflows"),
    "converge-dirac-width-overflows": (["converge", "--framework", "dirac",
                                        "--s", "-0.03249090995812371", "--v", "183.62771374892313",
                                        "--energy", "1.1503661775380474",
                                        "--mass", "1.1499948238031545",
                                        "--sweep-start", "21917.61871521", "--sweep-stop", "1",
                                        "--sweep-count", "2"],
                                       2, "half-spacing a=21917.61871521 is out of range"),
    "converge-dirac-energy-inf": (["converge", "--framework", "dirac", "--s", "1", "--v", "0.5",
                                   "--energy", "inf", *SPACINGS], 2, "finite"),
    "converge-k-nan": (["converge", "--framework", "schrodinger", *DELTA_FLAGS, "--k", "nan",
                        *SPACINGS], 2, "wave number"),
    "converge-theta-inf": ([*DIRAC_CONVERGE, "--theta", "inf", *SPACINGS], 2, "theta"),
    "converge-schrodinger-theta-nan": ([*SCHRODINGER_CONVERGE, "--theta", "nan", *SPACINGS],
                                       2, "theta"),
    "transmission-theta-nan": (["transmission", "--framework", "schrodinger", *DELTA_FLAGS,
                                "--theta", "nan", *SWEEP], 2, "theta"),
    "compare-theta-inf": (["compare", *DELTA_FLAGS, "--theta", "inf", *SWEEP], 2, "theta"),
    "converge-k-inf": ([*SCHRODINGER_CONVERGE[:-1], "inf", *SPACINGS], 2,
                       "wave number k=inf must be finite"),
    "converge-mass-inf": ([*SCHRODINGER_CONVERGE, "--mass", "inf", *SPACINGS], 2, "mass"),
    # NonRelMedium's message: the sweep admits the masses that the medium admits.  Without
    # the check the first printed the rho = 0 limit, and the second "rho2 must be non-negative".
    "transmission-mass-inf": (["transmission", "--framework=schrodinger", "--alpha=1", "--beta=0",
                               "--gamma=1", "--delta=1", "--mass=inf", "--sweep-start=1",
                               "--sweep-stop=2", "--sweep-count=2"], 2, "error: mass must be finite\n"),
    "transmission-mass-and-wave-number-inf": (["transmission", "--framework=schrodinger", "--alpha=1",
                                               "--beta=0", "--gamma=1", "--delta=1", "--mass=inf",
                                               "--sweep-start=1", "--sweep-stop=inf", "--sweep-count=2"],
                                              2, "error: mass must be finite\n"),
    "converge-spacing-underflows": (["converge", "--framework", "schrodinger", "--alpha", "2",
                                     "--beta", "1", "--gamma", "1", "--delta", "1", "--k", "1",
                                     "--sweep-start", "1e-200", "--sweep-stop", "1e-201",
                                     "--sweep-count", "2"], 2, "a=1e-200 is too small"),
    "converge-dirac-energy-below-mass": ([*DIRAC_CONVERGE[:-1], "0.5", *SPACINGS], 2,
                                         "--energy must exceed --mass"),
    "propagate-dirac-mass-zero": (["propagate", "--framework", "dirac", "--x", "1",
                                   "--energy", "2", "--mass", "0"], 2, "mass must be positive"),
    "compare-below-mass-resolution": (["compare", *DELTA_FLAGS, "--sweep-start", "1e-20",
                                       "--sweep-stop", "1", "--sweep-count", "3"],
                                      2, "below the resolution of the mass"),
    "compare-mass-inf": (["compare", *DELTA_FLAGS, "--mass=inf", "--sweep-start=1", "--sweep-stop=2",
                          "--sweep-count=2"],
                         2, "error: mass must be finite\n"),
    # m + eps overflowed, and the error named the Dirac energy the caller never passed.
    "compare-energy-overflows": (["compare", "--mass=1e308", "--alpha=1", "--beta=0.5", "--gamma=0",
                                  "--delta=1", "--sweep-start=1e300",
                                  "--sweep-stop=1.7976931348623157e308", "--sweep-count=2"],
                                 2, "error: kinetic energy 1.7976931348623157e+308 plus the mass "
                                    "1e+308 exceeds the float range\n"),
    # v0 = 4 gamma / (alpha + delta + 2) overflows at every a: the error named a=0.1.
    "converge-v-zero-overflows": (["converge", "--framework=schrodinger", "--alpha=-1.00000003",
                                   "--beta=0", "--gamma=1e300", "--delta=-0.9999999700000008", "--k=1",
                                   "--sweep-start=0.01", "--sweep-stop=0.1", "--sweep-count=2"],
                                  2, "error: v_zero must be finite\n"),
    # The endpoints span more than the float range: step = inf, and inf * 0 = NaN warned.
    "linear-sweep-beyond-the-float-range": (["transmission", "--framework", "schrodinger", *DELTA_FLAGS,
                                             "--sweep-start=-1e308", "--sweep-stop=1e308",
                                             "--sweep-count=3"], 2, "wave number must be positive"),
    # Its last power overflowed by rounding and exited 1 with a traceback.
    "converge-log-sweep-stop-power-overflows": (["converge", "--framework=dirac", "--s=1", "--v=0.5",
                                                 "--energy=2", "--sweep-start=1e-300",
                                                 "--sweep-stop=1.7976931348623157e8",
                                                 "--sweep-count=5"], 2,
                                                "half-spacing a=1.157920892373162e-223 is out of "
                                                "range: the finite barrier overflows"),
    "log-sweep-ratio-overflows": (["transmission", "--framework", "schrodinger", *DELTA_FLAGS,
                                   "--sweep-start", "1e-300", "--sweep-stop", "1e300",
                                   "--sweep-count", "3", "--spacing", "log"], 2, "ratio"),
    "singular-renormalization": (["converge", "--framework", "schrodinger", "--alpha", "-1",
                                  "--beta", "0", "--gamma", "3", "--delta", "-1", "--k", "1",
                                  *SPACINGS], 3, "alpha + delta"),
    "output-directory-missing": (["transmission", "--framework", "schrodinger", *DELTA_FLAGS,
                                  *SWEEP, "--output", "{missing}"], 4, "out.csv"),
}


class TestHostileInput:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(HOSTILE_INPUTS))
    def test_exits_with_documented_code(self, capsys, tmp_path, name):
        argv, want_code, fragment = HOSTILE_INPUTS[name]
        missing = str(tmp_path / "missing" / "out.csv")
        argv = [missing if arg == "{missing}" else arg for arg in argv]
        code, out, err = run_cli(capsys, argv)
        assert code == want_code
        assert out == ""
        assert err.startswith("error:")
        assert fragment in err
        assert "Traceback" not in err

    # argparse alone reads a negative value in exponent notation as a flag
    # ("--alpha: expected one argument"), yet "%.17g" prints such values.
    # Spaced or joined with "=", the flag must read the same value.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["transmission", "--framework", "schrodinger", "--alpha", "-1e-05", "--beta", "0",
         "--gamma", "0", "--delta", "-1e+05", *SWEEP],
        ["transmission", "--framework", "schrodinger", "--alpha", "-1.0000000000000001e-05",
         "--beta", "-2.5E+3", "--gamma", "0", "--delta", "-99999.999999999985", *SWEEP],
        ["classify", "--s", "-1e-05", "--v", "-.5e-4"],
        ["propagate", "--framework", "dirac", "--x", "-1.5e-1", "--energy", "2", "--scalar", "-4e-1"],
        [*DIRAC_CONVERGE, "--theta", "-3e-1", "--sweep-start", "1e-2", "--sweep-stop", "1e-4",
         "--sweep-count", "3"],
    ], ids=["transmission", "transmission-17g", "classify", "propagate", "converge"])
    def test_negative_exponent_notation_is_a_value(self, capsys, argv):
        spaced = run_cli(capsys, argv)
        assert spaced[0] == 0 and spaced[2] == ""
        joined = []
        for arg in argv:
            if arg.startswith("-") and not arg.startswith("--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        assert run_cli(capsys, joined) == spaced

    def test_huge_theta_wraps(self, capsys):
        # theta enters only through phases, so 1e300 is a valid (wrapped) angle.
        code, out, err = run_cli(capsys, [*DIRAC_CONVERGE, "--theta", "1e300", *SPACINGS])
        assert (code, err) == (0, "")
        assert all(math.isfinite(float(line.split(",")[1])) for line in out.splitlines()[1:])


# Output of the README's command-line examples, recorded before the
# convergence sweeps were batched.  transmission, compare, classify and
# propagate must reproduce it byte for byte.
DOCUMENTED_EXAMPLES = {
    "transmission": (
        ["transmission", "--framework", "schrodinger", *DELTA_FLAGS, "--mass", "1",
         "--sweep-start", "0.5", "--sweep-stop", "8", "--sweep-count", "16"],
    "x,T2,R2\n"
    "0.5,0.20000000000000001,0.80000000000000004\n"
    "1,0.5,0.5\n"
    "1.5,0.69230769230769229,0.30769230769230771\n"
    "2,0.80000000000000004,0.19999999999999996\n"
    "2.5,0.86206896551724144,0.13793103448275856\n"
    "3,0.89999999999999991,0.10000000000000009\n"
    "3.5,0.92452830188679236,0.075471698113207641\n"
    "4,0.94117647058823528,0.058823529411764719\n"
    "4.5,0.95294117647058829,0.047058823529411709\n"
    "5,0.96153846153846145,0.038461538461538547\n"
    "5.5,0.96800000000000008,0.031999999999999917\n"
    "6,0.97297297297297303,0.027027027027026973\n"
    "6.5,0.97687861271676313,0.023121387283236872\n"
    "7,0.97999999999999998,0.020000000000000018\n"
    "7.5,0.98253275109170313,0.017467248908296873\n"
    "8,0.98461538461538467,0.01538461538461533\n"
    ),
    "compare": (
        ["compare", *DELTA_FLAGS, "--mass", "1",
         "--sweep-start", "1e-6", "--sweep-stop", "1e6", "--sweep-count", "13", "--spacing", "log"],
    "kinetic,T2_schrodinger,T2_dirac,diff\n"
    "9.9999999999999995e-07,1.999996000008e-06,1.9999949998479673e-06,1.0001600327151855e-12\n"
    "9.9999999999999974e-06,1.9999600007999834e-05,1.9999500012630705e-05,9.9995369128795097e-11\n"
    "9.9999999999999964e-05,0.0001999600079984002,0.00019995001249685379,9.9955015464103618e-09\n"
    "0.00099999999999999937,0.0019960079840319347,0.001995012468827711,9.9551520422362996e-07\n"
    "0.0099999999999999915,0.019607843137254884,0.019512195121951237,9.5648015303647499e-05\n"
    "0.099999999999999908,0.16666666666666657,0.15999999999999984,0.0066666666666667374\n"
    "0.99999999999999889,0.66666666666666652,0.57142857142857117,0.095238095238095344\n"
    "9.9999999999999858,0.95238095238095233,0.76923076923076916,0.18315018315018317\n"
    "99.999999999999844,0.99502487562189046,0.79681274900398413,0.19821212661790633\n"
    "999.99999999999841,0.99950024987506247,0.79968012794882048,0.19982012192624199\n"
    "9999.9999999999818,0.99995000249987487,0.79996800127994883,0.19998200121992604\n"
    "99999.999999999796,0.99999500002499986,0.79999680001279994,0.19999820001219992\n"
    "1000000,0.99999950000024995,0.799999680000128,0.19999982000012195\n"
    ),
    "classify": (["classify", "--s", "1", "--v", "1"], "delta strength=2\n"),
    "propagate": (
        ["propagate", "--framework", "dirac", "--x", "0.5", "--mass", "1",
         "--energy", "2", "--scalar", "0.4", "--vector", "0.1", "--avec", "0.2"],
    "re11,im11,re12,im12,re21,im21,re22,im22\n"
    "0.7967426931530629,0.079940916853991309,1.5311913142594709,0.15363157841631406,-0.23199868397870771,-0.023277511881259708,0.7967426931530629,0.079940916853991309\n"
    ),
}

CONVERGE_EXAMPLE = [
    "converge", "--framework", "schrodinger",
    "--alpha", "2", "--beta", "1", "--gamma", "1", "--delta", "1", "--theta", "0.3",
    "--mass", "1", "--k", "1", "--sweep-start", "1e-2", "--sweep-stop", "1e-4", "--sweep-count", "5",
]
CONVERGE_RECORDED = (
    "a,err\n"
    "0.01,0.23445382292267244\n"
    "0.0031622776601683794,0.074259974964709818\n"
    "0.001,0.023494678802411822\n"
    "0.00031622776601683799,0.0074308214507671933\n"
    "0.0001,0.0023499469266509325\n"
)


# converge output recorded before the error column was taken entry by entry
# from the kernel's four entries, which does the same operations per
# element as the stack of matrices it replaced: the bytes must not move.
CONVERGE_PINNED = {
    "schrodinger-beta-theta": (
        ["--framework", "schrodinger", "--alpha", "2", "--beta", "1", "--gamma", "1",
         "--delta", "1", "--theta", "0.3", "--mass", "0.4", "--k", "3"],
    "a,err\n"
    "0.10000000000000001,0.47480404334318038\n"
    "0.010000000000000002,0.019877771735849578\n"
    "0.0010000000000000002,0.0016839229419929383\n"
    "0.00010000000000000003,0.00016533936286574396\n"
    "1.0000000000000003e-05,1.6503356164306338e-05\n"
    "1.0000000000000004e-06,1.6484409581065331e-06\n"
    "9.9999999999999995e-08,1.7136398636002932e-07\n"
    ),
    "schrodinger-beta-zero": (
        ["--framework", "schrodinger", "--alpha", "-0.4", "--beta", "0", "--gamma", "0.7",
         "--delta", "-2.5", "--theta", "1.9", "--mass", "1", "--k", "1"],
    "a,err\n"
    "0.10000000000000001,0.47053502176432399\n"
    "0.010000000000000002,0.046700520483906889\n"
    "0.0010000000000000002,0.004667000518717635\n"
    "0.00010000000000000003,0.00046667000051891518\n"
    "1.0000000000000003e-05,4.6666700001076218e-05\n"
    "1.0000000000000004e-06,4.6666670001208922e-06\n"
    "9.9999999999999995e-08,4.6666666966243098e-07\n"
    ),
    "dirac": (
        ["--framework", "dirac", "--s", "0.6", "--v", "0.2", "--theta", "-1.1",
         "--energy", "2", "--mass", "1", "--sweep-start", "10"],
    "a,err\n"
    "10,2.040238395639657\n"
    "0.46415888336127797,2.5507251469725953\n"
    "0.021544346900318843,0.14364141685564893\n"
    "0.0010000000000000002,0.0066038035311992557\n"
    "4.6415888336127811e-05,0.00030637332211710483\n"
    "2.1544346900318852e-06,1.4220269736720271e-05\n"
    "9.9999999999999995e-08,6.6004576229315918e-07\n"
    ),
}


# 2500-row calls of the three kinds the benchmark's cli_sweeps workload makes,
# with the flags it draws for seed 201, and the sha256 of each output,
# recorded before the CSV formatter's cells were narrowed to 32 bytes.
SWEEP_PINNED = {
    "transmission-schrodinger": (
        ["transmission", "--framework", "schrodinger", "--alpha=1.6938096341144915",
         "--beta=-0.04885152143898963", "--gamma=87.90677805142211", "--delta=-1.9449528366473263",
         "--theta=0.0", "--mass=0.16404467157551883", "--sweep-start=0.0059356665897398655",
         "--sweep-stop=4.569426815615888", "--sweep-count=2500", "--spacing=linear"],
        "c5f0b6093d48069f2c4da611bc3221f065c7f987859e30805ff8f60cbb8a901f",
    ),
    "transmission-dirac": (
        ["transmission", "--framework", "dirac", "--alpha=0.589798639104362", "--beta=0.0",
         "--gamma=0.2366889598972004", "--delta=1.695493908766132", "--theta=-0.16251109221151872",
         "--mass=7.037270583627617", "--sweep-start=7.693356579047785",
         "--sweep-stop=93.74333497487383", "--sweep-count=2500", "--spacing=log"],
        "835d31f8b1035ae40a4239f593aa33c513d022e74e3e81e5688fd2b6ad1a893d",
    ),
    "compare": (
        ["compare", "--alpha=-0.832423867838684", "--beta=0.0", "--gamma=-0.6952617242129633",
         "--delta=-1.2013110611501479", "--theta=0.0", "--mass=2.506010881532253",
         "--sweep-start=0.0002789690673627704", "--sweep-stop=182447.04853818307",
         "--sweep-count=2500", "--spacing=log"],
        "53ac5670246af7438583db112a7f81e27fd7b52bc10ee285482ceb886da607f1",
    ),
}


class TestDocumentedExamples:
    @pytest.mark.parametrize("name", sorted(DOCUMENTED_EXAMPLES))
    def test_bytes_unchanged(self, capsys, name):
        argv, want = DOCUMENTED_EXAMPLES[name]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == want

    @pytest.mark.parametrize("name", sorted(CONVERGE_PINNED))
    def test_converge_bytes_unchanged(self, capsys, name):
        flags, want = CONVERGE_PINNED[name]
        # The last --sweep-start wins, so the Dirac case may start elsewhere.
        sweep = ["--sweep-start", "1e-1", "--sweep-stop", "1e-7", "--sweep-count", "7"]
        code, out, _ = run_cli(capsys, ["converge", *sweep, *flags])
        assert code == 0
        assert out == want

    @pytest.mark.parametrize("name", sorted(SWEEP_PINNED))
    def test_sweep_bytes_unchanged(self, capsys, name):
        argv, want = SWEEP_PINNED[name]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == want

    def test_converge_rows_within_rounding(self, capsys):
        # The error column is a difference of O(1) entries of a product whose
        # factors reach 1/a^2; evaluating it in another order moves its last
        # digits.  Two evaluations may differ by twice the rounding bound of
        # the product, 64 eps times the factors' modulus product.
        code, out, _ = run_cli(capsys, CONVERGE_EXAMPLE)
        assert code == 0
        got = [line.split(",") for line in out.splitlines()]
        want = [line.split(",") for line in CONVERGE_RECORDED.splitlines()]
        assert got[0] == want[0] == ["a", "err"]
        assert [row[0] for row in got] == [row[0] for row in want]
        p = ConnectionParams(2, 1, 1, 1, 0.3)
        for (a_str, err_str), (_, recorded) in zip(got[1:], want[1:]):
            a = float(a_str)
            cfg = schrodinger.renormalized_strengths(p, a, 1.0)
            scale = five_factor_scale(cfg.v_plus, cfg.v_zero, cfg.v_minus, a, cfg.A, 1.0, 1.0)
            assert abs(float(err_str) - float(recorded)) <= 2 * 64 * EPS * scale


# Where "%.17g" switches between fixed and exponent notation (exponent
# below -4 or at least 17), with each boundary's neighbours, and the
# signed zeros and subnormals.
FORMAT_EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308] + [
    float(x)
    for b in (1e-5, 1e-4, 1e16, 1e17)
    for x in (np.nextafter(b, 0.0), b, np.nextafter(b, math.inf))
]
any_float = st.one_of(st.sampled_from(FORMAT_EDGES), st.floats())


class TestOnePassFormatting:
    @given(x=any_float)
    def test_percent_format_is_format_spec(self, x):
        assert "%.17g" % x == format(x, ".17g")
        assert "%.17g" % -x == format(-x, ".17g")

    @given(cells=st.lists(any_float, min_size=3, max_size=30))
    def test_table_is_each_value_formatted(self, cells):
        table = np.array(cells[: len(cells) // 3 * 3]).reshape(-1, 3)
        want = "a,b,c\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist()
        )
        assert cli._csv("a,b,c", table) == want.encode("ascii")

    # _csv forms most values' digits in numpy; each family below must come
    # out exactly as format(x, ".17g") of each value and of its negation.

    @staticmethod
    def assert_each_value_formatted(*parts, negated=True):
        values = np.concatenate([np.ravel(np.asarray(part, dtype=float)) for part in parts])
        if negated:
            values = np.concatenate((values, -values))
        table = np.resize(values, (-(-values.size // 4), 4))
        want = "a,b,c,d\n" + "".join(
            ",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist()
        )
        assert cli._csv("a,b,c,d", table) == want.encode("ascii")

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20261018)
        bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
        self.assert_each_value_formatted(bits.view(np.float64), negated=False)

    def test_powers_of_ten_with_neighbours(self):
        decades = np.array([float(f"1e{n}") for n in range(-300, 309)])
        below, above = np.nextafter(decades, 0.0), np.nextafter(decades, math.inf)
        self.assert_each_value_formatted(below, decades, above)

    def test_exact_ties_round_half_to_even(self):
        # m / 2^e with m odd ends in the digit 5 at the e-th decimal place;
        # with floor(log10 x) = 17 - e it has 18 significant digits, so its
        # rounding to 17 is an exact tie.  e = 2..25 takes x from 1e15 down
        # to 3e-8, where 10^(16 - k) is no longer a double.  The halves
        # (2j + 1)/2 have 17 digits up to 2^52 and are rounded beyond.
        rng = np.random.default_rng(5)
        ties = []
        for e in range(2, 26):
            lo = math.ceil(Fraction(10) ** (17 - e) * 2**e)
            hi = min(math.ceil(Fraction(10) ** (18 - e) * 2**e), 2**53)
            m = rng.integers(lo // 2, (hi - 1) // 2, 2000) * 2 + 1
            ties.append(m.astype(float) / 2.0**e)
        ties = np.concatenate(ties)
        for x in ties[::97].tolist():
            digits = Decimal(x).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        j = rng.integers(10**15, 10**16, 20000)
        self.assert_each_value_formatted(ties, (2 * j + 1) / 2)

    def test_near_ties_past_the_exact_powers_of_ten(self):
        # Past 10^22, |x| 10^p is formed with an error below 2^-47.  x =
        # m 2^-(j+p) has |x| 10^p = m 5^p / 2^j, and m = (2^(j-1) + o) 5^-p
        # mod 2^j puts it o / 2^j from a half-integer: within that error for
        # j >= 48, so the rounding must be left to "%.17g".
        near = []
        for p in range(23, 40):
            for j in range(40, 54):
                inverse = pow(5**p, -1, 2**j)
                for offset in (-3, -2, -1, 1, 2, 3):
                    first = (2 ** (j - 1) + offset) * inverse % 2**j
                    for m in range(first, 2**53, 2**j):
                        if 10**16 * 2**j <= m * 5**p < 10**17 * 2**j:
                            near.append(float(m) * 2.0 ** (-j - p))
        assert len(near) > 500
        self.assert_each_value_formatted(near)

    def test_rounding_that_carries_into_the_leading_digit(self):
        # d * 10^n and the two doubles below it: several round up to d, the
        # carry running through all sixteen 9s below the leading digit.
        values, carries = [], 0
        for n in range(-300, 308):
            for d in range(1, 10):
                x = float(f"{d}e{n}")
                for _ in range(3):
                    values.append(x)
                    mantissa = format(x, ".17g").split("e")[0].replace(".", "").strip("0")
                    carries += mantissa == str(d) and Fraction(x) < d * Fraction(10) ** n
                    x = float(np.nextafter(x, 0.0))
        assert carries > 100
        self.assert_each_value_formatted(values)

    def test_notation_switches(self):
        # Fixed notation from exponent -4 up to 16, exponent notation outside.
        rng = np.random.default_rng(6)
        edges = np.array([1e-5, 1e-4, 1e16, 1e17])
        steps = [edges]
        for _ in range(20):
            steps = [np.nextafter(steps[0], 0.0), *steps, np.nextafter(steps[-1], math.inf)]
        spread = 10.0 ** rng.uniform(-0.1, 0.1, (5000, 1)) * edges
        self.assert_each_value_formatted(*steps, spread)

    def test_three_digit_exponents(self):
        rng = np.random.default_rng(7)
        self.assert_each_value_formatted(10.0 ** rng.uniform(-307, -99, 20000))
        self.assert_each_value_formatted(10.0 ** rng.uniform(100, 308, 20000))

    def test_ends_of_the_fast_path(self):
        # cli._K_MIN and 1e17 bound the values whose digits numpy forms.
        rng = np.random.default_rng(8)
        centres = np.array([10.0**cli._K_MIN, 1e17])
        self.assert_each_value_formatted(10.0 ** rng.uniform(-1.5, 1.5, (20000, 1)) * centres)

    def test_zeros_nan_infinities_and_subnormals(self):
        rng = np.random.default_rng(9)
        subnormals = rng.integers(1, 2**52, 1000, dtype=np.uint64).view(np.float64)
        specials = [0.0, math.nan, math.inf, 5e-324, 2.2250738585072009e-308,
                    2.2250738585072014e-308, 1.7976931348623157e308]
        self.assert_each_value_formatted(specials, subnormals)
        assert cli._csv("a", np.array([[-0.0], [math.nan], [-math.inf]])) == b"a\n-0\nnan\n-inf\n"


class TestBlocks:
    """_csv's bytes must not depend on how many values _cells takes at a time."""

    @staticmethod
    def table(rows, cols):
        # Fallback values (zeros, NaN, infinities, subnormals, and exact ties
        # past 10^22, m / 2^24 and m / 2^25 with 18 digits ending in 5) at
        # random places, so in several blocks, and in the last three cells.
        rng = np.random.default_rng(11)
        values = 10.0 ** rng.uniform(-12, 18, rows * cols) * rng.choice([-1.0, 1.0], rows * cols)
        ties = [m / 2.0**24 for m in range(3, 17, 2)] + [1 / 2.0**25, 3 / 2.0**25]
        specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308]
        specials += ties + [-t for t in ties]
        values[rng.choice(values.size - 3, 4 * len(specials), replace=False)] = specials * 4
        values[-3:] = specials[2:5]
        return values.reshape(rows, cols)

    @pytest.mark.parametrize("block", [1, 2, 3, None, 10**6])
    @pytest.mark.parametrize("cols", [3, 1])
    def test_bytes_do_not_depend_on_the_block_size(self, monkeypatch, block, cols):
        if block is not None:
            monkeypatch.setattr(cli, "_BLOCK_VALUES", block)
        table = self.table(4500 // cols, cols)
        header = ",".join("abc"[:cols])
        want = [header] + [",".join(format(v, ".17g") for v in row) for row in table.tolist()]
        assert cli._csv(header, table).split(b"\n") == [line.encode("ascii") for line in want] + [b""]

    def test_empty_table_is_the_header_line(self):
        assert cli._csv("a,b,c", np.empty((0, 3))) == b"a,b,c\n"


class TestSweepValues:
    def test_linear_spacing_is_start_plus_step_times_index(self):
        # The same two IEEE operations per entry as start + step * i in Python.
        rng = np.random.default_rng(10)
        for _ in range(300):
            start, stop = (float(v) for v in rng.uniform(-1, 1, 2) * 10.0 ** rng.integers(-8, 9, 2))
            count = int(rng.integers(2, 3000))
            args = argparse.Namespace(
                sweep_start=start, sweep_stop=stop, sweep_count=count, spacing="linear"
            )
            step = (stop - start) / (count - 1)
            want = [start + step * i for i in range(count)]
            want[0], want[-1] = start, stop
            assert [v.hex() for v in cli._sweep_values(args)] == [v.hex() for v in want]

    # An inf step, and step * i past DBL_MAX, give inf and NaN rows without a numpy warning.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("start, stop, count, want", [
        (1.0, math.inf, 3, [1.0, math.inf, math.inf]),
        (0.0, 1.7976931348623157e308, 4, [0.0, 5.992310449541053e307, 1.1984620899082105e308,
                                          1.7976931348623157e308]),
    ], ids=["inf-step", "rounds-past-dbl-max"])
    def test_linear_spacing_near_the_ends_of_the_float_range(self, start, stop, count, want):
        args = argparse.Namespace(sweep_start=start, sweep_stop=stop, sweep_count=count, spacing="linear")
        assert cli._sweep_values(args) == want

    def test_log_spacing_is_start_times_ratio_to_the_index(self):
        # Python's pow, then one multiply, per entry; ratios below 1 sweep downwards.
        rng = np.random.default_rng(11)
        cases = [(1.0, 1.7976931348623157e308, 5), (1.7976931348623157e308, 1.0, 5),
                 (1e-300, 1.7976931348623157e8, 5), (2.5, 2.5, 3)]
        for _ in range(300):
            start, stop = (float(v) for v in 10.0 ** rng.uniform(-150, 150, 2))
            cases.append((start, stop, int(rng.integers(2, 3000))))
        for start, stop, count in cases:
            args = argparse.Namespace(
                sweep_start=start, sweep_stop=stop, sweep_count=count, spacing="log"
            )
            ratio = (stop / start) ** (1.0 / (count - 1))
            want = [start * ratio**i for i in range(count - 1)] + [stop]
            want[0] = start
            assert [v.hex() for v in cli._sweep_values(args)] == [v.hex() for v in want]
        assert any(start > stop for start, stop, _ in cases)
