"""Command-line contract: CSV shape, round-trip formatting, exit codes."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import EPS, five_factor_scale
from pointscatter import cli, dirac, schrodinger
from pointscatter.cli import main
from pointscatter.connection import ConnectionParams
from pointscatter.schrodinger import NonRelMedium

DELTA_FLAGS = ["--alpha", "1", "--beta", "0", "--gamma", "1", "--delta", "1"]


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
        code, _, err = run_cli(capsys, [
            "transmission", "--framework", "schrodinger",
            "--alpha", "2", "--beta", "0", "--gamma", "0", "--delta", "1",
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
        # det off by 1e-10 sits inside the CLI tolerance but outside the
        # library invariant; the CLI must project it back.
        code, out, _ = run_cli(capsys, [
            "transmission", "--framework", "schrodinger",
            "--alpha", "1.0000000001", "--beta", "0", "--gamma", "1", "--delta", "1",
            "--sweep-start", "1", "--sweep-stop", "2", "--sweep-count", "2",
        ])
        assert code == 0
        assert len(out.splitlines()) == 3

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


class TestOutputFile:
    def test_writes_identical_bytes_to_file(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        argv = [
            "transmission", "--framework", "schrodinger", *DELTA_FLAGS,
            "--sweep-start", "1", "--sweep-stop", "4", "--sweep-count", "4",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        code2 = main(argv + ["--output", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_bytes().decode() == out

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
                             "--scalar", "10"], 2, "propagator"),
    "converge-dirac-s-1e308": (["converge", "--framework", "dirac", "--s", "1e308", "--v", "0.5",
                                "--energy", "2", *SPACINGS], 2, "finite"),
    "converge-dirac-limit-overflows": (["converge", "--framework", "dirac", "--s", "1000",
                                       "--v", "0", "--energy", "2", *SPACINGS],
                                      2, "s=1000.0, v=0.0"),
    "propagate-huge-mass-overflows": (["propagate", "--framework", "dirac", "--x", "1e-300",
                                       "--mass", "1e200", "--energy", "2e200"],
                                      2, "propagator overflows"),
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
    "converge-dirac-energy-below-mass": ([*DIRAC_CONVERGE[:-1], "0.5", *SPACINGS], 2,
                                         "--energy must exceed --mass"),
    "propagate-dirac-mass-zero": (["propagate", "--framework", "dirac", "--x", "1",
                                   "--energy", "2", "--mass", "0"], 2, "mass must be positive"),
    "compare-below-mass-resolution": (["compare", *DELTA_FLAGS, "--sweep-start", "1e-20",
                                       "--sweep-stop", "1", "--sweep-count", "3"],
                                      2, "below the resolution of the mass"),
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


class TestDocumentedExamples:
    @pytest.mark.parametrize("name", sorted(DOCUMENTED_EXAMPLES))
    def test_bytes_unchanged(self, capsys, name):
        argv, want = DOCUMENTED_EXAMPLES[name]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert out == want

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
        assert cli._csv("a,b,c", table) == want
