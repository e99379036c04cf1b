import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sscpolar
from sscpolar import code_from_frozen, load_code, make_channel, save_code
from sscpolar.channel import ChannelKind
from sscpolar.cli import main
from sscpolar.experiments import POLICIES

from conftest import EXAMPLE8_FROZEN


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def kv(stdout):
    pairs = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


@pytest.fixture
def example8_file(tmp_path, bec_half):
    path = tmp_path / "example8.code"
    save_code(code_from_frozen(bec_half, EXAMPLE8_FROZEN, pe=1e-3), path)
    return str(path)


# The full stdout of each command, byte for byte: one field a line, floats to
# six significant digits, `na` for an absent value, and one line a row for
# `bound`.  Paths are relative to a directory holding example8.code.
_STDOUT = {
    "construct": (
        ("construct", "--channel", "bec", "--capacity", "0.5", "--pe", "1e-3", "--n", "10",
         "--out", "c.code"),
        "N=1024\nk=261\nfrozen=763\nrate=0.254883\nout=c.code\n"),
    "latency-p4": (
        ("latency", "--code", "example8.code", "--p", "4"),
        "n=3\nN=8\nP=4\nsc_tree=14\nsc_closed=14\nssc=10\nnormalized=1.25\n"),
    "latency-p3": (
        ("latency", "--code", "example8.code", "--p", "3"),
        "n=3\nN=8\nP=3\nsc_tree=16\nsc_closed=na\nssc=12\nnormalized=1.5\n"),
    "simulate": (
        ("simulate", "--code", "example8.code", "--trials", "300", "--seed", "4"),
        "trials=300\nagree=300/300\nfer=0.256667\nseed=4\n"),
    "sweep-6": (
        ("sweep", "--figure", "6", "--channel", "bec", "--nmax", "8", "--out", "f6.csv",
         "--svg", "f6.svg", "--gnuplot", "f6.gp"),
        "rows=35\nout=f6.csv\nsvg=f6.svg\ngnuplot=f6.gp\n"),
    "sweep-7": (
        ("sweep", "--figure", "7", "--nmax", "8", "--out", "f7.csv"),
        "rows=25\nout=f7.csv\n"),
    "sweep-8": (
        ("sweep", "--figure", "8", "--nmax", "8", "--out", "f8.csv"),
        "rows=5\nout=f8.csv\n"),
    "bound": (
        ("bound", "--nmax", "8", "--policy", "one", "--mu", "3.63"),
        "n=4 N=16 P=1 bound=87.4543 log2_bound=6.45046\n"
        "n=5 N=32 P=1 bound=198.071 log2_bound=7.62988\n"
        "n=6 N=64 P=1 bound=433.946 log2_bound=8.76137\n"
        "n=7 N=128 P=1 bound=931.982 log2_bound=9.86416\n"
        "n=8 N=256 P=1 bound=1975.57 log2_bound=10.9481\n"),
}


@pytest.mark.parametrize("argv, stdout", _STDOUT.values(), ids=list(_STDOUT))
def test_stdout_is_pinned(capsys, tmp_path, monkeypatch, bec_half, argv, stdout):
    monkeypatch.chdir(tmp_path)
    save_code(code_from_frozen(bec_half, EXAMPLE8_FROZEN, pe=1e-3), "example8.code")
    assert run(capsys, *argv) == (0, stdout, "")


def test_failing_command_prints_no_record(capsys, tmp_path, monkeypatch):
    # the CSV is written before the SVG fails, but no field reaches stdout
    monkeypatch.chdir(tmp_path)
    rc, stdout, err = run(capsys, "sweep", "--figure", "7", "--nmax", "6", "--out", "x.csv",
                          "--svg", str(tmp_path / "no" / "x.svg"))
    assert (rc, stdout) == (3, "")
    assert err.startswith("i/o error: ")


class TestConstruct:
    def test_writes_file_and_reports(self, capsys, tmp_path):
        out = tmp_path / "c.code"
        rc, stdout, _ = run(capsys, "construct", "--channel", "bec",
                            "--capacity", "0.5", "--pe", "1e-3", "--n", "10",
                            "--out", str(out))
        assert rc == 0
        fields = kv(stdout)
        assert fields["N"] == "1024"
        assert 0.0 < float(fields["rate"]) < 1.0
        code = load_code(out)
        assert code.n == 10
        assert code.k == int(fields["k"])

    def test_param_instead_of_capacity(self, capsys, tmp_path):
        out = tmp_path / "c.code"
        rc, stdout, _ = run(capsys, "construct", "--channel", "bsc",
                            "--param", "0.11", "--pe", "1e-2", "--n", "6",
                            "--out", str(out))
        assert rc == 0
        assert load_code(out).channel.param == 0.11

    def test_useless_bawgnc_is_not_stored_as_perfect(self, capsys, tmp_path):
        out = tmp_path / "c.code"
        rc, stdout, _ = run(capsys, "construct", "--channel", "bawgnc",
                            "--param", "1e300", "--pe", "1e-3", "--n", "4",
                            "--out", str(out))
        assert rc == 0
        assert kv(stdout)["k"] == "0"
        assert load_code(out).channel.capacity == 0.0

    @pytest.mark.parametrize("flags", [
        ("--channel", "bec", "--capacity", "1.5", "--pe", "1e-3", "--n", "4"),
        ("--channel", "bec", "--capacity", "0.0", "--pe", "1e-3", "--n", "4"),
        ("--channel", "bec", "--capacity", "0.5", "--pe", "2.0", "--n", "4"),
        ("--channel", "bec", "--capacity", "0.5", "--pe", "1e-3", "--n", "0"),
        ("--channel", "bec", "--capacity", "0.5", "--param", "0.5",
         "--pe", "1e-3", "--n", "4"),
        ("--channel", "bec", "--pe", "1e-3", "--n", "4"),
    ])
    def test_validation_failures_exit_2(self, capsys, tmp_path, flags):
        rc, _, err = run(capsys, "construct", *flags, "--out", str(tmp_path / "x"))
        assert rc == 2
        assert err

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        rc, _, err = run(capsys, "construct", "--channel", "bec", "--capacity",
                         "0.5", "--pe", "1e-3", "--n", "4",
                         "--out", str(tmp_path / "no" / "dir" / "x"))
        assert rc == 3


class TestLatency:
    def test_example8_fully_parallel(self, capsys, example8_file):
        rc, stdout, _ = run(capsys, "latency", "--code", example8_file, "--p", "4")
        assert rc == 0
        fields = kv(stdout)
        assert fields["ssc"] == "10"
        assert fields["sc_tree"] == "14"
        assert fields["sc_closed"] == "14"

    def test_example8_serial(self, capsys, example8_file):
        rc, stdout, _ = run(capsys, "latency", "--code", example8_file, "--p", "1")
        fields = kv(stdout)
        assert (rc, fields["ssc"], fields["sc_tree"]) == (0, "20", "24")

    def test_odd_p_has_no_closed_form(self, capsys, example8_file):
        rc, stdout, _ = run(capsys, "latency", "--code", example8_file, "--p", "3")
        assert kv(stdout)["sc_closed"] == "na"

    def test_inline_with_policy(self, capsys):
        rc, stdout, _ = run(capsys, "latency", "--channel", "bec", "--capacity",
                            "0.5", "--pe", "1e-3", "--n", "10", "--policy", "half")
        fields = kv(stdout)
        assert rc == 0
        assert fields["P"] == "512"
        assert fields["ssc"] == "408"

    def test_p_zero_exits_2(self, capsys, example8_file):
        rc, _, err = run(capsys, "latency", "--code", example8_file, "--p", "0")
        assert rc == 2

    def test_code_file_with_padding_bits_exits_2(self, capsys, tmp_path):
        path = tmp_path / "padded.code"
        path.write_text("polarcode v1\nbec 0.5 0.5 0.5 1\nb\n", encoding="ascii")
        rc, _, err = run(capsys, "latency", "--code", str(path), "--p", "1")
        assert rc == 2
        assert "padding" in err

    def test_p_and_policy_conflict(self, capsys, example8_file):
        rc, _, _ = run(capsys, "latency", "--code", example8_file,
                       "--p", "2", "--policy", "half")
        assert rc == 2

    @pytest.mark.parametrize("flag", [("--channel", "bsc"), ("--capacity", "0.5"),
                                      ("--param", "0.1"), ("--pe", "0.3"), ("--n", "9")])
    def test_code_conflicts_with_channel_flags(self, capsys, example8_file, flag):
        rc, stdout, err = run(capsys, "latency", "--code", example8_file, *flag, "--p", "1")
        assert (rc, stdout) == (2, "")
        assert err == f"error: --code conflicts with {flag[0]}\n"


class TestSimulate:
    def test_agreement_and_determinism(self, capsys):
        args = ("simulate", "--channel", "bec", "--capacity", "0.5", "--pe",
                "1e-2", "--n", "6", "--trials", "200", "--seed", "5")
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        fields = kv(out1)
        assert fields["agree"] == "200/200"
        assert fields["seed"] == "5"

    def test_noiseless_fer_zero(self, capsys, tmp_path, bec_half):
        path = tmp_path / "c.code"
        save_code(code_from_frozen(make_channel(ChannelKind.BEC, 0.0),
                                   EXAMPLE8_FROZEN, pe=1e-3), path)
        rc, stdout, _ = run(capsys, "simulate", "--code", str(path),
                            "--trials", "100", "--seed", "1")
        assert rc == 0
        assert kv(stdout)["fer"] == "0"

    def test_code_conflicts_with_channel_flags(self, capsys, example8_file):
        # the file's code used to run, and these flags were ignored
        rc, stdout, err = run(capsys, "simulate", "--code", example8_file, "--pe", "0.3",
                              "--n", "9", "--channel", "bsc", "--trials", "4")
        assert (rc, stdout) == (2, "")
        assert err == "error: --code conflicts with --channel, --pe, --n\n"

    def test_bad_trials(self, capsys):
        rc, _, _ = run(capsys, "simulate", "--channel", "bec", "--capacity",
                       "0.5", "--pe", "1e-2", "--n", "4", "--trials", "0")
        assert rc == 2


class TestSweep:
    def test_policy_preset_row_count(self, capsys, tmp_path):
        out = tmp_path / "f7.csv"
        rc, stdout, _ = run(capsys, "sweep", "--figure", "7", "--nmax", "20",
                            "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("channel,capacity,pe,n,log2N,p_policy,P,"
                            "latency,latency_norm,log2_latency")
        assert len(lines) == 1 + 5 * 17

    def test_parallelism_preset_single_curve(self, capsys, tmp_path):
        out = tmp_path / "f8.csv"
        rc, _, _ = run(capsys, "sweep", "--figure", "8", "--factor", "1.01",
                       "--nmax", "12", "--out", str(out))
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 9
        assert all(",fixed," in line for line in lines[1:])

    def test_serial_preset_with_svg_and_gnuplot(self, capsys, tmp_path):
        out = tmp_path / "f6.csv"
        svg = tmp_path / "f6.svg"
        gp = tmp_path / "f6.gp"
        rc, stdout, _ = run(capsys, "sweep", "--figure", "6", "--channel", "bec",
                            "--nmax", "8", "--out", str(out), "--svg", str(svg),
                            "--gnuplot", str(gp))
        assert rc == 0
        ET.fromstring(svg.read_text())
        assert svg.stat().st_size < 1 << 20
        assert "plot $data0" in gp.read_text()

    @pytest.mark.parametrize("figure", ["7", "8"])
    def test_channel_only_for_figure_6(self, capsys, tmp_path, figure):
        out = tmp_path / "x.csv"
        rc, stdout, err = run(capsys, "sweep", "--figure", figure, "--channel", "bec",
                              "--nmax", "6", "--out", str(out))
        assert (rc, stdout) == (2, "")
        assert err == "error: --channel applies to --figure 6 only\n"
        assert not out.exists()

    def test_figure_9_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--figure", "9", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_missing_out_exits_2(self, capsys):
        rc, _, _ = run(capsys, "sweep", "--figure", "7", "--nmax", "6")
        assert rc == 2

    def test_unwritable_out_exits_3(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "sweep", "--figure", "7", "--nmax", "6",
                       "--out", str(tmp_path / "no" / "x.csv"))
        assert rc == 3

    def test_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "sweep", "--figure", "7", "--nmax", "10", "--out", str(a))
        run(capsys, "sweep", "--figure", "7", "--nmax", "10", "--out", str(b),
            "--threads", "4")
        assert a.read_bytes() == b.read_bytes()


class TestBound:
    def test_curve_output(self, capsys):
        rc, stdout, _ = run(capsys, "bound", "--nmax", "8", "--policy", "one",
                            "--mu", "3.63", "--c", "1.0", "--eps", "0.5")
        assert rc == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 5  # n = 4..8
        assert lines[0].startswith("n=4 N=16 P=1 bound=")

    def test_requires_n(self, capsys):
        rc, _, _ = run(capsys, "bound", "--policy", "one")
        assert rc == 2

    def test_invalid_ratio_rejected(self, capsys):
        rc, _, _ = run(capsys, "bound", "--n", "1", "--p", "2")
        assert rc == 2

    def test_library_error_reaches_stderr_unwrapped(self, capsys):
        rc, stdout, err = run(capsys, "bound", "--n", "6", "--p", "64")
        assert rc == 2
        assert stdout == ""
        assert err == "error: log2(log2(N/P)) undefined for N/P = 1.0\n"
        rc, stdout, err = run(capsys, "bound", "--n", "6", "--p", "0")
        assert (rc, stdout) == (2, "")
        assert err == "error: P must be a positive integer, got 0\n"


class TestNonFiniteParameters:
    def test_sweep_factor_nan(self, capsys, tmp_path):
        rc, _, err = run(capsys, "sweep", "--figure", "8", "--nmax", "6",
                         "--factor", "nan", "--out", str(tmp_path / "f8.csv"))
        assert rc == 2
        assert "factor" in err
        assert not (tmp_path / "f8.csv").exists()

    @pytest.mark.parametrize("flag", [("--c", "inf"), ("--c", "nan"), ("--eps", "nan"),
                                      ("--mu", "inf"), ("--mu", "-3")])
    def test_bound_non_finite_constant(self, capsys, flag):
        rc, _, err = run(capsys, "bound", "--n", "6", "--policy", "half", *flag)
        assert rc == 2
        assert err

    @pytest.mark.parametrize("mu", ["inf", "nan", "0", "-1"])
    def test_latency_policy_mu(self, capsys, mu):
        rc, _, err = run(capsys, "latency", "--channel", "bec", "--capacity", "0.5",
                         "--pe", "1e-3", "--n", "6", "--policy", "invmu", "--mu", mu)
        assert rc == 2
        assert "mu" in err


# Values for every flag of every subcommand: finite, non-finite and out of
# range, with sizes kept small (n <= 10, trials <= 16).
_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e-3", "0.11", "0.5",
                     "0.9", "1", "1.01", "3.63", "1e300"]),
    st.floats(min_value=-2.0, max_value=4.0).map(repr),
)
_SMALL_N = st.integers(-2, 10).map(str)
_KINDS = st.sampled_from([k.value for k in ChannelKind])


def _leaning(*valid):
    """A flag value that is in range at least three times in four."""
    return st.one_of(*[st.sampled_from(valid)] * 3, _FLOATS)


def _given(name, values):
    return values.map(lambda v: [name, v])


def _maybe(name, values):
    return st.one_of(st.just([]), _given(name, values))


def _concat(*parts):
    return st.tuples(*parts).map(lambda drawn: [x for part in drawn for x in part])


def _group(complete, flags):
    """A flag group drawn whole and consistent, or as any subset of its flags."""
    return st.one_of(complete, _concat(*(_maybe(name, values) for name, values in flags)))


_CHANNEL = _group(
    _concat(_given("--channel", _KINDS),
            st.one_of(_given("--capacity", _leaning("0.1", "0.5", "0.9")),
                      _given("--param", _leaning("0.11", "0.5"))),
            _given("--pe", _leaning("1e-3", "0.1")), _given("--n", _SMALL_N)),
    [("--channel", _KINDS), ("--capacity", _FLOATS), ("--param", _FLOATS),
     ("--pe", _FLOATS), ("--n", _SMALL_N)])
_P = st.one_of(st.integers(1, 8), st.integers(-1, 600)).map(str)
_POLICIES = st.sampled_from(POLICIES)
_POLICY = _group(
    st.one_of(_given("--p", _P),
              _concat(_given("--policy", _POLICIES), _maybe("--mu", _leaning("2", "3.63")))),
    [("--p", _P), ("--policy", _POLICIES), ("--mu", _FLOATS)])


@pytest.fixture
def subcommands(tmp_path):
    # a fixture, so the code files are written once a test, not once an example
    out = str(tmp_path / "out")
    outs = st.sampled_from([out, out, out, str(tmp_path / "missing" / "out")])
    code = tmp_path / "good.code"
    save_code(code_from_frozen(make_channel(ChannelKind.BEC, 0.5), [1] * 6 + [0] * 10, 1e-3),
              code)
    (tmp_path / "bad.code").write_text("polarcode v1\nbec 0.5\n0\n")
    codes = st.sampled_from([str(code), str(tmp_path / "bad.code"), str(tmp_path / "none")])
    # a code file conflicts with the channel flags: with them it exits 2
    source = st.one_of(_CHANNEL, _given("--code", codes),
                       _concat(_CHANNEL, _given("--code", codes)))
    return {
        "construct": _concat(_CHANNEL, _given("--out", outs)),
        "latency": _concat(source, _POLICY),
        "simulate": _concat(source, _given("--trials", st.integers(-1, 16).map(str)),
                            _maybe("--seed", st.integers(-1, 3).map(str))),
        "sweep": _concat(_given("--figure", st.sampled_from(["6", "7", "8"])),
                         _given("--nmax", st.one_of(st.integers(4, 10).map(str), _SMALL_N)),
                         _maybe("--channel", _KINDS), _maybe("--factor", _leaning("1.01", "2")),
                         _given("--out", outs), _maybe("--svg", outs),
                         _maybe("--gnuplot", outs),
                         _maybe("--threads", st.integers(-1, 4).map(str))),
        "bound": _concat(_maybe("--n", _SMALL_N), _maybe("--nmax", _SMALL_N), _POLICY,
                         _maybe("--c", _leaning("1")), _maybe("--eps", _leaning("0.5"))),
    }


@pytest.mark.parametrize("command", ["construct", "latency", "simulate", "sweep", "bound"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_cleanly(capsys, subcommands, command, data):
    # every outcome is an exit code: 0, 2 for usage or validation, 3 for I/O
    argv = [command] + data.draw(subcommands[command])
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    capsys.readouterr()
    assert rc in (0, 2, 3), argv


def test_cli_starts_without_scipy():
    # scipy is slow to import, and no path needs it: not the CLI, and not the
    # BAWGNC capacity, whose quadrature is a port of QUADPACK's
    src = str(pathlib.Path(sscpolar.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, sscpolar.cli as c; c.build_parser(); "
             "from sscpolar import ChannelKind, channel_from_capacity, make_channel; "
             "channel_from_capacity(ChannelKind.BAWGNC, 0.5); "
             "make_channel(ChannelKind.BAWGNC, 0.9); print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
