"""JSON wire format and the command-line interface."""

import hashlib
import io
import json
import math
import shlex
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probnorm import checks, cli, distfn, operators, serialize, triangle
from probnorm.cli import main
from probnorm.distfn import StepDF, StepQuantile, quasi_inverse
from probnorm.operators import LinearOperator
from probnorm.pnspace import Band, PNSpace, SeminormFamily, WeightedNorm
from probnorm.serialize import SchemaError
from probnorm.testkit import gen_operator, gen_space, gen_stepdf

from levy_oracle import bisection_levy_metric


class TestSerialize:
    def test_stepdf_round_trip(self):
        for seed in range(50):
            F = gen_stepdf(seed)
            assert serialize.stepdf_from_json(serialize.stepdf_to_json(F)) == F

    def test_quantile_round_trip_with_inf(self):
        Q = quasi_inverse(StepDF([1.0], [0.0, 0.6]))  # improper: +inf band
        blob = json.dumps(serialize.quantile_to_json(Q))
        assert serialize.quantile_from_json(json.loads(blob)) == Q

    def test_space_round_trip(self):
        for seed in range(20):
            P = gen_space(seed, 3)
            back = serialize.space_from_json(serialize.space_to_json(P))
            assert back.family == P.family

    def test_operator_round_trip(self):
        T = gen_operator(3, gen_space(1, 2), gen_space(2, 3))
        back = serialize.operator_from_json(serialize.operator_to_json(T))
        assert np.array_equal(back.matrix, T.matrix)
        assert back.domain.family == T.domain.family

    def test_schema_errors_are_located(self):
        with pytest.raises(SchemaError) as e:
            serialize.stepdf_from_json({"values": [0, 1]}, "payload")
        assert "payload" in str(e.value)
        with pytest.raises(SchemaError):
            serialize.stepdf_from_json({"breakpoints": [1.0], "values": [0.0, "x"]})
        with pytest.raises(SchemaError):
            serialize.space_from_json({"dimension": 0, "bands": []})
        with pytest.raises(SchemaError):
            serialize.space_from_json(
                {"dimension": 1, "bands": [{"upto": 1.0, "kind": "l7", "weights": [1]}]}
            )
        with pytest.raises(SchemaError):
            serialize.operator_from_json({"matrix": [[1.0], [2.0, 3.0]]})
        with pytest.raises(SchemaError):
            serialize.tnorm_from_json("lukasiewicz")

    @pytest.mark.parametrize("token", [True, False])
    def test_quantile_booleans_are_not_numbers(self, token):
        for obj in (
            {"wbreaks": [0.5, token], "qvalues": [0.0, 1.0]},
            {"wbreaks": [0.5, 1.0], "qvalues": [0.0, token]},
        ):
            with pytest.raises(SchemaError, match="quantile"):
                serialize.quantile_from_json(obj)

    def test_invalid_payloads_fail_as_schema_errors(self):
        with pytest.raises(SchemaError):
            serialize.stepdf_from_json({"breakpoints": [2.0, 1.0], "values": [0, 0.5, 1]})
        with pytest.raises(SchemaError):
            serialize.space_from_json(
                {
                    "dimension": 1,
                    "bands": [
                        {"upto": 0.5, "kind": "l1", "weights": [2.0]},
                        {"upto": 1.0, "kind": "l1", "weights": [1.0]},
                    ],
                }
            )

    def test_constructor_errors_are_located(self):
        # a constructor's ValueError becomes a SchemaError at the payload's own place
        space = {"dimension": 1, "bands": [{"upto": 1.0, "kind": "l1", "weights": [1.0]}]}
        cases = (
            (serialize.stepdf_from_json, {"breakpoints": [1.0], "values": [0.5, 1.0]}, "f"),
            (serialize.quantile_from_json, {"wbreaks": [0.5], "qvalues": [1.0]}, "q"),
            (
                serialize.space_from_json,
                {"dimension": 1, "bands": [{"upto": 1.0, "kind": "l1", "weights": [0.0]}]},
                "s.bands[0]",
            ),
            (
                serialize.space_from_json,
                {"dimension": 1, "bands": [{"upto": 0.5, "kind": "l1", "weights": [1.0]}]},
                "s",
            ),
            (
                serialize.operator_from_json,
                {"matrix": [[1.0, 2.0]], "domain": space, "codomain": space},
                "op",
            ),
        )
        for load, obj, where in cases:
            with pytest.raises(SchemaError) as e:
                load(obj, where.split(".")[0])
            assert e.value.where == where
            assert isinstance(e.value.__cause__, ValueError)
            assert e.value.message == str(e.value.__cause__)


def _via_json_text(obj):
    """The wire path of a payload: JSON text, then the CLI's one JSON reader."""
    return cli._read_json(json.dumps(obj), "payload")


def _sorted_unique(elements, min_size, max_size):
    return st.lists(elements, min_size=min_size, max_size=max_size, unique=True).map(sorted)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# weights down to the least normal float: every reciprocal is finite
_WEIGHT = st.floats(min_value=2.0**-1022, allow_infinity=False)
_INSIDE_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


@st.composite
def _stepdfs(draw):
    bps = draw(_sorted_unique(st.floats(min_value=0.0, allow_infinity=False), 1, 6))
    vals = draw(st.lists(st.floats(0.0, 1.0), min_size=len(bps), max_size=len(bps)))
    return StepDF(bps, [0.0, *sorted(vals)])


@st.composite
def _improper_quantiles(draw):
    inner = draw(_sorted_unique(_INSIDE_UNIT, 0, 5))
    finite = draw(
        st.lists(
            st.floats(min_value=0.0, allow_infinity=False),
            min_size=len(inner),
            max_size=len(inner),
        )
    )
    return StepQuantile([*inner, 1.0], [*sorted(finite), math.inf])


@st.composite
def _spaces(draw):
    n = draw(st.integers(1, 4))
    uptos = [*draw(_sorted_unique(_INSIDE_UNIT, 0, 4)), 1.0]
    kind = draw(st.sampled_from(["l1", "linf"]))
    rows = st.lists(_WEIGHT, min_size=n, max_size=n)
    weights = draw(st.lists(rows, min_size=len(uptos), max_size=len(uptos)))
    bands = tuple(
        Band(u, WeightedNorm(kind, w))
        for u, w in zip(uptos, np.maximum.accumulate(np.array(weights), axis=0))
    )
    return PNSpace(SeminormFamily(n, bands))


@st.composite
def _operators(draw):
    domain, codomain = draw(_spaces()), draw(_spaces())
    shape = (codomain.dimension, domain.dimension)
    row = st.lists(_FINITE, min_size=shape[1], max_size=shape[1])
    rows = draw(st.lists(row, min_size=shape[0], max_size=shape[0]))
    return LinearOperator(np.array(rows), domain, codomain)


class TestJsonRoundTrip:
    """Each wire type survives JSON text and the CLI's reader unchanged."""

    @settings(max_examples=60, deadline=None)
    @given(F=_stepdfs())
    def test_stepdf(self, F):
        back = serialize.stepdf_from_json(_via_json_text(serialize.stepdf_to_json(F)))
        assert back == F and repr(back) == repr(F)

    @settings(max_examples=60, deadline=None)
    @given(Q=_improper_quantiles())
    def test_quantile_with_inf_tail(self, Q):
        back = serialize.quantile_from_json(_via_json_text(serialize.quantile_to_json(Q)))
        assert back == Q and repr(back) == repr(Q)
        assert back.qvalues[-1] == math.inf

    @settings(max_examples=60, deadline=None)
    @given(P=_spaces())
    def test_space(self, P):
        back = serialize.space_from_json(_via_json_text(serialize.space_to_json(P)))
        assert back == P and repr(back) == repr(P)

    @settings(max_examples=40, deadline=None)
    @given(T=_operators())
    def test_operator(self, T):
        back = serialize.operator_from_json(_via_json_text(serialize.operator_to_json(T)))
        assert back.matrix.shape == T.matrix.shape
        assert back.matrix.tobytes() == T.matrix.tobytes()
        assert back.domain == T.domain and back.codomain == T.codomain


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        return str(p)

    return write


H1 = {"breakpoints": [1.0], "values": [0.0, 1.0]}
H2 = {"breakpoints": [2.0], "values": [0.0, 1.0]}
SPACE = {
    "dimension": 2,
    "bands": [
        {"upto": 0.5, "kind": "l1", "weights": [1.0, 2.0]},
        {"upto": 1.0, "kind": "l1", "weights": [2.0, 4.0]},
    ],
}
OP = {
    "matrix": [[2.0, 0.0], [0.0, 3.0]],
    "domain": {"dimension": 2, "bands": [{"upto": 1.0, "kind": "l1", "weights": [1.0, 1.0]}]},
    "codomain": {"dimension": 2, "bands": [{"upto": 1.0, "kind": "l1", "weights": [1.0, 1.0]}]},
}


def with_token(obj, token: str) -> str:
    """JSON text of obj with each "TOKEN" string replaced by a raw token."""
    return json.dumps(obj).replace('"TOKEN"', token)


class TestCLI:
    def run(self, capsys, *argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_df_eval(self, capsys, files):
        f = files("f.json", H2)
        code, out = self.run(capsys, "df-eval", "--f", f, "--x", "3.0")
        assert code == 0
        assert json.loads(out) == {"value": 1.0}
        code, out = self.run(capsys, "df-eval", "--f", f, "--x=-inf")
        assert json.loads(out) == {"value": 0.0}

    def test_df_conv(self, capsys, files):
        code, out = self.run(
            capsys, "df-conv", "--tnorm", "min", "--f", files("f.json", H1),
            "--g", files("g.json", H2),
        )
        assert code == 0
        assert json.loads(out) == {"breakpoints": [3.0], "values": [0.0, 1.0]}

    def test_df_conv_inf_kind(self, capsys, files):
        code, out = self.run(
            capsys, "df-conv", "--tnorm", "W", "--kind", "inf",
            "--f", files("f.json", H1), "--g", files("g.json", H2),
        )
        assert code == 0
        assert json.loads(out) == {"breakpoints": [3.0], "values": [0.0, 1.0]}

    def test_df_levy(self, capsys, files):
        code, out = self.run(
            capsys, "df-levy",
            "--f", files("f.json", {"breakpoints": [0.0], "values": [0.0, 1.0]}),
            "--g", files("g.json", {"breakpoints": [0.3], "values": [0.0, 1.0]}),
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == pytest.approx(0.3, abs=1e-9)
        assert blob["tolerance"] <= 1e-9

    def test_df_levy_prints_the_bisection(self, capsys, files):
        # 1-5 breakpoints a side take the levy_condition loop, 64 + 64 the
        # numpy pass; either way the line is the bisection's, bit for bit
        pairs = [(gen_stepdf(s), gen_stepdf(s + 300, proper=s % 4 != 0)) for s in range(12)]
        rng = np.random.default_rng(26)
        lattice = [np.sort(rng.choice(np.arange(1, 2049), 64, replace=False)) / 16.0 for _ in range(2)]
        values = [np.sort(rng.uniform(0.0, 1.0, 64)) for _ in range(2)]
        values[0][-1] = 1.0
        pairs.append(tuple(StepDF(b, [0.0, *v]) for b, v in zip(lattice, values)))
        sizes = [len(F.breakpoints) + len(G.breakpoints) for F, G in pairs]
        assert max(sizes[:-1]) < distfn._LEVY_JOINT_MIN <= sizes[-1]
        for F, G in pairs:
            d = bisection_levy_metric(F, G)
            code, out = self.run(
                capsys, "df-levy",
                "--f", files("f.json", serialize.stepdf_to_json(F)),
                "--g", files("g.json", serialize.stepdf_to_json(G)),
            )
            assert code == 0
            assert out == json.dumps({"value": d.value, "tolerance": d.tolerance}, separators=(",", ":")) + "\n"

    def test_df_qinv(self, capsys, files):
        f = files("f.json", {"breakpoints": [1.0, 2.0], "values": [0.0, 0.5, 1.0]})
        code, out = self.run(capsys, "df-qinv", "--f", f)
        assert code == 0
        assert json.loads(out) == {"wbreaks": [0.5, 1.0], "qvalues": [1.0, 2.0]}

    def test_space_nu(self, capsys, files):
        code, out = self.run(
            capsys, "space-nu", "--space", files("s.json", SPACE), "--x", "[1.0, 1.0]"
        )
        assert code == 0
        assert json.loads(out) == {"breakpoints": [3.0, 6.0], "values": [0.0, 0.5, 1.0]}

    def test_space_norm(self, capsys, files):
        code, out = self.run(
            capsys, "space-norm", "--space", files("s.json", SPACE),
            "--x", "[1.0, 1.0]", "--w", "0.5",
        )
        assert code == 0
        assert json.loads(out) == {"value": 3.0}

    @pytest.mark.parametrize("command", ["space-nu", "space-norm"])
    def test_overflowing_band_norm_is_an_error_object(self, capsys, files, command):
        huge = {"dimension": 2, "bands": [{"upto": 1.0, "kind": "l1", "weights": [1e308, 1e308]}]}
        argv = [command, "--space", files("s.json", huge), "--x", "[1.0, 1.0]"]
        code, out = self.run(capsys, *argv, *(["--w", "0.5"] if command == "space-norm" else []))
        assert code == 1
        assert "overflows" in json.loads(out)["error"]["message"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            "df-conv --tnorm min --f H --g H",
            "df-conv --tnorm W --kind inf --f H --g H",
            "space-nu --space HUGE --x [1.0,1.0]",
            "space-norm --space HUGE --x [1.0,1.0] --w 0.5",
            "op-norm --op OP --w 0.5 --wp 0.5",
            "op-profile --op OP",
            "op-profile --op OP --csv",
            "op-delta --op MIRROR --w 0.5",
        ],
    )
    def test_overflow_is_one_error_object_and_no_stderr(self, capsys, files, argv):
        # breakpoint sums past the float range, band norms of 1e308 weights,
        # and an exact operator norm of 1.5 * 1.5e308 (for op-delta, that of
        # T^{-1}), with numpy's warnings turned into errors
        def space(w):
            return {"dimension": 2, "bands": [{"upto": 1.0, "kind": "l1", "weights": [w, w]}]}

        matrix = [[1.0, 0.5], [0.0, 1.0]]
        paths = {
            "H": files("h.json", {"breakpoints": [1e308], "values": [0.0, 1.0]}),
            "HUGE": files("huge.json", space(1e308)),
            "OP": files("op.json", {"matrix": matrix, "domain": space(1.0), "codomain": space(1.5e308)}),
            "MIRROR": files("mirror.json", {"matrix": matrix, "domain": space(1.5e308), "codomain": space(1.0)}),
        }
        code = main([paths.get(a, a) for a in argv.split()])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert len(out.splitlines()) == 1
        blob = json.loads(out)
        assert list(blob) == ["error"] and "overflows the float range" in blob["error"]["message"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_op_delta_radius_overflow_is_an_error_object(self, capsys, files):
        # ||T^{-1}|| below 1 / float max: the radius 1 / ||T^{-1}|| is past the float range
        def space(w):
            return {"dimension": 2, "bands": [{"upto": 1.0, "kind": "l1", "weights": [w, w]}]}

        op = {"matrix": [[2.0, 0.0], [0.0, 2.0]], "domain": space(1.0), "codomain": space(1.7e308)}
        code = main(["op-delta", "--op", files("op.json", op), "--w", "0.5"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        message = "open mapping radius overflows the float range"
        assert json.loads(out) == {"error": {"message": message}}

    def test_linf_vertex_cap_is_an_error_object(self, capsys, files):
        # an L-infinity domain past n = 20 is refused before any vertex is built
        space = {"dimension": 21, "bands": [{"upto": 1.0, "kind": "linf", "weights": [1.0] * 21}]}
        op = {"matrix": np.eye(21).tolist(), "domain": space, "codomain": space}
        code = main(["op-norm", "--op", files("op.json", op), "--w", "0.5", "--wp", "0.5"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out == (
            '{"error":{"message":"Linf vertex enumeration rejected for n = 21 > 20; '
            'use the Monte-Carlo bound instead"}}\n'
        )

    def test_mixed_kind_domain_is_an_error_object(self, capsys, files):
        # an L1 band then an Linf band: the dominance check names band 1
        # before the family is refused for mixing structures
        domain = {
            "dimension": 2,
            "bands": [
                {"upto": 0.5, "kind": "l1", "weights": [1.0, 1.0]},
                {"upto": 1.0, "kind": "linf", "weights": [2.0, 2.0]},
            ],
        }
        op = files("op.json", {**OP, "domain": domain})
        code = main(["op-norm", "--op", op, "--w", "0.5", "--wp", "0.5"])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out == '{"error":{"where":"--op.domain","message":"band 1 does not dominate band 0"}}\n'

    def test_op_norm(self, capsys, files):
        code, out = self.run(
            capsys, "op-norm", "--op", files("op.json", OP), "--w", "0.5", "--wp", "0.5"
        )
        assert code == 0
        assert json.loads(out) == {"value": 3.0}

    def test_op_profile(self, capsys, files):
        code, out = self.run(capsys, "op-profile", "--op", files("op.json", OP))
        assert code == 0
        blob = json.loads(out)
        assert blob["table"] == [[3.0]]
        code, out = self.run(capsys, "op-profile", "--op", files("op.json", OP), "--csv")
        assert code == 0
        assert out.splitlines()[1].endswith("3.0")

    def test_op_delta(self, capsys, files):
        code, out = self.run(
            capsys, "op-delta", "--op", files("op.json", OP), "--w", "0.5"
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["delta"] == pytest.approx(2.0, rel=1e-12)

    def test_df_eval_prints_no_negative_zero(self, capsys, files):
        # construction turns -0.0 into 0.0, so d.f.s equal under == print alike
        f = files("f.json", '{"breakpoints": [1.0], "values": [-0.0, 1.0]}')
        code, out = self.run(capsys, "df-eval", "--f", f, "--x", "0.5")
        assert code == 0
        assert out.strip() == '{"value":0.0}'
        F = StepDF([-0.0, 1.0], [-0.0, 0.5, 1.0])
        Q = StepQuantile([0.5, 1.0], [-0.0, 2.0])
        assert not np.signbit(F.breakpoints + F.values + Q.wbreaks + Q.qvalues).any()

    def test_stdin_input(self, capsys, files, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(H2)))
        code, out = self.run(capsys, "df-eval", "--f", "-", "--x", "3.0")
        assert code == 0
        assert json.loads(out) == {"value": 1.0}

    def test_malformed_json_exit_1(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        code, out = self.run(capsys, "df-eval", "--f", str(p), "--x", "0")
        assert code == 1
        err = json.loads(out)["error"]
        assert "line" in err["message"]

    def test_invalid_payload_exit_1(self, capsys, files):
        f = files("bad.json", {"breakpoints": [2.0, 1.0], "values": [0.0, 0.5, 1.0]})
        code, out = self.run(capsys, "df-eval", "--f", f, "--x", "0")
        assert code == 1
        assert "error" in json.loads(out)

    def test_missing_file_exit_1(self, capsys):
        code, out = self.run(capsys, "df-eval", "--f", "/nonexistent.json", "--x", "0")
        assert code == 1
        assert "error" in json.loads(out)

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["df-eval"])  # missing required --f/--x
        assert e.value.code == 2
        with pytest.raises(SystemExit) as e:
            main(["no-such-command"])
        assert e.value.code == 2

    @pytest.mark.parametrize(
        "cmd, arg",
        [(cmd, arg) for cmd in cli.COMMANDS for arg in cmd.args],
        ids=lambda v: v.name if isinstance(v, cli.Command) else v.flag,
    )
    def test_flag_written_equals_dashes_is_a_usage_error(self, capsys, monkeypatch, cmd, arg):
        # argparse reads --flag=-- as an empty list, past type and choices;
        # it is a usage error naming the flag, before any loader runs
        def refused(*args, **kwargs):
            raise AssertionError("a loader or the call ran")

        refusing = tuple(
            c._replace(args=tuple(a._replace(load=refused) for a in c.args), call=refused)
            for c in cli.COMMANDS
        )
        monkeypatch.setattr(cli, "COMMANDS", refusing)
        monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
        others = [a for a in cmd.args if a is not arg and a.options["required"]]
        argv = [f"{a.flag}={a.options.get('choices', [1])[0]}" for a in others]
        with pytest.raises(SystemExit) as e:
            main([cmd.name, *argv, f"{arg.flag}=--"])
        assert e.value.code == 2
        assert f"argument {arg.flag}: " in capsys.readouterr().err

    def test_check_runs_and_is_deterministic(self, capsys):
        code, out1 = self.run(capsys, "check", "--suite", "distfn", "--seed", "7", "--cases", "3")
        assert code == 0
        code, out2 = self.run(capsys, "check", "--suite", "distfn", "--seed", "7", "--cases", "3")
        assert code == 0
        assert out1 == out2
        assert "0 failed" in out1

    def test_check_seed_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("PROBNORM_SEED", "9")
        code, out1 = self.run(capsys, "check", "--suite", "triangle", "--cases", "2")
        assert code == 0
        code, out2 = self.run(capsys, "check", "--suite", "triangle", "--seed", "9", "--cases", "2")
        assert out1 == out2
        # the parser is built once per process; the variable is read per call
        seeds = []
        run_suites = checks.run_suites

        def recording(suite, seed, cases):
            seeds.append(seed)
            return run_suites(suite, seed, cases)

        monkeypatch.setattr(checks, "run_suites", recording)
        for env in ("11", "12"):
            monkeypatch.setenv("PROBNORM_SEED", env)
            self.run(capsys, "check", "--suite", "operator", "--cases", "1")
        monkeypatch.delenv("PROBNORM_SEED")
        self.run(capsys, "check", "--suite", "operator", "--cases", "1")
        self.run(capsys, "check", "--suite", "operator", "--seed", "5", "--cases", "1")
        assert seeds == [11, 12, 0, 5]

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_check_needs_a_case(self, capsys, cases):
        code, out = self.run(capsys, "check", "--suite", "distfn", "--cases", cases)
        assert code == 1
        assert json.loads(out) == {"error": {"message": f"cases must be >= 1, got {cases}"}}
        with pytest.raises(ValueError):
            checks.run_suites("all", 0, int(cases))

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    @pytest.mark.parametrize("flag", ["--f", "--f -", "--space", "--op", "--x"])
    def test_non_finite_json_rejected(self, capsys, files, monkeypatch, flag, token):
        if flag.startswith("--f"):
            text = with_token({"breakpoints": [1.0, "TOKEN"], "values": [0.0, 0.5, 1.0]}, token)
            if flag == "--f -":
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                argv = ["df-qinv", "--f", "-"]
            else:
                argv = ["df-qinv", "--f", files("f.json", text)]
        elif flag == "--space":
            bad = {**SPACE, "bands": [{"upto": 1.0, "kind": "l1", "weights": [1.0, "TOKEN"]}]}
            space = files("s.json", with_token(bad, token))
            argv = ["space-nu", "--space", space, "--x", "[1.0, 1.0]"]
        elif flag == "--op":
            bad = {**OP, "matrix": [[2.0, 0.0], [0.0, "TOKEN"]]}
            argv = ["op-profile", "--op", files("op.json", with_token(bad, token))]
        else:
            space = files("s.json", SPACE)
            argv = ["space-norm", "--space", space, "--x", f"[1.0, {token}]", "--w", "0.5"]
        code, out = self.run(capsys, *argv)
        assert code == 1
        error = {"where": flag.split()[0], "message": f"{token} is not a finite number"}
        assert json.loads(out) == {"error": error}

    def test_subnormal_weight_exit_1(self, capsys, files):
        # 1 / 5e-324 overflows: the unit-ball vertices would hold inf and the
        # exact norm would come out nan
        domain = {"dimension": 2, "bands": [{"upto": 1.0, "kind": "l1", "weights": [5e-324, 1.0]}]}
        op = files("op.json", {**OP, "domain": domain})
        code, out = self.run(capsys, "op-norm", "--op", op, "--w", "0.5", "--wp", "0.5")
        assert code == 1
        error = json.loads(out)["error"]
        assert error["where"] == "--op.domain.bands[0]"
        assert "finite reciprocals" in error["message"]

    @pytest.mark.parametrize("token", ["true", "false"])
    @pytest.mark.parametrize(
        "field",
        ["breakpoints", "values", "dimension", "upto", "weights", "matrix", "--x"],
    )
    def test_booleans_are_not_numbers(self, capsys, files, field, token):
        band = {"upto": 1.0, "kind": "l1", "weights": [1.0, 1.0]}
        if field in ("breakpoints", "values"):
            bad = {**H2, field: ["TOKEN"] if field == "breakpoints" else [0.0, "TOKEN"]}
            argv = ["df-qinv", "--f", files("f.json", with_token(bad, token))]
        elif field == "dimension":
            bad = {"dimension": "TOKEN", "bands": [{**band, "weights": [1.0]}]}
            argv = ["space-nu", "--space", files("b.json", with_token(bad, token)), "--x", "[1.0]"]
        elif field in ("upto", "weights"):
            band[field] = "TOKEN" if field == "upto" else [1.0, "TOKEN"]
            bad = {"dimension": 2, "bands": [band]}
            space = files("b.json", with_token(bad, token))
            argv = ["space-nu", "--space", space, "--x", "[1.0, 1.0]"]
        elif field == "matrix":
            bad = {**OP, "matrix": [[2.0, 0.0], [0.0, "TOKEN"]]}
            argv = ["op-profile", "--op", files("op.json", with_token(bad, token))]
        else:
            space = files("s.json", SPACE)
            argv = ["space-norm", "--space", space, "--x", f"[1.0, {token}]", "--w", "0.5"]
        code, out = self.run(capsys, *argv)
        assert code == 1
        assert set(json.loads(out)) == {"error"}

    def test_check_report_is_pinned(self, capsys):
        # pinned across versions: a change to any suite's instances,
        # properties or formatting changes this digest
        code, out = self.run(capsys, "check", "--suite", "all", "--seed", "42")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "e4b546cabc93053fb0e5ac3867875b399e1de61f4cb1ac8728a44446df0929af"

    def suite_digest(self, capsys, suite):
        # every seed and case count a suite runs with in the cli benchmark
        # workload, plus the default count
        digest = hashlib.sha256()
        for seed in range(6):
            for cases in (1, 2, 25):
                code, out = self.run(
                    capsys, "check", "--suite", suite, "--seed", str(seed), "--cases", str(cases)
                )
                assert code == 0
                digest.update(out.encode())
        return digest.hexdigest()

    def test_operator_check_reports_are_pinned(self, capsys):
        digest = self.suite_digest(capsys, "operator")
        assert digest == "27b4315838c7400f478b6ccabb38fe15eb86740ceb78689e2284d133d146fda3"

    def test_pnspace_check_reports_are_pinned(self, capsys):
        digest = self.suite_digest(capsys, "pnspace")
        assert digest == "751631aee9a0c2f0cfd056375a822648a2862d4f64b7af5ebc16cfc9aec66020"

    def test_triangle_check_reports_are_pinned(self, capsys):
        digest = self.suite_digest(capsys, "triangle")
        assert digest == "a184e430aac73681af0fdb7b2d275ad04461f56577957d52e898548c0244fbed"

    def test_distfn_check_reports_are_pinned(self, capsys):
        digest = self.suite_digest(capsys, "distfn")
        assert digest == "b73fa65c86a047927f59cc13d02d44ecd6e4ef7c4b503e34aeb6a84e732ac01b"

    def test_check_computes_each_library_result_once(self, monkeypatch):
        # at 25 cases: triangle convolves 75 unit steps, 75 unit laws, tau_T(F, G)
        # per pair and T (75) and tau_T(G, F) for commutativity (75);
        # tau_{T*}(F, G) is MIN's per pair (25) and W's and PROD's on the 5
        # oracle pairs (10).  distfn's 25 hat-additivity pairs and triangle's
        # 25 sup-below-inf pairs take tau_M and tau_{M*} from the pair sort,
        # not off qf_add as tau_sup_conv does.  distfn takes d(F, F), d(F, G)
        # and d(G, F) per pair; the operator suite's exact norms are
        # bound_check's 25 and uniform_bound's 12, mc-below-exact reading the
        # profile tables
        counts = dict.fromkeys(
            ("tau_sup_conv", "tau_inf_conv", "_min_pair_sort", "levy_metric", "operator_norm_exact"), 0
        )

        def counting(name, fn):
            def counted(*args):
                counts[name] += 1
                return fn(*args)

            return counted

        for module, name in (
            (triangle, "tau_sup_conv"),
            (checks, "tau_sup_conv"),
            (triangle, "tau_inf_conv"),
            (checks, "tau_inf_conv"),
            (checks, "_min_pair_sort"),
            (distfn, "levy_metric"),
            (checks, "levy_metric"),
            (operators, "operator_norm_exact"),
        ):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        rows = checks.run_suites("all", 42, 25)
        assert all(r.passed for r in rows)
        assert counts["tau_sup_conv"] == 300
        assert counts["tau_inf_conv"] <= 185
        assert counts["_min_pair_sort"] == 50
        assert counts["levy_metric"] == 75
        assert counts["operator_norm_exact"] == 37
        # one hat per d.f.: distfn inverts F and G (25 each), tau_M(F, G) (25),
        # F scaled three ways (75) and the improper d.f.s (25); triangle
        # inverts tau_T(F, G) per T and tau_{M*}(F, G) once per pair (100);
        # the oracle points are drawn once per oracle pair (5)
        counts.update(quasi_inverse=0, _off_breakpoint_xs=0)
        monkeypatch.setattr(checks, "quasi_inverse", counting("quasi_inverse", checks.quasi_inverse))
        monkeypatch.setattr(
            checks, "_off_breakpoint_xs", counting("_off_breakpoint_xs", checks._off_breakpoint_xs)
        )
        for suite, hats in (("distfn", 175), ("triangle", 100)):
            counts["quasi_inverse"] = 0
            assert all(r.passed for r in checks.run_suites(suite, 42, 25))
            assert counts["quasi_inverse"] == hats, suite
        assert counts["_off_breakpoint_xs"] == 5

    @pytest.mark.parametrize("flag", ["--f", "--x"])
    def test_deep_json_is_an_error_object(self, capsys, files, flag):
        deep = "[" * 100000
        if flag == "--f":
            argv = ["df-eval", "--f", files("deep.json", deep), "--x", "1"]
        else:
            argv = ["space-nu", "--space", files("s.json", SPACE), "--x", deep]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == {"error": {"where": flag, "message": "JSON nested too deeply"}}
        assert err == ""

    def test_non_utf8_file_is_an_error_object(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(b"\xff" + json.dumps(H1).encode())
        assert main(["df-eval", "--f", str(path), "--x", "1"]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out)["error"]["where"] == "--f"
        assert err == ""

    def test_df_eval_abscissa_may_be_infinite(self, capsys, files):
        code, out = self.run(capsys, "df-eval", "--f", files("f.json", H2), "--x", "inf")
        assert code == 0
        assert json.loads(out) == {"value": 1.0}


def test_readme_cli_block_names_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("probnorm ")]
    named = [cli._parser().parse_args(shlex.split(line)[1:]).command for line in lines]
    assert set(named) == {cmd.name for cmd in cli.COMMANDS}


# One valid call per table row; a dict value is a payload that the fuzz
# property mutates before it reaches the option (as a file, or as text for --x).
G2 = {"breakpoints": [0.5, 2.0, 3.0], "values": [0.0, 0.25, 0.75, 1.0]}
VEC = [1.0, -2.0]
FUZZ_CALLS = {
    "df-eval": ["--f", H2, "--x", "2.5"],
    "df-conv": ["--tnorm", "prod", "--kind", "inf", "--f", G2, "--g", H1],
    "df-levy": ["--f", G2, "--g", H2],
    "df-qinv": ["--f", G2],
    "space-nu": ["--space", SPACE, "--x", VEC],
    "space-norm": ["--space", SPACE, "--x", VEC, "--w", "0.5"],
    "op-norm": ["--op", OP, "--w", "0.5", "--wp", "0.5"],
    "op-profile": ["--op", OP],
    "op-delta": ["--op", OP, "--w", "0.5"],
}


def test_fuzz_covers_every_command():
    # check takes no payload; test_cli_fuzz_check_cases fuzzes its integers
    assert set(FUZZ_CALLS) | {"check"} == {cmd.name for cmd in cli.COMMANDS}


def _nodes(obj, path=()):
    """Every (path, value) inside a JSON value, the root included."""
    yield path, obj
    if isinstance(obj, list):
        obj = dict(enumerate(obj))
    for key, value in obj.items() if isinstance(obj, dict) else ():
        yield from _nodes(value, path + (key,))


def _replace(obj, path, make):
    if not path:
        return make(obj)
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {k: (_replace(v, rest, make) if k == head else v) for k, v in obj.items()}
    return [(_replace(v, rest, make) if i == head else v) for i, v in enumerate(obj)]


_DROP = object()
_JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=3),
    st.just([]), st.just({}), st.just([[1.0]]), st.just({"x": 1}),
)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@st.composite
def _mutated(draw, payload):
    """(kind, JSON text) of payload after one mutation: a dropped key or element,
    a value of the wrong type, a number turned into a boolean, a NaN / Infinity
    token, or truncated text."""
    kind = draw(st.sampled_from(["drop", "retype", "boolean", "nonfinite", "truncate"]))
    if kind == "truncate":
        text = json.dumps(payload)
        return kind, text[: draw(st.integers(0, len(text) - 1))]
    nodes = _nodes(payload)
    if kind == "boolean":
        path = draw(st.sampled_from([p for p, v in nodes if _is_number(v)]))
        value = draw(st.booleans())
        return kind, json.dumps(_replace(payload, path, lambda old: value))
    paths = [p for p, _ in nodes if p or kind != "drop"]
    path = draw(st.sampled_from(paths))
    if kind == "drop":
        parent, key = path[:-1], path[-1]

        def make(container):
            if isinstance(container, dict):
                return {k: v for k, v in container.items() if k != key}
            return [v for i, v in enumerate(container) if i != key]

        return kind, json.dumps(_replace(payload, parent, make))
    value = draw(_JUNK if kind == "retype" else st.sampled_from([math.nan, math.inf, -math.inf]))
    return kind, json.dumps(_replace(payload, path, lambda old: value))


def _strict_json(text):
    def reject(token):
        raise AssertionError(f"non-JSON token {token} on stdout")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("command", sorted(FUZZ_CALLS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exit_0_json_or_exit_1_error(command, data):
    template = FUZZ_CALLS[command]
    slots = [i for i, v in enumerate(template) if not isinstance(v, str)]
    target = data.draw(st.sampled_from(slots))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for i, value in enumerate(template):
            if isinstance(value, str):
                argv.append(value)
                continue
            text = json.dumps(value)
            if i == target:
                kind, text = data.draw(_mutated(value))
            if argv[-1] == "--x":  # joined, so text starting with "-" is not an option
                argv[-1] = f"--x={text}"
            else:
                path = Path(tmp) / f"arg{i}.json"
                path.write_text(text)
                argv.append(str(path))
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(argv)
    if code == 0:
        assert kind != "boolean", argv  # every number in a payload is a numeric field
        _strict_json(out.getvalue())
    else:
        assert code == 1
        blob = _strict_json(out.getvalue())
        assert set(blob) == {"error"} and isinstance(blob["error"]["message"], str)


@settings(max_examples=10, deadline=None)
@given(cases=st.integers(-2, 1), seed=st.integers(0, 2**31))
def test_cli_fuzz_check_cases(cases, seed):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["check", "--suite", "pnspace", "--seed", str(seed), "--cases", str(cases)])
    if cases >= 1:
        assert code == 0 and out.getvalue().endswith("\n0 failed / 5 properties\n")
    else:
        assert code == 1 and "error" in _strict_json(out.getvalue())
