"""CLI: pipelines, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from kmln.cli import cli
from kmln.core import ParamSet, assemble
from kmln.documents import format_document, parse_document
from kmln.families import FAMILIES

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "k3.json"
SRC = Path(__file__).resolve().parent.parent / "src"

# classification of tests/data/k3.json, frozen byte for byte
K3_CLASSIFY = """\
rank: 2
real: no
family K-3 residual=0.000e+00 D=(2+0j)
family K-5 residual=0.000e+00 A=0j D=(2+0j)
family L-1 residual=0.000e+00 A=(0.5+0j)
family KM-2 residual=0.000e+00 D=(-2+0j)
family KM-3 residual=0.000e+00 B=(0.5+0j)
family KM-5 residual=0.000e+00 A=0j C=(2+0j)
family LN-1 residual=0.000e+00 A=(0.5+0j)
family KN-1 residual=0.000e+00 A=(2+0j)
family ML-1 residual=0.000e+00 A=(0.5+0j)
family KML-1 residual=0.000e+00
family NLK-1 residual=0.000e+00 A=(2+0j)
family NLM-1 residual=0.000e+00 A=(0.5+0j)
variants: none
"""


@pytest.fixture()
def runner():
    return CliRunner()


def run_strict(*args):
    """``python -W error -m kmln ARGS`` in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "kmln", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


class TestGen:
    def test_deterministic_bytes(self, runner):
        a = runner.invoke(cli, ["gen", "K-5", "--seed", "7"])
        b = runner.invoke(cli, ["gen", "K-5", "--seed", "7"])
        c = runner.invoke(cli, ["gen", "K-5", "--seed", "8"])
        assert a.exit_code == 0
        assert a.output == b.output
        assert a.output != c.output

    def test_document_shape(self, runner):
        res = runner.invoke(cli, ["gen", "K-7", "--seed", "3"])
        doc = json.loads(res.output)
        assert set(doc) == {"params", "meta"}
        assert doc["meta"]["tag"] == "K-7"
        assert set(doc["meta"]["constants"]) == {"A", "alpha"}

    def test_constant_override(self, runner):
        res = runner.invoke(cli, ["gen", "K-3", "--seed", "1",
                                  "-c", "D=2+1j"])
        doc = json.loads(res.output)
        assert doc["meta"]["constants"]["D"] == [2.0, 1.0]

    def test_variant(self, runner):
        res = runner.invoke(cli, ["gen", "02", "--seed", "5"])
        assert res.exit_code == 0
        assert json.loads(res.output)["meta"]["tag"] == "02"

    def test_real_members_classify_as_real(self, runner):
        gen = runner.invoke(cli, ["gen", "KM-3", "--seed", "4", "--real"])
        assert gen.exit_code == 0
        res = runner.invoke(cli, ["classify", "-"], input=gen.output)
        assert "real: yes" in res.output
        assert "family KM-3" in res.output

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "doc.json"
        res = runner.invoke(cli, ["gen", "K-1", "--seed", "2",
                                  "--output", str(target)])
        assert res.exit_code == 0
        assert res.output == ""
        json.loads(target.read_text())


class TestGoldenPipeline:
    def test_classify_fixture(self, runner):
        res = runner.invoke(cli, ["classify", str(FIXTURE)])
        assert res.exit_code == 0
        assert res.output == K3_CLASSIFY

    def test_rank_fixture(self, runner):
        res = runner.invoke(cli, ["rank", str(FIXTURE)])
        assert res.exit_code == 0
        assert res.output == "rank: 2\n"

    def test_compose_closes_and_is_deterministic(self, runner):
        first = runner.invoke(cli, ["compose", str(FIXTURE), str(FIXTURE)])
        second = runner.invoke(cli, ["compose", str(FIXTURE), str(FIXTURE)])
        assert first.exit_code == 0
        assert first.output == second.output
        doc = json.loads(first.output)
        assert set(doc) == {"params", "matrix"}
        res = runner.invoke(cli, ["classify", "-"], input=first.output)
        assert "family K-3 residual=0.000e+00 D=(2+0j)" in res.output

    def test_stdin_pipeline(self, runner):
        gen = runner.invoke(cli, ["gen", "13", "--seed", "9"])
        res = runner.invoke(cli, ["classify"], input=gen.output)
        assert res.exit_code == 0
        assert "variants: 13" in res.output
        assert "rank: 3" in res.output


class TestExitCodes:
    def test_unknown_tag_lists_names(self, runner):
        res = runner.invoke(cli, ["gen", "K-99"])
        assert res.exit_code == 2
        assert "K-1" in res.output and "NLM-1" in res.output

    def test_zero_inverted_constant(self, runner):
        res = runner.invoke(cli, ["gen", "K-7", "-c", "A=0"])
        assert res.exit_code == 3
        assert "A" in res.output

    def test_bad_constant_syntax(self, runner):
        assert runner.invoke(cli, ["gen", "K-3", "-c", "D"]).exit_code == 2
        assert runner.invoke(cli, ["gen", "K-3", "-c", "D=zz"]).exit_code == 2

    def test_variant_takes_no_constants(self, runner):
        res = runner.invoke(cli, ["gen", "00", "-c", "A=1"])
        assert res.exit_code == 2

    def test_malformed_document_is_located(self, runner):
        res = runner.invoke(cli, ["classify", "-"], input='{"params": {"k": 3}}')
        assert res.exit_code == 2
        assert "params.k" in res.output
        res = runner.invoke(cli, ["classify", "-"], input="{broken")
        assert res.exit_code == 2
        assert "line 1" in res.output

    def test_missing_file(self, runner):
        res = runner.invoke(cli, ["classify", "no-such-file.json"])
        assert res.exit_code == 2

    def test_compose_overflow_is_one_error_line(self, runner, tmp_path):
        big = [[1e200, 0.0]] * 4
        doc = tmp_path / "big.json"
        doc.write_text(json.dumps({"params": dict.fromkeys("kmln", big)}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(cli, ["compose", str(doc), str(doc)])
        assert res.exit_code == 2
        assert res.stdout == ""
        lines = res.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: compose")
        assert "overflow" in lines[0]

    @pytest.mark.parametrize("command, matrix_too, scale, message", [
        ("classify", False, 1e308,
         "error: assemble: the matrix overflows the floating-point range"),
        ("compose", True, 1e200,
         "error: compose: the product overflows the floating-point range"),
    ], ids=["classify-params", "compose-params-and-matrix"])
    def test_overflow_is_one_error_line_under_warnings_as_errors(
            self, tmp_path, command, matrix_too, scale, message):
        big = ParamSet(*[[scale, 0, 0, scale]] * 4)
        doc = tmp_path / "big.json"
        if matrix_too:
            text = format_document(params=big, matrix=assemble(big))
        else:
            text = format_document(params=big)
        doc.write_text(text)
        args = [str(doc)] * (2 if command == "compose" else 1)
        res = run_strict(command, *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.splitlines() == [message]

    def test_rank_near_the_float_limit(self, runner, tmp_path):
        doc = tmp_path / "big.json"
        doc.write_text(format_document(matrix=np.full((4, 4), 1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = runner.invoke(cli, ["rank", str(doc)])
        assert res.exit_code == 0
        assert res.output == "rank: 1\n"

    def test_rank_of_a_member_near_the_float_limit(self, runner, tmp_path):
        # the meta.tag check runs membership on parameters near 1e200
        gen = runner.invoke(cli, ["gen", "K-3", "-c", "D=2"])
        doc = json.loads(gen.output)
        for vec in doc["params"].values():
            for pair in vec:
                pair[0], pair[1] = pair[0] * 1e200, pair[1] * 1e200
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        res = run_strict("rank", str(path))
        assert (res.returncode, res.stdout, res.stderr) == (0, "rank: 2\n", "")

    def test_classify_is_scale_free_near_the_float_limit(self, tmp_path):
        g = np.asarray(parse_document(FIXTURE.read_text()).matrix)
        doc = tmp_path / "big.json"
        doc.write_text(format_document(matrix=g * 2.0 ** 664))
        res = run_strict("classify", str(doc))
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout == run_strict("classify", str(FIXTURE)).stdout
        assert res.stdout == K3_CLASSIFY

    def test_classify_at_the_float_limit(self, tmp_path):
        doc = tmp_path / "big.json"
        doc.write_text(format_document(matrix=np.full((4, 4), 1e308)))
        res = run_strict("classify", str(doc))
        assert res.returncode == 0
        assert res.stderr == ""
        assert res.stdout.splitlines()[0] == "rank: 1"

    def test_lying_meta_rejected(self, runner):
        text = FIXTURE.read_text().replace('"K-3"', '"K-4"')
        res = runner.invoke(cli, ["classify", "-"], input=text)
        assert res.exit_code == 2
        assert "K-4" in res.output


class TestVerify:
    def test_clean_run_exits_zero(self, runner):
        res = runner.invoke(cli, ["verify", "--seed", "5", "--samples", "10",
                                  "--family", "K-5", "--rank-instances", "5"])
        assert res.exit_code == 0
        assert "summary checks=6 pass=6 discrepancy=0 fail=0" in res.output

    def test_deterministic_output(self, runner, tmp_path):
        args = ["verify", "--seed", "6", "--samples", "8",
                "--variant", "21", "--rank-instances", "4"]
        a = runner.invoke(cli, args)
        target = tmp_path / "report.txt"
        b = runner.invoke(cli, args + ["--output", str(target)])
        assert a.exit_code == b.exit_code == 0
        assert target.read_text() == a.output

    def test_discrepancy_nonstrict_vs_strict(self, runner):
        base = ["verify", "--seed", "2", "--samples", "8",
                "--family", "KN-1", "--rank-instances", "5"]
        loose = runner.invoke(cli, base)
        assert loose.exit_code == 0
        assert "status=discrepancy" in loose.output
        strict = runner.invoke(cli, base + ["--strict"])
        assert strict.exit_code == 1

    def test_injected_fault_fails_strict(self, runner, monkeypatch):
        fam = FAMILIES["K-4"]
        rules = dict(fam.rules)
        rules["m0"], rules["m"] = (("1", "k0"),), (("1", "k"),)
        monkeypatch.setitem(FAMILIES, "K-4",
                            dataclasses.replace(fam, rules=rules))
        res = runner.invoke(cli, ["verify", "--seed", "2", "--samples", "8",
                                  "--family", "K-4", "--rank-instances", "5",
                                  "--strict"])
        assert res.exit_code == 1
        assert "status=fail" in res.output

    @pytest.mark.parametrize("args, name", [
        ((), "verify_seed0.txt"),
        (("--real",), "verify_seed0_real.txt"),
    ])
    def test_default_run_matches_golden(self, args, name):
        # the full default run (100 samples per check), frozen byte for
        # byte: it pins every family closure's worst residual
        res = run_strict("verify", *args, "--seed", "0")
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert res.stdout.encode() == (DATA / name).read_bytes()

    def test_unknown_family_rejected(self, runner):
        res = runner.invoke(cli, ["verify", "--family", "K-99"])
        assert res.exit_code == 2
