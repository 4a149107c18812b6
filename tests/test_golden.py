"""Golden digests: the output bytes of short runs and of the CLI tables.

Each case is a 2-epoch, 5-step run, on the domains SEQUENCES names or
else on its config's preset. Its pinned sha256 digests cover
matrix.csv, metrics.json and train_log.csv, plus the final model's param_hash.
A change that alters output bits on purpose updates the digests in the same
commit and says why; `PYTHONPATH=src python tests/test_golden.py DIR` runs
every case and the CLI tables into DIR and prints one JSON object whose
"ENVIRONMENT", "DIGESTS" and "TABLE_DIGESTS" entries are the three literals to
pin. ENVIRONMENT records where the digests were taken: numpy, its BLAS, the
OpenBLAS core kernels it picked for this CPU and the SIMD extensions numpy's
loops found. Another numpy, BLAS, core or SIMD level may round differently
without the program being at fault, so a failure names any difference from it.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cdsl_lab import cli, nets, protocol, synthdata
from cdsl_lab.protocol import RunConfig
from conftest import blas_core
from test_cli import write_cfg

REPO = Path(__file__).parents[1]
FILES = ("matrix.csv", "metrics.json", "train_log.csv")
SHORT = RunConfig(epochs=2, steps_per_epoch=5)

CASES = {
    "rot5": SHORT,
    "bitmap5": replace(SHORT, sequence="bitmap5"),
    "moons4": replace(SHORT, sequence="moons4"),
    **{v: protocol.variant_config(SHORT, v) for v in protocol.ABLATION_VARIANTS},
    "stationary": replace(SHORT, stationary=True),
    "distill_on=representation": replace(SHORT, distill_on="representation"),
    "bottleneck=none": replace(SHORT, bottleneck=None),
    "moons4-600": replace(SHORT, sequence="moons4"),
}

# domains of 600 rows, built as perfbench builds moons-wide: the only case
# whose inference spans more than one of nets.feature_values' row blocks
SEQUENCES = {
    "moons4-600": synthdata.DomainSequence(
        "moons4-600", [replace(spec, samples=600)
                       for spec in synthdata.standard_sequences()["moons4"].specs]),
}

ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0",
               "blas_core": "SkylakeX",
               "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]}

DIGESTS = {
    "rot5": {
        "matrix.csv": "65d4cd2ebf175c0fbc1a37f3b65e69c6b18b25c4ef382670cd55493f3d5095a7",
        "metrics.json": "45407dfa58a9f6a57d138bb306afbd6118f577799ba62c442b4f8a0c9fa71e72",
        "train_log.csv": "3fda253df11f4d2b6bce069c0b1ed06508233624c776dfb96b0a70cc47749248",
        "param_hash": "6078e0b55dafd21bd60f6c0d1f3ad66983e520967efc0b0cc85033cc7b2a6975",
    },
    "bitmap5": {
        "matrix.csv": "16ff39bef120a3cd0198f0abab9cd4367627ac9080b588b2fd6792d071f3aa4d",
        "metrics.json": "5e6c606d7e01f87d30d211b3f59f65b0d671566f1558ef444d1b9e8f8e6b0277",
        "train_log.csv": "64258a1c4758d912c78d3cf6f07d938d140ee8c30cc4d8a18d18af6223d1e4f0",
        "param_hash": "27ee3928e5441c9b9e7fa70f88800d4ed22e470a3ede4bb561ca3fd79dad9c78",
    },
    "moons4": {
        "matrix.csv": "6149be0747d802db2ddd614d10c1a43ce2ca9316299cc1a38bc081811c0b5a59",
        "metrics.json": "15c2a785d66a50de001c34946a89b17083959ce80bc157725cd9fd2928d4e309",
        "train_log.csv": "22c3f63084812ed14aaf5d43a8b1a4f92d0e21fdca5241ab0be7f91a71f2733c",
        "param_hash": "a4df22e0ecb76dcc7f9a27e5319ede33f14ebcfeeca5ea5541522fdcf71f6dfd",
    },
    "no_randmix": {
        "matrix.csv": "d9c4e0991348e5a7bae637a8f2ade25ad37343fbe9f29d5c1e911c8186357f3c",
        "metrics.json": "4a47162b6e230e40bbfa243e58474bb791072e284a7c18af19f8ca0681da7a86",
        "train_log.csv": "c620c6b84baf3a050f7e786945971da84011beb72a1324dbc0ae017bd594569a",
        "param_hash": "3b09d6e6cfbc701abaa5d9db2bd48e07dc4f484bdf79fa2c4ae94fd43ae63476",
    },
    "labeler=softmax": {
        "matrix.csv": "56c0fdb6ef05f67f7ee44c8b0ddb1a52f0187f3a64093054194d78bc1573af2a",
        "metrics.json": "74358edb5c6ec533ca794f7232a1a22ccde8618faee0a018bd139c60373e85b3",
        "train_log.csv": "d2fd292db46c898b4d92870fc2672b577eb3e79fdd7e0778484f8fe5e75ab084",
        "param_hash": "a615ec5710df2c337ce3f8bebeda74df8d9aee249fd47d8da00780a582b45409",
    },
    "labeler=shot_style": {
        "matrix.csv": "97a8b005c8487862a399b84648c5aee7c402f7b9bc590518903d0ef8806e8b3d",
        "metrics.json": "2d778d2e89d40ee937690dc42a59898431fb529ea2403add0c682f9e5c396ab3",
        "train_log.csv": "88c86014c35cf7924cc1f1a29d78a8e9bdcbfc0b44a1657fa1808109821ee424",
        "param_hash": "c0df86c05861434ebc0b6698e33ae941cd13e3f985ed0dcad3cf48ca1dd2e9a3",
    },
    "no_pca": {
        "matrix.csv": "89541beb8be5e72c7544212bf9d690388179a314522bf93792f8b8df846bd32f",
        "metrics.json": "32317b4319702f9f0fd6b2eede36f35987151eaceb678433e984e914fe2d360f",
        "train_log.csv": "b67f2bf447c6e8b735080ebf0229f62fdcc5b3ba464cd4ee74c17a075b383b10",
        "param_hash": "9b44d06363615896fc5afe5a913006ab78637d2a40d635ff94e4c0ec408e3a2e",
    },
    "stationary": {
        "matrix.csv": "b8461b81de7be789641de37349f4ee87a942ae93cf5e77be06bc080f1a992f61",
        "metrics.json": "9bbf96d5b0c2c074503b9a123a9a683ad7bcad148adfb707dc751fcaf8e43a22",
        "train_log.csv": "b653c8b7fd5d8154c5812779a1106edd105e962ae24354a7e592349ab80c2af0",
        "param_hash": "8b2d3c12fd36c252c5bd332343fb3756fe1b3da0e41dbe8d9c043754f2ce196c",
    },
    "distill_on=representation": {
        "matrix.csv": "0f1dcd3b85bec302e1f53e4371fe66043bd298d2f6c90452891d6fdea2fa19eb",
        "metrics.json": "cec11716d07f8d7f8bdc0a0f6a78a058ab163cc217bdb02b9e08a66f95b9a39f",
        "train_log.csv": "9c1ceeedbe78cd4de47292b729c0af34eac6f62d8c0239d7a5e9d9b7bb92944d",
        "param_hash": "024b6b5676511538614e998b6e9e4933f2e4dfa9158039186112a789916883c4",
    },
    "bottleneck=none": {
        "matrix.csv": "edafdc7217ee43ca8a529e439e5bf6187fd354ed28fe9342a5f933719e1742d4",
        "metrics.json": "37b49e807752b5c3a76552a4f2b3f367cfbf74478d12a11b82f83b6bb924a1f8",
        "train_log.csv": "8d979ca3666d6700ae266849c05ab2453b6fbc74a0c9ff3e450e36aef5a261eb",
        "param_hash": "8109a6e19674c7d05bcdc4bbdb8cc47f9b3d3dd5ed1437d9af86352f17a1be65",
    },
    "moons4-600": {
        "matrix.csv": "712c018441506fef675f9ead837601476818e65a2da695195a577f47058d24e4",
        "metrics.json": "5ac998abbbf6057d511c06a443c6cc5fd3c90d1ea1bb078e715718aa1ae45de3",
        "train_log.csv": "63ad43c98007a3c876b5d6f5373cf0c5c64a7b8e206575367dbbe0d851ae7dda",
        "param_hash": "124c54512855009f9826d972ce13df4eaf8b455a197123f269c2c2c6a3800995",
    },
}

TABLE_DIGESTS = {
    "sweep stdout": "21d9fff3941baaade55732c30556142e5a9edfadefe4555fc0c6ff894ea4e512",
    "ablate stdout": "f63afaa07e02d42186659e2bcdb2b76ffc4095d346212f30e93a1cf716d0c63f",
    "summary.csv": "f34b54b929ce5e0df9d3d1eb5d47c21571849344f7e433940f9a6951b79ca537",
    "ablation.csv": "aa7ef3a028a31dbc640c21ef46fff8db04e3776599e6295817c03957ce8cc82e",
    "report --format text": "5a351b8fddb0f96aef605ebd34a40e808724f514c1cab68a4b890917c8737c43",
    "report --format csv": "a0d8e53d0f91ccdcd71faebfd534b7f88b4e313754866c54c3cfe5b4eabcfeab",
}


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "blas_core": blas_core(), "simd": config["SIMD Extensions"]["found"]}


def environment_note() -> str:
    now = environment()
    drift = [f"{key} {ENVIRONMENT[key]} -> {now[key]}"
             for key in ENVIRONMENT if now[key] != ENVIRONMENT[key]]
    if drift:
        return "digests taken in another environment: " + "; ".join(drift)
    return "same numpy, BLAS, BLAS core and SIMD as the digests: the output bytes changed"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name: str, out_dir: Path) -> dict[str, str]:
    result = protocol.run_cdsl(CASES[name], SEQUENCES.get(name))
    protocol.write_results(result, out_dir)
    digests = {name: sha256((out_dir / name).read_bytes()) for name in FILES}
    digests["param_hash"] = nets.param_hash(result.model)
    return digests


@pytest.mark.parametrize("name", CASES)
def test_run_outputs_match_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == DIGESTS[name], environment_note()


def test_one_blas_thread_gives_the_same_digests(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"ENVIRONMENT": ENVIRONMENT, "DIGESTS": DIGESTS,
                                       "TABLE_DIGESTS": TABLE_DIGESTS}, environment_note()


@pytest.mark.parametrize("name", ["rot5", "bitmap5", "moons4", "moons4-600"])
def test_process_blas_thread_count_gives_the_same_digests(name, tmp_path, monkeypatch):
    """Runs pin BLAS to one thread; unpinned, they must give the same bytes."""
    monkeypatch.setattr(protocol.dc, "one_blas_thread", contextlib.nullcontext)
    assert run_digests(name, tmp_path) == DIGESTS[name], environment_note()


def without_wrote_lines(stdout: str) -> bytes:
    """Command stdout minus the `wrote <path>` lines, which name tmp paths."""
    lines = stdout.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("wrote ")).encode()


def table_digests(out_dir: Path) -> dict[str, str]:
    """Digests of the sweep, ablate and report tables for `test_cli.TINY`, run in out_dir."""
    cfg = write_cfg(out_dir)
    sweep, ablate = out_dir / "sweep", out_dir / "ablate"

    def stdout_of(*argv: str) -> str:
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            assert cli.main(list(argv)) == 0
        return buf.getvalue()

    got = {}
    got["sweep stdout"] = sha256(without_wrote_lines(stdout_of(
        "sweep", "--config", cfg, "--out", str(sweep), "--param", "r_top",
        "--values", "2,4", "--jobs", "2")))
    got["ablate stdout"] = sha256(without_wrote_lines(stdout_of(
        "ablate", "--config", cfg, "--out", str(ablate), "--variant", "labeler=softmax")))
    got["summary.csv"] = sha256((sweep / "summary.csv").read_bytes())
    got["ablation.csv"] = sha256((ablate / "ablation.csv").read_bytes())
    for fmt in ("text", "csv"):
        got[f"report --format {fmt}"] = sha256(stdout_of(
            "report", str(sweep / "r_top=2" / "seed2022"), "--format", fmt).encode())
    return got


def test_cli_tables_match_golden_digests(tmp_path):
    assert table_digests(tmp_path) == TABLE_DIGESTS, environment_note()


if __name__ == "__main__":
    out = Path(sys.argv[1])
    print(json.dumps({"ENVIRONMENT": environment(),
                      "DIGESTS": {name: run_digests(name, out / name) for name in CASES},
                      "TABLE_DIGESTS": table_digests(out)}, indent=4))
