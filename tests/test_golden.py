"""Golden digests: the output bytes of short runs and of the CLI tables.

Each case is a 2-epoch, 5-step run, on the domains SEQUENCES names or
else on its config's preset. Its pinned sha256 digests cover
matrix.csv, metrics.json and train_log.csv, plus the final model's param_hash.
A change that alters output bits on purpose updates the digests in the same
commit and says why. ENVIRONMENT records where the digests were taken;
another numpy or BLAS may round differently without the program being at
fault, so a failure names any difference from it.
"""

import contextlib
import hashlib
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

ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

DIGESTS = {
    "rot5": {
        "matrix.csv": "74d084a8d9d778b3fb97f30b95adb91d031759cbc7209466ba2bd5f2d24ea983",
        "metrics.json": "305b1798d4c7c4d4252848140b2785eb7a87f1c9631410515c76fbfe9986dfc9",
        "train_log.csv": "98e6cc90a30434047b6d15c6a6336d5d6e9f0a81b3c45a568512e29f262e4d0f",
        "param_hash": "e8f83981f97203fee9c7f5143eb21ec140c48c1328e36fb952da5836e4c19831",
    },
    "bitmap5": {
        "matrix.csv": "defdd480cfcf7f8f8448a664c6480e9a4e886ec8dffbc8f93534a0a970bcf4da",
        "metrics.json": "fce8786f0eb752467da7ec77cd8bda70d746b58ae938c87f0354df72a810533a",
        "train_log.csv": "84885c66ab0e0390a886ddb12bd673ab70ffab2e6cec2c0e26d73849e5db27bb",
        "param_hash": "f510e1a9bdbc9408747260994a79bfb3b599be19c76a334291ab9c49064707b9",
    },
    "moons4": {
        "matrix.csv": "bc6ad0466b19aabbe9d587e9533a636a91cbda5fb51ef724f5433c96d4808ad5",
        "metrics.json": "694d9b9067e6611f41951e6914e3129bbf83abc84965d8388d227795ad60e34c",
        "train_log.csv": "d0ed6145170cce6cfe2d8ffcb50ee97faa89996789998e7b0fa5cb4afe60796a",
        "param_hash": "f7dda2e3c30ed750ba8dfaf20a20aff52ac6f5be07eddbb760537a89e8cd701e",
    },
    "no_randmix": {
        "matrix.csv": "50487695dce4af5c4d6c53956cdafdd385fec61adc5ee3755e6c91d0b6b795d2",
        "metrics.json": "d03f44b73242a0f2a5193a3efea57b2891535cc8a8d9b0694951a0ee3d2d7785",
        "train_log.csv": "96b501f235f26c654aa48e0e92df5074a3870176873cf2c26f0c6610462b5dd7",
        "param_hash": "cb8445e1329c1ad977fe6d799cc698c9134535d32721dace8a2d154a1c7c5b2c",
    },
    "labeler=softmax": {
        "matrix.csv": "15d2567ac64096193b4e2b2602a3245c407640393be12b20b880f23c6e8df7c5",
        "metrics.json": "fb1a874d9c4904ce372878890f33555b66be5a3f38064f278b5cb9706a70a1e9",
        "train_log.csv": "0333cb34048f24a2005813fa8821c3f6f5d8c399bc38ddb1bebbc25c20fe9bfd",
        "param_hash": "a4d2426873644c7de86acf008b079556e51c4038c18905b7a9478c3ed0b41b08",
    },
    "labeler=shot_style": {
        "matrix.csv": "977d323c811c8c240eb9878c6f7f95cd26d88fe6a20a83ff203dd8207222954d",
        "metrics.json": "dbd361ef9f36c286415d336df84dfd82a1e968cf43bda54b958efb01a8c5c782",
        "train_log.csv": "93e8b3be65e55effb6b4ae4587f110abf5f5872c199fb0ddcd1dde50bcf6f429",
        "param_hash": "bafbc3ad4053bea2e7156a675cbbd0d12419d0fddc861eb8a691547f9b7a958f",
    },
    "no_pca": {
        "matrix.csv": "36c9215d6fbb1d5cc5fb17af80d195f816622f9390cb59699c312362b7a8cb26",
        "metrics.json": "fb3fa1b10b1d94b52f1d4a9d38bd809808ed2f16c202386dbc53d459a998bf3c",
        "train_log.csv": "7c89affc31f8a2ea78f9b1da5e2c3c77f2e7423d8767bd2ad64a27c5afc34248",
        "param_hash": "4c93c27732f4c389f19b3dab7b84342bfd0d6277eacc0af8a18e52cf1cdcc829",
    },
    "stationary": {
        "matrix.csv": "1e4db49a386df7ecd3f558c218cc0f3cb8ea33b5d5668809ca22e82c5504c64b",
        "metrics.json": "9bbf96d5b0c2c074503b9a123a9a683ad7bcad148adfb707dc751fcaf8e43a22",
        "train_log.csv": "b8cf01a31eeeeeaf9b3692aa37dc14420a9bc4af64176428545d3e8f655971b1",
        "param_hash": "8b2d3c12fd36c252c5bd332343fb3756fe1b3da0e41dbe8d9c043754f2ce196c",
    },
    "distill_on=representation": {
        "matrix.csv": "8f3601df239101a2de3e67e7169fc133e312da755c0d36d4b3bd31def8903e2a",
        "metrics.json": "4e79381f05feafe845e3ff8928459a817da905ebaae4f0a54f9deb312577f0a0",
        "train_log.csv": "24377fc1aad602e26e8184f41c08654ce4320ec8083d3a2edf45500db9d60c8e",
        "param_hash": "c74baa382756b5e428f02cd953ec2bf5f8966e8f21e2df664150fc6411fadc59",
    },
    "bottleneck=none": {
        "matrix.csv": "dc3c6f5492b667618d338eeb54dc506c60b594ee500f6ec58000f5b56bc86875",
        "metrics.json": "f4f98be67780edab4d6d718a1aa1746cd6537aef2accc3070fcd0d3df2e3ab39",
        "train_log.csv": "8de79717a0837ba8e99805bb0d05e1d5e0dfcd23a2c55099f0776bb04ca08333",
        "param_hash": "32c89558a8868d2ce31d0da2609023e6be6b67af89ea2d4ca5bc33902ea66226",
    },
    "moons4-600": {
        "matrix.csv": "cf617812db33248cf44caf970c36ec021e1de58eb853ae15acccb408dae277ff",
        "metrics.json": "7fe689a8c0ce70a3396e02d3d3e91b777a95d1d401c3793dc2255801ce7fa702",
        "train_log.csv": "04a435f9c83972ed9ca24a1356e6b738e5b5dc07527251965c269feff4632510",
        "param_hash": "304e7682dae031a1eb1bbe34c69a79e7fb8c29c231f9cf46780b5755d3bb4fe1",
    },
}

TABLE_DIGESTS = {
    "sweep stdout": "9a5d431c2dc31b164015814612bfcffd5da01db3f3d817c0506f128aa727b96a",
    "ablate stdout": "f77f553f7d1fac17d905aab055f9ddd26fbff338e8465f29032880616f0100ad",
    "summary.csv": "1f47652a77ce1685351d89bd31b43a0402e543e6df6738dda1d779e5d1243802",
    "ablation.csv": "aa2ad3329d938ad4e57d741ad0e0908500acfd5d9a6c0c1f0af363d0e1c2267b",
    "report --format text": "9c7e5ad66d4cde5ad21364d08f5c4f68776c98f068c88b059d997476bcad48a8",
    "report --format csv": "906e97fa0308e5a22d986c1534127870d41ca30466010df2879473b509836003",
}


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def environment_note() -> str:
    now = environment()
    drift = [f"{key} {ENVIRONMENT[key]} -> {now[key]}"
             for key in ENVIRONMENT if now[key] != ENVIRONMENT[key]]
    if drift:
        return "digests taken in another environment: " + "; ".join(drift)
    return "same numpy and BLAS as the digests: the output bytes changed"


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


ONE_THREAD_RUNS = """
import json, sys
from pathlib import Path
import test_golden
out = Path(sys.argv[1])
print(json.dumps({name: test_golden.run_digests(name, out / name)
                  for name in test_golden.CASES}))
"""


def test_one_blas_thread_gives_the_same_digests(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      str(REPO / "tests"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", ONE_THREAD_RUNS, str(tmp_path)],
                          cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == DIGESTS, environment_note()


@pytest.mark.parametrize("name", ["rot5", "bitmap5", "moons4", "moons4-600"])
def test_process_blas_thread_count_gives_the_same_digests(name, tmp_path, monkeypatch):
    """Runs pin BLAS to one thread; unpinned, they must give the same bytes."""
    monkeypatch.setattr(protocol.dc, "one_blas_thread", contextlib.nullcontext)
    assert run_digests(name, tmp_path) == DIGESTS[name], environment_note()


def without_wrote_lines(stdout: str) -> bytes:
    """Command stdout minus the `wrote <path>` lines, which name tmp paths."""
    lines = stdout.splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith("wrote ")).encode()


def test_cli_tables_match_golden_digests(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    sweep, ablate = tmp_path / "sweep", tmp_path / "ablate"
    got = {}
    assert cli.main(["sweep", "--config", cfg, "--out", str(sweep), "--param", "r_top",
                     "--values", "2,4", "--jobs", "2"]) == 0
    got["sweep stdout"] = sha256(without_wrote_lines(capsys.readouterr().out))
    assert cli.main(["ablate", "--config", cfg, "--out", str(ablate),
                     "--variant", "labeler=softmax"]) == 0
    got["ablate stdout"] = sha256(without_wrote_lines(capsys.readouterr().out))
    got["summary.csv"] = sha256((sweep / "summary.csv").read_bytes())
    got["ablation.csv"] = sha256((ablate / "ablation.csv").read_bytes())
    for fmt in ("text", "csv"):
        assert cli.main(["report", str(sweep / "r_top=2" / "seed2022"),
                         "--format", fmt]) == 0
        got[f"report --format {fmt}"] = sha256(capsys.readouterr().out.encode())
    assert got == TABLE_DIGESTS, environment_note()
