"""Golden digests: the output bytes of short runs and of the CLI tables.

Each case is a 2-epoch, 5-step run. Its pinned sha256 digests cover
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

from cdsl_lab import cli, nets, protocol
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
}

ENVIRONMENT = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

DIGESTS = {
    "rot5": {
        "matrix.csv": "74d084a8d9d778b3fb97f30b95adb91d031759cbc7209466ba2bd5f2d24ea983",
        "metrics.json": "305b1798d4c7c4d4252848140b2785eb7a87f1c9631410515c76fbfe9986dfc9",
        "train_log.csv": "3df45f6423a59b181a17ebe5c15fa8b77307fb417548adc9701c11b383d35587",
        "param_hash": "0b19fd77b616451484b9b9b4239f897160d50caf92ca1a08ead24e2d12a45a72",
    },
    "bitmap5": {
        "matrix.csv": "c52eb31a002504f40be986589d4d91bd4f11f3906f24856014612d8d02e8ac78",
        "metrics.json": "20e1cc851dab16098e3be2651a046fd0b64b0d130e080a41d1e4a021fdb9d3bc",
        "train_log.csv": "7d1c5dfb3085dcffd5ae5d8d545e4f994a1fdd03aa0b41ec11dcaaaa2f8c3a6c",
        "param_hash": "7200071409bfb5a59bf74a247b1ae634f2ef94b1fdd331bf6d7b2180179c1699",
    },
    "moons4": {
        "matrix.csv": "bc6ad0466b19aabbe9d587e9533a636a91cbda5fb51ef724f5433c96d4808ad5",
        "metrics.json": "694d9b9067e6611f41951e6914e3129bbf83abc84965d8388d227795ad60e34c",
        "train_log.csv": "497fa7f6684dc5393722d3d1fe67f92169b1cceee2425f5bd41483a3433a73ac",
        "param_hash": "ab66fd46fd45b5f29e45def4765f0b90f1fca1873c8cd7c62a5cb82865db0e4e",
    },
    "no_randmix": {
        "matrix.csv": "50487695dce4af5c4d6c53956cdafdd385fec61adc5ee3755e6c91d0b6b795d2",
        "metrics.json": "d03f44b73242a0f2a5193a3efea57b2891535cc8a8d9b0694951a0ee3d2d7785",
        "train_log.csv": "27d16711fe88f3cc280b1e4c0283b3d464d56e2ef236fa4358912b056abc5af5",
        "param_hash": "4614b948efd6bb5701ddd6aa6ff744ca0887beffb04dda2a54f04f21757c7b4b",
    },
    "labeler=softmax": {
        "matrix.csv": "15d2567ac64096193b4e2b2602a3245c407640393be12b20b880f23c6e8df7c5",
        "metrics.json": "fb1a874d9c4904ce372878890f33555b66be5a3f38064f278b5cb9706a70a1e9",
        "train_log.csv": "43374f3cce13d8cb1382765e51f8ced802c01813ffe6947eda07a0f9a8b31164",
        "param_hash": "51bc7515fa044b57ae9a0e21d2fd3c28dea48ba56c4dec03bb660b6d59e72fac",
    },
    "labeler=shot_style": {
        "matrix.csv": "977d323c811c8c240eb9878c6f7f95cd26d88fe6a20a83ff203dd8207222954d",
        "metrics.json": "dbd361ef9f36c286415d336df84dfd82a1e968cf43bda54b958efb01a8c5c782",
        "train_log.csv": "53b4a6f44d16a6edf249b69658bfda1def3a75e802379b258e41a860390556bd",
        "param_hash": "873a9cde640c1adb9e8aa2817cb7c98f8d3a0fe30952efb0035d4180c76241ed",
    },
    "no_pca": {
        "matrix.csv": "36c9215d6fbb1d5cc5fb17af80d195f816622f9390cb59699c312362b7a8cb26",
        "metrics.json": "fb3fa1b10b1d94b52f1d4a9d38bd809808ed2f16c202386dbc53d459a998bf3c",
        "train_log.csv": "52db949b6e8cf1b727e9fbc1d92b64154347c6d2a46c227a355f1c2a8496c030",
        "param_hash": "bb2cd35a8a22a86ba3e054991b611f818199a0f63f1ed75092c4eebb4437018a",
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
        "train_log.csv": "068f6d9067129f5125e86ec49ea9fe95a05077cced9bb8d73c917e2093e1b316",
        "param_hash": "a4fa15c8c807c98d72e884c43c049673b5a33da1becb99c6f01ab6bf2ed8f280",
    },
    "bottleneck=none": {
        "matrix.csv": "dc3c6f5492b667618d338eeb54dc506c60b594ee500f6ec58000f5b56bc86875",
        "metrics.json": "f4f98be67780edab4d6d718a1aa1746cd6537aef2accc3070fcd0d3df2e3ab39",
        "train_log.csv": "f77eec7288fd76c4ddfda0e70afb9cc5154970881ba28034fc8d039841897849",
        "param_hash": "b18f9518937bc24f75a40d8fb632bc1ea3707d6bbf4771416698ca66d321bca7",
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


def run_digests(cfg: RunConfig, out_dir: Path) -> dict[str, str]:
    result = protocol.run_cdsl(cfg)
    protocol.write_results(result, out_dir)
    digests = {name: sha256((out_dir / name).read_bytes()) for name in FILES}
    digests["param_hash"] = nets.param_hash(result.model)
    return digests


@pytest.mark.parametrize("name", CASES)
def test_run_outputs_match_golden_digests(name, tmp_path):
    assert run_digests(CASES[name], tmp_path) == DIGESTS[name], environment_note()


ONE_THREAD_RUNS = """
import json, sys
from pathlib import Path
import test_golden
out = Path(sys.argv[1])
print(json.dumps({name: test_golden.run_digests(cfg, out / name)
                  for name, cfg in test_golden.CASES.items()}))
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


@pytest.mark.parametrize("name", ["rot5", "bitmap5", "moons4"])
def test_process_blas_thread_count_gives_the_same_digests(name, tmp_path, monkeypatch):
    """Runs pin BLAS to one thread; unpinned, they must give the same bytes."""
    monkeypatch.setattr(protocol.dc, "one_blas_thread", contextlib.nullcontext)
    assert run_digests(CASES[name], tmp_path) == DIGESTS[name], environment_note()


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
