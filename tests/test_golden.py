"""Golden digests: the output bytes of short runs and of the CLI tables.

Each case is a 2-epoch, 5-step run. Its pinned sha256 digests cover
matrix.csv, metrics.json and train_log.csv, plus the final model's param_hash.
A change that alters output bits on purpose updates the digests in the same
commit and says why. ENVIRONMENT records where the digests were taken;
another numpy or BLAS may round differently without the program being at
fault, so a failure names any difference from it.
"""

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
        "train_log.csv": "8ba81db2ba8b2a4e7edeffaa646a5b56d39974067862bf653cb8ec6b3d1df9fe",
        "param_hash": "54e9d20f317de6cf0b9f19271c0a136154e3e2f0ac599b351daf215c73dd0e1a",
    },
    "bitmap5": {
        "matrix.csv": "c52eb31a002504f40be986589d4d91bd4f11f3906f24856014612d8d02e8ac78",
        "metrics.json": "20e1cc851dab16098e3be2651a046fd0b64b0d130e080a41d1e4a021fdb9d3bc",
        "train_log.csv": "c44ec880114752f38465fc7376a0ebbcc56de3e1c6a4dec229b3a23e44fb654c",
        "param_hash": "57d2c686bcd6ac16644613f58ea19ccd8eee00bed498403196048bfd811ebad7",
    },
    "moons4": {
        "matrix.csv": "bc6ad0466b19aabbe9d587e9533a636a91cbda5fb51ef724f5433c96d4808ad5",
        "metrics.json": "694d9b9067e6611f41951e6914e3129bbf83abc84965d8388d227795ad60e34c",
        "train_log.csv": "88c3e4221804af9df9079857126f815641dfcab0793b040cedf837bc61ef3167",
        "param_hash": "2973023a551301a32c283c293c92a7c39f44e4b4d63149de9716b7037bfc20ae",
    },
    "no_randmix": {
        "matrix.csv": "50487695dce4af5c4d6c53956cdafdd385fec61adc5ee3755e6c91d0b6b795d2",
        "metrics.json": "d03f44b73242a0f2a5193a3efea57b2891535cc8a8d9b0694951a0ee3d2d7785",
        "train_log.csv": "0dcbc20e765e0ce5582bbdce3ab014643163be2eafec5f14d6c1925329b7965a",
        "param_hash": "922568ea6009697ae9622650dcec8ea07f0d12ca36554f886ef373020c78f93f",
    },
    "labeler=softmax": {
        "matrix.csv": "15d2567ac64096193b4e2b2602a3245c407640393be12b20b880f23c6e8df7c5",
        "metrics.json": "fb1a874d9c4904ce372878890f33555b66be5a3f38064f278b5cb9706a70a1e9",
        "train_log.csv": "f908d9a2df1cfac40e022be9922b0f576638d80f9794fa2fdc964265e08f7527",
        "param_hash": "d296e7f29e557706bcc59cd521903653b66e8796129e0567afaa5a6d5ad6867b",
    },
    "labeler=shot_style": {
        "matrix.csv": "977d323c811c8c240eb9878c6f7f95cd26d88fe6a20a83ff203dd8207222954d",
        "metrics.json": "dbd361ef9f36c286415d336df84dfd82a1e968cf43bda54b958efb01a8c5c782",
        "train_log.csv": "18a8b3e1dd7c8f19de5fe13b2bd104fdd62f0ffe3ada6ec310355e0595bc81a9",
        "param_hash": "c8ef9e3e424923512883d3b94966d8ac5ea03a92f134251bb9ff2d437383dd24",
    },
    "no_pca": {
        "matrix.csv": "36c9215d6fbb1d5cc5fb17af80d195f816622f9390cb59699c312362b7a8cb26",
        "metrics.json": "fb3fa1b10b1d94b52f1d4a9d38bd809808ed2f16c202386dbc53d459a998bf3c",
        "train_log.csv": "b1202af5193a9e898ac647d99669442c9ac041af3d516dd36e87804c673ffde7",
        "param_hash": "e4d6ce742a803e48cf435f3722fc281c6180af162640bc2a01334af4a18f1c99",
    },
    "stationary": {
        "matrix.csv": "1e4db49a386df7ecd3f558c218cc0f3cb8ea33b5d5668809ca22e82c5504c64b",
        "metrics.json": "9bbf96d5b0c2c074503b9a123a9a683ad7bcad148adfb707dc751fcaf8e43a22",
        "train_log.csv": "4f3101d1c5f225defdaf44d7cbc204a5448acfa67e6a73989fe16aa4924206e4",
        "param_hash": "4220e843851b3e06df4941efdb036d058ca95a1e0b8ada4921e5fd7533cabaf2",
    },
    "distill_on=representation": {
        "matrix.csv": "8f3601df239101a2de3e67e7169fc133e312da755c0d36d4b3bd31def8903e2a",
        "metrics.json": "4e79381f05feafe845e3ff8928459a817da905ebaae4f0a54f9deb312577f0a0",
        "train_log.csv": "ca86881e88940cbb1722703360381b6b545ab961990702804f42807741066c66",
        "param_hash": "a8d1000b8eb2a75564e1a069e7a74c60ef2ca676f38b0388265446456beba71d",
    },
    "bottleneck=none": {
        "matrix.csv": "dc3c6f5492b667618d338eeb54dc506c60b594ee500f6ec58000f5b56bc86875",
        "metrics.json": "f4f98be67780edab4d6d718a1aa1746cd6537aef2accc3070fcd0d3df2e3ab39",
        "train_log.csv": "3f8603c91c2229ae203cc6fc5610e5c7f8a429be815398dda5ef802a7519a47c",
        "param_hash": "6874be1f3e36bb0bcb7af8b559a15521c73035c080c3b1364924f95e37411f99",
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
