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
        "matrix.csv": "8e049144160220b1abc89dfe60b6a691959301de4c0e98b016ccf82669396765",
        "metrics.json": "305b1798d4c7c4d4252848140b2785eb7a87f1c9631410515c76fbfe9986dfc9",
        "train_log.csv": "b18de0f11f315effcf52a6e48f464c0e870a5cefdcef5d43b9c2fb22667e3ae5",
        "param_hash": "e8f83981f97203fee9c7f5143eb21ec140c48c1328e36fb952da5836e4c19831",
    },
    "bitmap5": {
        "matrix.csv": "ec2eee481bcf10f49e7d0e6d9c8a0ec3df47af74f999baf43afbe56b5a624a26",
        "metrics.json": "fce8786f0eb752467da7ec77cd8bda70d746b58ae938c87f0354df72a810533a",
        "train_log.csv": "0525a34eefb3f3348452ca0728d30a679bb53e688a18d50b5689cbc0bb3d54df",
        "param_hash": "f510e1a9bdbc9408747260994a79bfb3b599be19c76a334291ab9c49064707b9",
    },
    "moons4": {
        "matrix.csv": "71bdc631bc38f5cc4a992a6367d70e7fb9f29a4a91abcd58d3e8b3187e06ae4f",
        "metrics.json": "694d9b9067e6611f41951e6914e3129bbf83abc84965d8388d227795ad60e34c",
        "train_log.csv": "144168ec0de0dc42461710f6e32f31740b339871e74241703bd45b7472964dbd",
        "param_hash": "f7dda2e3c30ed750ba8dfaf20a20aff52ac6f5be07eddbb760537a89e8cd701e",
    },
    "no_randmix": {
        "matrix.csv": "7d9930ed09f3318e946d86297be132fb98a92caa9e61641d7f4fe6cb04d93f23",
        "metrics.json": "d03f44b73242a0f2a5193a3efea57b2891535cc8a8d9b0694951a0ee3d2d7785",
        "train_log.csv": "43b6fed74310a1098e0184282faba86482a43bff340336125e46ba76d2b3e391",
        "param_hash": "cb8445e1329c1ad977fe6d799cc698c9134535d32721dace8a2d154a1c7c5b2c",
    },
    "labeler=softmax": {
        "matrix.csv": "34de01c1281007692a6f743b23f11ebab81dc63637ffb0cbf77bb8646159ff03",
        "metrics.json": "fb1a874d9c4904ce372878890f33555b66be5a3f38064f278b5cb9706a70a1e9",
        "train_log.csv": "2f37d7f2a34490717710849bfe7549b7aae142fa0f5ba0173684e855edd53828",
        "param_hash": "a4d2426873644c7de86acf008b079556e51c4038c18905b7a9478c3ed0b41b08",
    },
    "labeler=shot_style": {
        "matrix.csv": "96ec86bce08fbd0fdc7b6ad9e624b69a039533ea281b992e1ecbab0b0c12c477",
        "metrics.json": "dbd361ef9f36c286415d336df84dfd82a1e968cf43bda54b958efb01a8c5c782",
        "train_log.csv": "347e739d357434206ea2e7275bddbd9953dbc208ab085df98be4e0ccbac1dd1d",
        "param_hash": "bafbc3ad4053bea2e7156a675cbbd0d12419d0fddc861eb8a691547f9b7a958f",
    },
    "no_pca": {
        "matrix.csv": "566552960863a7852c5ed8351c147010a0d4a7765c37ad8e7083b7e19d53a293",
        "metrics.json": "fb3fa1b10b1d94b52f1d4a9d38bd809808ed2f16c202386dbc53d459a998bf3c",
        "train_log.csv": "ed3f3f20e997f7727babbe1d1127837b2e5c7457e8ccc89392c9aac79ad9bd76",
        "param_hash": "4c93c27732f4c389f19b3dab7b84342bfd0d6277eacc0af8a18e52cf1cdcc829",
    },
    "stationary": {
        "matrix.csv": "b8461b81de7be789641de37349f4ee87a942ae93cf5e77be06bc080f1a992f61",
        "metrics.json": "9bbf96d5b0c2c074503b9a123a9a683ad7bcad148adfb707dc751fcaf8e43a22",
        "train_log.csv": "b653c8b7fd5d8154c5812779a1106edd105e962ae24354a7e592349ab80c2af0",
        "param_hash": "8b2d3c12fd36c252c5bd332343fb3756fe1b3da0e41dbe8d9c043754f2ce196c",
    },
    "distill_on=representation": {
        "matrix.csv": "17b17e1d200cec75f22de842b02623d056a0359325e6f00c0cf22e04462b18c2",
        "metrics.json": "4e79381f05feafe845e3ff8928459a817da905ebaae4f0a54f9deb312577f0a0",
        "train_log.csv": "410eccadc8f8261213813211ca9323b0647c5abfcfb6798bcdfe01ae183efbb6",
        "param_hash": "c74baa382756b5e428f02cd953ec2bf5f8966e8f21e2df664150fc6411fadc59",
    },
    "bottleneck=none": {
        "matrix.csv": "afaea444de28c47111d9e359b881b07cbcbb1b4e0a5049430454525c04429752",
        "metrics.json": "f4f98be67780edab4d6d718a1aa1746cd6537aef2accc3070fcd0d3df2e3ab39",
        "train_log.csv": "2afc0ac2fafbd064d59ea1e0fe4f3697feeed7ea99d693948fc54f0d0d8f8e05",
        "param_hash": "32c89558a8868d2ce31d0da2609023e6be6b67af89ea2d4ca5bc33902ea66226",
    },
    "moons4-600": {
        "matrix.csv": "cdec4eae0b38efafd203997e8a5a0c4ef6078e404e95bac68d1ab23ff18ca92b",
        "metrics.json": "7fe689a8c0ce70a3396e02d3d3e91b777a95d1d401c3793dc2255801ce7fa702",
        "train_log.csv": "18d7de0cfc3c5a6bc62e2daf797cfeec4e2fd7d888d3558ed41cbd8a1d96671d",
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
