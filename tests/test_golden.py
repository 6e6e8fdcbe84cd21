"""Golden digests: fixed-seed campaigns must reproduce bit for bit.

Each campaign runs two chunks (the chunk size is shrunk so that it stays
cheap) at one and at two workers.  The digests were recorded before the
pair-list kernel replaced the square-matrix one, so they pin that the
refactor changed no output bit.

The two graph families whose endpoint routes add the offsets and the
vertex distance in a different order for each orientation (``treecycles``
and ``flares-fig``) are pinned by their exact trivial count and by their
points to 4e-15 instead: the pair list keeps the i < j orientation, the
square matrix used both.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

from persets import cli, engine, metric, spaces

from reference import write_matrix_csv

SEED = 17
CHUNK = 1024
TUPLES = CHUNK + 476  # two chunks, the second one partial

GOLDEN = {
    ("s1", 4): "639ab73725b5b1f4d9060a727ec0856e8b6fbad966f38e81878f4f672b5f81fc",
    ("s1", 6): "892598275fff717c71abcc2185617b3bb73e45a6b7188d5159716a09c5e9248a",
    ("s1:lambda=3.5", 4): "93b1924cbde765792408a26973861381f0facdd0ee32f075ab146a55625dd9ed",
    ("s1:lambda=3.5", 6): "32e454878f330d0947708485a886433347b4357d2d84e2178e196526ffb93c73",
    ("s1-e", 4): "f283d91cf3a33d9945fc541a4703ece3d18c622392c63cee62d67a0ff51faec6",
    ("s1-e", 6): "9a31d111a9ef393762993cddb5eb0fd327e9ae2a90652adbe230aabcda226864",
    ("sphere:m=2", 4): "e8689c47e9b53e8927518e4677b4fb15cc47a300e1ae18aad58c9f1b4d600725",
    ("sphere:m=2", 6): "c5cc51e0bf7903b783e77fe9004b915e5a76c75b2d693ced7bda46a94292fbf2",
    ("sphere-e:m=2", 4): "09724b140edea53cc47ef278d176a5bddefe7a75f198993a37ec5a3143b90bb6",
    ("sphere-e:m=2", 6): "a5d68515f58cabec9ab319cd16ce45e171f10f97a336a01863f9bacc83b87cb7",
    ("torus", 4): "4021158602a75012865c249767330577188d05cd0b1c6f768436c53693ff6c11",
    ("torus", 6): "3fd5f884c2840b88859ec04b3af0a30d044f412284f86c32a0349d50cb8d5eb1",
    ("mk:kappa=1", 4): "4f67d3a9ea02cfd60ab6b92cea27c4b47d18b6b28a0d9281f363087db2d2a6d5",
    ("mk:kappa=1", 6): "a2ba299e930c35738a798147ab5f11bcecfe14a4a40561734618d3f00f90bd94",
    ("mk:kappa=-1", 4): "19f9b22fc94a3439bed0eb33677a9c516edb4d736aa5e2fa503805d4cec69e6e",
    ("mk:kappa=-1", 6): "3b53e884b5f1abd2888435427ff33a2dcbae8cb86ac77f5486651ab674a46785",
    ("disk:m=2", 4): "9c734afee7752aa9265a78c1e2365d83adf4e46b7332f478f048453c52ce8a9f",
    ("disk:m=2", 6): "685816abd4e346e92f0fba897406b5d1275d3b5d93614045136fa98c627b59b2",
    ("wedge:3.5,4.5", 4): "7561c9212060dd4a00e8a18125ad13fe8e05d5596f6057b85e8ece4cb5536932",
    ("wedge:3.5,4.5", 6): "dd0ec218e773e13f95496bc714a697d0ca2f52efe93224bf27e557fbdd2a7bdb",
    ("glued:3.5,4.5:alpha=0.5", 4): "a52092dd7e3ed10cbdff0f03ff087d03b474e63f20d7f323d08da0a99f900a24",
    ("glued:3.5,4.5:alpha=0.5", 6): "e97bb7a767b43bb12a091c8b32f7cd4e288103eeb50b2b2289c8f5a20b2403dc",
    ("finite", 4): "99c9e3f8deddea0028714c3bf501d96eaab1c7f8f86b3c63b2a731d337040c96",
    ("finite", 6): "15f7721da1bec174657d68c5059458c4b1c69fbcf1f9bca100016aaa6bd5ad65",
    # recorded before pair distances moved to coordinate-major blocks: from
    # D = 8 coordinates on numpy's last-axis sum adds in eight lanes, so a
    # layout change alone would reorder these sums (sphere-e:m=1 is s1-e)
    ("sphere:m=1", 4): "1a9eeb7f8b6941580c07c3c90f7637c4eb640d308ceb3ea5c128c80f373bcb61",
    ("sphere:m=1", 6): "2a6d9b5e358b2a24cc5768806af14f97e4c55a9ae3c957c348d497662589e390",
    ("sphere:m=5", 4): "0bc497c3a291901d8473c7e76b282bd08954f3fb1bff5a841fa32f73f73b2255",
    ("sphere:m=5", 6): "2c79f0b63945edacb446f3c0a7fdf9e54e0d2c37007867a5c59a52a783131700",
    ("sphere:m=7", 4): "5010b091f51328c4008b06e7a7520ecd39e8d1b05fc9b7e59193a45fc16c5c32",
    ("sphere:m=7", 6): "fbb953bc02a049e6877f76b5a6b435ca1acea3fc45f3d2c302b28aa00d2314b9",
    ("sphere:m=9", 4): "32efe129cc80cbcd606512635edccf030fff6b60f2a17a18e32a7868c9efbf80",
    ("sphere:m=9", 6): "a91baca88b90bad0a3099bd2553eabc8e2a0124e9fb0d2d5c9060ad3819bdc8a",
    ("sphere-e:m=5", 4): "debe9620df7004e424ee92768112323d0ce8915c296c805f29c0703169703e29",
    ("sphere-e:m=5", 6): "088daa7bbc7e5e9ae90dfe37657abd025fa0bc794a87ff1a3a38fb6670b313d6",
    ("sphere-e:m=7", 4): "1c4f8ce510bffa17a68e5d2e3e2fe8bb31259bdf021c5d1a6f1cb942175a7deb",
    ("sphere-e:m=7", 6): "00cd6a5ba05c9da6d4bb5e98e31c02032a0d2f9107072f359db7239dca738c81",
    ("sphere-e:m=9", 4): "29bc3ed25afc813e0bdfedbc8edf7829808b7e6e4332beeb89646b4695e5e2b3",
    ("sphere-e:m=9", 6): "cbc25622f248d78ab666fa0ec41313b75838f26b76e4fba23254e959d0eabf70",
    ("disk:m=9", 4): "62d7ba40af3465a9fc2d32265fb6b996fb71d1076625f2beb80a753fe501adf2",
    ("disk:m=9", 6): "e76e007be9b428b95ab495b1603fc837b437080b304d1649baaf3ad049a82400",
}

# off the principal path every tuple goes through the oracle, in chunks of
# 1024: (trivial count, sha256 of the points, sha256 of engine.kept_tuples),
# recorded while this path still needed an explicit oracle flag
ORACLE_GOLDEN = {
    # degree 0, recorded before the oracle listed one boundary matrix per degree
    ("s1", 5, 0): (0, "014cb7124249782ce6e9c2b9636d2ffce2e4cb0a70028de8a62580f95475a969",
                   "a46def6e5b4bc390b3812e8cd81b63b4fbf73442f50bce4230ff11e50784299a"),
    ("s1", 5, 1): (1125, "ed5186cbe0e0b56c53cbad31a631ca4ed55e9d46858d5824c0e82aa08446f8ab",
                   "2f3594b3bcc38734d4de418e8df2567ccf483095d4e7dc77d96115882f42d122"),
    ("s1", 6, 1): (894, "9558533e645287e7abf25daf4876c2ede438ecaa3c89284dd3c4eef2ebc847fd",
                   "0518f6fe22fa0bab2d505c7d4324bcfde75757f6bba07dfd084ba4b5f6b61230"),
    ("s1", 7, 2): (1395, "7ec2897be29f915d483254f68b447b2a92d02a3184ac4808db170708e6a9db2f",
                   "0e36ed68cb59282d51700bbb723feaaaa20b57e3821d84cade598b728d01de4f"),
    ("wedge:3.5,4.5", 8, 1): (859, "d05f88747dd9f6238829b10b31aac6269cb0ce5a3a771aa02075273eff5c2b5a",
                              "ef666caf363993a8b82db77abe97cece628275bd3e6830a676b37566c5879735"),
}

NEAR_GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_graph_points.json")


def finite_space():
    pts = np.random.default_rng(3).standard_normal((40, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    np.fill_diagonal(d, 0.0)
    return engine.FiniteSpace(metric.validate(d))


def campaign(descriptor, n, workers, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK", CHUNK)
    space = finite_space() if descriptor == "finite" else descriptor
    return engine.sample_persistence_set(space, n, n // 2 - 1, TUPLES, SEED, workers=workers)


def digest(sample):
    h = hashlib.sha256()
    h.update(sample.space.encode())
    h.update(str(sample.trivial_count).encode())
    h.update(np.ascontiguousarray(sample.points, dtype=np.float64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("descriptor,n", sorted(GOLDEN))
def test_golden_digest(descriptor, n, workers, monkeypatch):
    assert digest(campaign(descriptor, n, workers, monkeypatch)) == GOLDEN[descriptor, n]


@pytest.mark.parametrize("descriptor,n", sorted(GOLDEN))
def test_golden_digest_across_block_edges(descriptor, n, monkeypatch):
    # 300 neither divides CHUNK nor equals it: blocks end inside both chunks
    monkeypatch.setattr(engine, "BLOCK", 300)
    assert digest(campaign(descriptor, n, 1, monkeypatch)) == GOLDEN[descriptor, n]


@pytest.mark.parametrize("descriptor,n", sorted(GOLDEN))
def test_golden_digest_across_sampler_row_blocks(descriptor, n, monkeypatch):
    # 1000 divides neither a chunk's draw (1024 n or 476 n points) nor BLOCK:
    # the samplers' row blocks end inside every draw
    monkeypatch.setattr(spaces, "_ROWS", 1000)
    assert digest(campaign(descriptor, n, 1, monkeypatch)) == GOLDEN[descriptor, n]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("descriptor,n,k", sorted(ORACLE_GOLDEN))
def test_oracle_golden_digest(descriptor, n, k, workers):
    s = engine.sample_persistence_set(descriptor, n, k, TUPLES, SEED, workers=workers)
    trivial, points, tuples = ORACLE_GOLDEN[descriptor, n, k]
    assert (s.trivial_count, hashlib.sha256(s.points.tobytes()).hexdigest()) == (trivial, points)
    if workers == 1:  # the redraw is serial: one check of the tuples per sample
        assert hashlib.sha256(engine.kept_tuples(descriptor, s).tobytes()).hexdigest() == tuples


# sha256 of the files written from one fixed sample: recorded with the
# per-line writers that the CSV codec replaced, so the codec changed no byte
FILE_DIGESTS = {
    "s.csv": "0f8145f5863eb798decbf42ad56ede6f2e85438e109fa258d521527319930973",
    "s.csv.json": "2505281a09183dc91c5cfd3bc5cd05b67d587cc2c1ed8a91b28139a132a44d93",
    "flags.csv": "d17737f65382449e9665be87345c975be9ad09a2fc4b1f8220868f6cb111af38",
    "m.csv": "e88152675383643f528b51711c8e01aa47e139a2cefd661e529e0e1139544699",
    "empty.csv": "86696c979c03c2b4193fe9135ad884d4cebbb96565a1db1a59521fea6a69588c",
    "empty_flags.csv": "305fb471d5aa014cc516b8cb021687834692c7e623649e2333bb4409b9656f43",
    "s.csv.f64": "14e586bb3d732c6980508ef97a5fc8570ea4c3ed31b0b4657eb91b2e344550f0",
    "empty.csv.f64": "eff25eb776f6ab04c048cf6c68d01462669bcc708a2a2a22fc290f1d1101b2a5",
}


def empty_sample():
    return engine.PersistenceSetSample(space="s1", n=4, k=1, tuples_drawn=10, points=np.zeros((0, 2)),
                                       trivial_count=10, seed=5)


def write_files(tmp_path, capsys):
    s = engine.sample_persistence_set("s1", 4, 1, 5000, seed=5)
    # subnormal, smallest normal and near-overflow values; three lie outside the s1 region
    special = np.array([[5e-324, 1e308], [2.2250738585072014e-308, 0.1], [0.0, 1 / 3]])
    s = engine.PersistenceSetSample(space=s.space, n=4, k=1, tuples_drawn=s.tuples_drawn + 3,
                                    points=np.concatenate([s.points, special]),
                                    trivial_count=s.trivial_count, seed=5)
    engine.write_sample(s, tmp_path / "s.csv")
    pts = np.random.default_rng(3).standard_normal((6, 3))
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    write_matrix_csv(metric.validate(d), tmp_path / "m.csv")
    assert cli.main(["oracle-check", "--region", "s1", "--check", str(tmp_path / "s.csv"),
                     "--out", str(tmp_path / "flags.csv")]) == 1
    assert json.loads(capsys.readouterr().out)["violations"] == 3
    engine.write_sample(empty_sample(), tmp_path / "empty.csv")
    assert cli.main(["oracle-check", "--region", "s1", "--check", str(tmp_path / "empty.csv"),
                     "--out", str(tmp_path / "empty_flags.csv")]) == 0
    capsys.readouterr()
    for name, want in FILE_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


def test_file_bytes(tmp_path, capsys):
    write_files(tmp_path, capsys)


def test_the_companion_gives_the_parsed_bytes(tmp_path, capsys, monkeypatch):
    write_files(tmp_path, capsys)
    parsed = {name: metric.read_csv(tmp_path / name, engine.SAMPLE_HEADER) for name in ("s.csv", "empty.csv")}
    monkeypatch.setattr(engine, "read_csv", None)  # a parse would raise: the points come from the companion
    for name, want in parsed.items():
        got = engine.read_points(tmp_path / name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("rows", [1, 7])
def test_file_bytes_do_not_depend_on_the_csv_block(rows, tmp_path, capsys, monkeypatch):
    # the sample has about 550 rows: blocks of 1 and 7 rows end everywhere, and 7 leaves a partial one
    monkeypatch.setattr(metric, "_CSV_ROWS", rows)
    write_files(tmp_path, capsys)


# sha256 of the plots of one fixed sample, recorded with the per-point
# writers that one format template per plot replaced
SVG_DIGESTS = {
    "angular.svg": "eb3069c0ab95d88a3f0716868edabc96176b330f2603211a323205f2be0c1517",
    "linear.svg": "0165a4f3c7be40e59781ed81916e23035b5e7caa1aa70f9b0df5a199e30775c3",
    "empty.svg": "3239b72abdda791a50fcd928bf79b1a3a1f5d9b352f8ed1a10bb5588181c6ac3",
    "heat.svg": "910e7de166dbf52ee2820abcf759bb376a59d41d55766e3544fd8d3f74097dfc",
    "empty_heat.svg": "3239b72abdda791a50fcd928bf79b1a3a1f5d9b352f8ed1a10bb5588181c6ac3",
}


def test_svg_file_bytes(tmp_path):
    s = engine.sample_persistence_set("s1", 4, 1, 450_000, seed=5)
    assert len(s.points) > 2 * 20000  # above max_points: every third point is drawn
    empty = empty_sample()
    engine.svg_scatter(s.points, tmp_path / "angular.svg", title="s1  n=4 k=1")
    engine.svg_scatter(s.points, tmp_path / "linear.svg", angular=False, title="s1  n=4 k=1")
    engine.svg_scatter(empty.points, tmp_path / "empty.svg")
    engine.svg_heatmap(engine.histogram(s, 100, 100), tmp_path / "heat.svg", title="s1  n=4 k=1")
    engine.svg_heatmap(engine.histogram(empty, 100, 100), tmp_path / "empty_heat.svg")
    for name, want in SVG_DIGESTS.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name


with open(NEAR_GOLDEN, encoding="utf-8") as _fh:
    _NEAR = json.load(_fh)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("key", sorted(_NEAR))
def test_golden_points_of_asymmetric_routes(key, workers, monkeypatch):
    descriptor, n = key.rsplit("@", 1)
    want = _NEAR[key]
    s = campaign(descriptor, int(n), workers, monkeypatch)
    assert s.trivial_count == want["trivial"]
    np.testing.assert_allclose(s.points, np.asarray(want["points"]).reshape(-1, 2),
                               rtol=0.0, atol=4e-15)


def signed_zero_space():
    """30 points of the unit 2-sphere, six of them repeats, under the chord metric:
    every zero distance is -0.0 but one +0.0 in the mirror of a repeated pair
    (``validate`` accepts both signs)."""
    v = np.random.default_rng(5).standard_normal((24, 3))
    v = (v / np.linalg.norm(v, axis=1)[:, None])[[*range(24), 0, 3, 3, 7, 11, 19]]
    d = np.linalg.norm(v[:, None, :] - v[None, :, :], axis=-1)
    d[d == 0] = -0.0
    d[24, 0] = 0.0
    return engine.FiniteSpace(metric.validate(d))


# a FiniteSpace campaign on signed zeros and repeated indices, recorded
# with the kernel that seeded each point's top two from the diagonal zero
SIGNED_ZERO_GOLDEN = {
    4: "8ca925487a53a62f7ac0883634ffa8df8619da9ab7b473bed56dec61276953f0",
    6: "d9c35b39d362d0d590c2aaea0a556949e5dd97f788c49cd0d51b761e1724cedd",
}


@pytest.mark.parametrize("block", [engine.BLOCK, 300])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", sorted(SIGNED_ZERO_GOLDEN))
def test_golden_digest_of_signed_zeros(n, workers, block, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK", CHUNK)
    monkeypatch.setattr(engine, "BLOCK", block)
    s = engine.sample_persistence_set(signed_zero_space(), n, n // 2 - 1, TUPLES, SEED, workers=workers)
    assert digest(s) == SIGNED_ZERO_GOLDEN[n]
