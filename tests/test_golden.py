"""Frozen digests of short seed-0 training runs.

Three epochs at seed 0 on the default synthetic benchmark (the data
`affectmtl synth --seed 0` writes), once per training mode, and once more
for ss-mfar with resampling: resampled epochs repeat sample indices, so
augmentation draws keyed by schedule position rather than by sample index
would move that digest; and once more for mfar at hidden_width 256, whose
Adam step spans several blocks on each side of the backbone/head split
(width 64 fits in one block) and whose best epoch (1) is not its last, so
a step that wrote over the kept best parameters would move its best
digest; and once more for ss-mfar at hidden_width 256, whose strong-view
gradient is the one a width-256 step adds to the weak one.  The sha256
of the epoch log text and of the final and best parameter bytes must not
move: a refactor that changes any bit of a loss, a gradient, an Adam
update or a score fails here, not only in the slow criterion 7/8 runs.

The synthesized data itself is frozen too: the sha256 of the float pixel
bytes of the images' 8-bit levels and of the manifest text that generate_synthetic gives for the default
train and val splits, for an empty split, and for a config that reaches
every edge of the generator (zero priors, no pixel noise, clipped
valence/arousal, frequent action-unit flips, mask rates 0 and 1).

The digests hold for this NumPy/OpenBLAS build; another BLAS (or another
NumPy version) may round the matrix products differently and legitimately
produce other bits.
"""

import hashlib

import numpy as np
import pytest

from affectmtl.config import RunConfig, SynthFileConfig
from affectmtl.data_model import SynthConfig, generate_synthetic, serialize_manifest
from affectmtl.losses import TrainMode
from affectmtl.pgm import level_pixels
from affectmtl.trainer import format_epoch_log, pack_dataset, run_training

import oracles
from conftest import columns

# mode -> (log text, final_params.flat bytes, best_params.flat bytes)
GOLDEN = {
    TrainMode.SEMI: (
        "09b4c4e0f3c271a621634a1520354388fe4137a374bbae480ab09cf0a560d9ad",
        "df13682db834ba12eec70a74ebebe6dadfefff5f6631bcd9bd094907ce615c32",
        "df13682db834ba12eec70a74ebebe6dadfefff5f6631bcd9bd094907ce615c32",
    ),
    TrainMode.SUPERVISED: (
        "477ea0740462adbcd572d56be0d385d7acea1d424ea54d282c2e04c12ff2f0a7",
        "5ca1eb7df497ac19630915c939737c2319335e78c762bdcf8c09447427c03d67",
        "5ca1eb7df497ac19630915c939737c2319335e78c762bdcf8c09447427c03d67",
    ),
    TrainMode.SEMI_NO_KL: (
        "b267c88cbec27def6f1399053dc853197702bec3384bd8d408094e9fd28556f0",
        "573f194d8d1ad7f35a8c0f3b83499d80a4b280e78d5ad69d27c15ffd53efdc35",
        "573f194d8d1ad7f35a8c0f3b83499d80a4b280e78d5ad69d27c15ffd53efdc35",
    ),
}

# ss-mfar with imbalance="resample": (log text, final, best)
GOLDEN_RESAMPLE = (
    "e7c0c8210fd4bf4ecac1a6f7fa992f43b9e88c18ed65a4dc1f0b666ade55de24",
    "a76c8a960aa22d9bb59165338779978159a6bb5554786a638ba2e06d2f036e4f",
    "a76c8a960aa22d9bb59165338779978159a6bb5554786a638ba2e06d2f036e4f",
)

# mfar at hidden_width=256: (log text, final, best); best epoch 1 of 0..2
GOLDEN_WIDE = (
    "68ccd8f7b758e7d4d7e15ea4d141cc78d1bd220961fd680a0d7ce90974ee839c",
    "a93a998273e9cbea8dbf789fc398e97c65d09eef528bdbc79647bbe03043be0f",
    "8902f270f7d1fb8c757f0b6ad8f93cdd27eaeb5041525f4b9cb214d07728b97a",
)

# ss-mfar at hidden_width=256: (log text, final, best); best epoch 1 of 0..2
GOLDEN_WIDE_SEMI = (
    "b016880f3835d20cfcc7f6f4cdeb3a7cf225106ab7a82ac72777199b681fe704",
    "26e443e9ee770216bebd0ed51f8ff741b05132e626163725292ddf8ab7199f1f",
    "e5900a08623cc8940c05b7a63b9ddfa47a9d30ae3125a59cd11797854497703a",
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def default_data():
    sfc = SynthFileConfig()
    train = pack_dataset(*generate_synthetic(sfc.train_config(), seed=0, prefix="train"))
    val = pack_dataset(*generate_synthetic(sfc.val_config(), seed=1, prefix="val"))
    return train, val


def _digests(data, config: RunConfig, best_epoch: int = 2) -> tuple[str, str, str]:
    result = run_training(*data, config)
    assert result.best_epoch == best_epoch
    return (
        _sha256(format_epoch_log(result.reports).encode("utf-8")),
        _sha256(result.final_params.flat.tobytes()),
        _sha256(result.best_params.flat.tobytes()),
    )


@pytest.mark.parametrize("mode", list(GOLDEN), ids=lambda mode: mode.value)
def test_three_epoch_digests(default_data, mode):
    assert _digests(default_data, RunConfig(mode=mode, seed=0, epochs=3)) == GOLDEN[mode]


def test_three_epoch_resample_digests(default_data):
    config = RunConfig(mode=TrainMode.SEMI, seed=0, epochs=3, imbalance="resample")
    assert _digests(default_data, config) == GOLDEN_RESAMPLE


def test_three_epoch_wide_digests(default_data):
    config = RunConfig(mode=TrainMode.SUPERVISED, seed=0, epochs=3, hidden_width=256)
    assert _digests(default_data, config, best_epoch=1) == GOLDEN_WIDE


def test_three_epoch_wide_semi_digests(default_data):
    config = RunConfig(mode=TrainMode.SEMI, seed=0, epochs=3, hidden_width=256)
    assert _digests(default_data, config, best_epoch=1) == GOLDEN_WIDE_SEMI


# Every edge of the generator in one config: zero priors (never drawn),
# no pixel noise, valence/arousal noise large enough to clip at +-1,
# frequent unit flips, and mask rates of 1, 0 and in between.
EDGE_SYNTH = SynthConfig(
    count=300,
    image_size=4,
    class_priors=(0.0, 3.0, 0.0, 1.0, 2.0, 0.0, 0.5, 0.0),
    pixel_noise=0.0,
    va_noise=0.5,
    au_flip_prob=0.3,
    exp_mask_rate=1.0,
    va_mask_rate=0.0,
    au_mask_rate=0.5,
)

# case -> (config, seed, prefix, image bytes sha256, manifest text sha256)
GOLDEN_SYNTH = {
    "train": (
        SynthFileConfig().train_config(), 0, "train",
        "9f54bb76e0c33fc0b52535a1000874c0a155af289c4787405a547955db43b5a5",
        "bb6ca2c4dc0d8b8faa814583d0f587d07117503b651126ade7cfeaaa6ac3ec93",
    ),
    "val": (
        SynthFileConfig().val_config(), 1, "val",
        "e22de9fad06bd7167280c461025e0dda8b4a6dd5d69babb071b6b56d2d2afa9f",
        "c56bec583f551ba7622dd4a36cad3cafee6f1d908c31c4ab00e00a47ce55cc4c",
    ),
    "empty": (
        SynthConfig(count=0), 0, "sample",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1aa1f0ee4452326ef71c9cd3899f8e6619032d32cea4a450439550262a999bbc",
    ),
    "edge": (
        EDGE_SYNTH, 7, "sample",
        "5227166641b43ae06b0442da01d1235b2f6c82b3108c9b1173310995a929265e",
        "57d32789efab0198745771ff7b3903a93dad1b23e37294f3f2318979bb46ed2e",
    ),
}


@pytest.mark.parametrize("case", list(GOLDEN_SYNTH))
def test_synthetic_digests(case):
    config, seed, prefix, image_digest, manifest_digest = GOLDEN_SYNTH[case]
    dataset, images = generate_synthetic(config, seed, prefix=prefix)
    assert images.shape == (config.count, config.image_size, config.image_size)
    assert images.dtype == np.uint8
    assert _sha256(level_pixels(images).tobytes()) == image_digest
    assert _sha256(serialize_manifest(dataset).encode("utf-8")) == manifest_digest
    n = config.count
    assert len(dataset) == n and len(dataset.image_refs) == n
    assert all(type(ref) is str for ref in dataset.image_refs)
    for name, dtype, shape in (
        ("gold_exp", np.int64, (n,)),
        ("gold_au", np.int64, (n, 12)),
        ("gold_va", np.float64, (n, 2)),
        ("exp_valid", np.bool_, (n,)),
        ("au_valid", np.bool_, (n,)),
        ("va_valid", np.bool_, (n,)),
    ):
        column = getattr(dataset, name)
        assert column.dtype == dtype and column.shape == shape, name


@pytest.mark.parametrize("case", list(GOLDEN_SYNTH))
def test_synthetic_columns_match_record_oracle(case):
    """The columns generate_synthetic fills from its arrays equal the
    records the per-sample reference builds, value for value."""
    config, seed, prefix, _, _ = GOLDEN_SYNTH[case]
    dataset, _ = generate_synthetic(config, seed, prefix=prefix)
    records, _ = oracles.generate_synthetic(config, seed, prefix=prefix)
    assert columns(dataset) == oracles.record_columns(records)
