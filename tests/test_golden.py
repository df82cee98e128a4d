"""Frozen digests of short seed-0 training runs.

Three epochs at seed 0 on the default synthetic benchmark (the data
`affectmtl synth --seed 0` writes), once per training mode, and once more
for ss-mfar with resampling: resampled epochs repeat sample indices, so
augmentation draws keyed by schedule position rather than by sample index
would move that digest.  The sha256 of the epoch log text and of the
final and best parameter bytes must not move: a refactor that changes
any bit of a loss, a gradient, an Adam update or a score fails here, not
only in the slow criterion 7/8 runs.

The digests hold for this NumPy/OpenBLAS build; another BLAS (or another
NumPy version) may round the matrix products differently and legitimately
produce other bits.
"""

import hashlib

import pytest

from affectmtl.config import RunConfig, SynthFileConfig
from affectmtl.data_model import generate_synthetic
from affectmtl.losses import TrainMode
from affectmtl.trainer import format_epoch_log, pack_dataset, run_training

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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def default_data():
    sfc = SynthFileConfig()
    train = pack_dataset(*generate_synthetic(sfc.train_config(), seed=0, prefix="train"))
    val = pack_dataset(*generate_synthetic(sfc.val_config(), seed=1, prefix="val"))
    return train, val


def _digests(data, config: RunConfig) -> tuple[str, str, str]:
    result = run_training(*data, config)
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
