"""Every ```python block of README.md runs as written, and no public
name that README lists as removed has come back."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import surrokit
from surrokit import (
    Dataset,
    NetworkClassifier,
    TrainConfig,
    full_architecture,
    reference_architecture,
)

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


# README, "Removed public names"
REMOVED_NAMES = (
    "Spectrum", "forward_dft", "inverse_dft", "butterworth_lowpass", "resample",
    "epoch_from_array", "Signal", "PartialSurrogateSpec", "epoch_surrogate", "Classifier",
    "Epoch", "forward", "RmspropState", "init_rmsprop_state", "IM2COL_CHUNK",
)
MODULES = [surrokit] + [
    importlib.import_module(f"surrokit.{info.name}")
    for info in pkgutil.iter_modules(surrokit.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_removed_names_stay_removed(module):
    assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []


def test_removed_members_stay_removed():
    assert not hasattr(Dataset, "epoch") and not hasattr(Dataset, "epochs")
    assert not hasattr(NetworkClassifier, "predict")
    for build in (full_architecture, reference_architecture):
        with pytest.raises(TypeError):
            build(dropout_after_conv2d=True)
    with pytest.raises(TypeError):
        TrainConfig(dropout_conv=0.33)
    with pytest.raises(TypeError):
        TrainConfig(dropout_dense=0.015)
    with pytest.raises(TypeError):
        TrainConfig(momentum=0.0)
    with pytest.raises(TypeError):
        TrainConfig(rms_decay=0.9)
