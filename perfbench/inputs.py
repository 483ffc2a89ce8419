"""Seeded synthetic MNIST-shaped inputs: four IDX files in MNIST's names.

Each of the 10 classes has a prototype image: a random 7x7 grey pattern
scaled up to 28x28.  A sample is its class prototype at a random contrast
plus Gaussian pixel noise, clipped to uint8.  The noise is strong enough
that short training leaves the networks well below perfect accuracy, so
accuracy checks on fused networks can tell networks apart.
"""

from pathlib import Path

import numpy as np

from partfuse import data as datamod

CLASSES = 10
SIDE = 28
TRAIN_COUNT = 6000
TEST_COUNT = 1000
NOISE_SD = 80.0


def _samples(rng, prototypes, count):
    labels = rng.integers(0, CLASSES, size=count)
    contrast = rng.uniform(0.6, 1.0, size=(count, 1, 1))
    noise = rng.normal(0.0, NOISE_SD, size=(count, SIDE, SIDE))
    images = prototypes[labels] * contrast + noise
    return np.clip(np.rint(images), 0, 255).astype(np.uint8), labels.astype(np.uint8)


def write_inputs(directory: Path, seed: int) -> None:
    """Write train/test IDX image and label files generated from `seed`."""
    rng = np.random.default_rng(seed)
    coarse = rng.uniform(0.0, 255.0, size=(CLASSES, SIDE // 4, SIDE // 4))
    prototypes = np.kron(coarse, np.ones((4, 4)))
    directory.mkdir(parents=True, exist_ok=True)
    names = datamod.MNIST_FILES
    for prefix, count in (("train", TRAIN_COUNT), ("test", TEST_COUNT)):
        images, labels = _samples(rng, prototypes, count)
        datamod.write_idx_images(directory / names[f"{prefix}_images"], images)
        datamod.write_idx_labels(directory / names[f"{prefix}_labels"], labels)
