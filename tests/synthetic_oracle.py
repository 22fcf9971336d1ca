"""Class-by-class noise draws, the oracle for the one-draw generator test.

``training.generate_hierarchical_gaussians`` draws all sample noise in one
``(classes, 2, n_per_leaf, dim)`` call.  This loop draws it the way that call
must reproduce: per class, the first view's rows, then the second view's.
"""

import numpy as np

from hypstruct import training as tr


def per_class_gaussians(spec):
    centers = tr.leaf_centers(spec)
    noise_seed = spec.seed if spec.noise_seed is None else spec.noise_seed
    rng = np.random.default_rng(np.random.SeedSequence([noise_seed, 1]))
    rows, rows2, labels = [], [], []
    for k in range(spec.tree.n_classes):
        noise = rng.standard_normal((spec.n_per_leaf, spec.dim))
        noise2 = rng.standard_normal((spec.n_per_leaf, spec.dim))
        rows.append(centers[k] + spec.noise_sigma * noise)
        rows2.append(centers[k] + spec.noise_sigma * noise2)
        labels.extend([k] * spec.n_per_leaf)
    return tr.LabeledDataset(np.vstack(rows), np.array(labels), view2=np.vstack(rows2))
