"""A linear scalar probe shared by the gradient tests."""

import numpy as np

from fuseformer import tensor as T


def probe(mix, out):
    """sum(mix * out) as one ``scalar_loss`` node: its gradient with respect
    to ``out`` is ``mix``, in the dtype of ``out``."""
    mix = np.asarray(mix, dtype=out.data.dtype)
    return T.scalar_loss(out, np.sum(mix * out.data), lambda: mix)
