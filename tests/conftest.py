import contextlib
import signal

import numpy as np
import pytest

from subforest import dataset


def trees_equal(a, b) -> bool:
    return (
        np.array_equal(a.feature, b.feature)
        and np.array_equal(a.threshold, b.threshold)
        and np.array_equal(a.value, b.value)
        and np.array_equal(a.pred_index, b.pred_index)
        and np.array_equal(a.from_random, b.from_random)
    )


@contextlib.contextmanager
def time_limit(seconds: int):
    """Raise TimeoutError in the main thread if the block runs past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture(scope="session")
def cosine_spec():
    return dataset.SyntheticSpec("cosine", 2)


@pytest.fixture(scope="session")
def cosine_1k(cosine_spec):
    return dataset.gen_synthetic(cosine_spec, 1000, seed=7)
