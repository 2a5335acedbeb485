"""Dataset registry: ``load("art" | "adult" | "cmc", ...)``.

The three datasets of Section VI behind one uniform entry point, plus
introspection helpers for the harness.
"""

from __future__ import annotations

from typing import Callable

from repro.datasets import adult, artificial, cmc
from repro.errors import DatasetError
from repro.obs import span
from repro.runtime import checkpoint
from repro.tabular.table import Schema, Table

_GENERATORS: dict[str, tuple[Callable[..., Table], Callable[..., Schema], int]] = {
    # name: (generate, make_schema, paper default n)
    "art": (artificial.generate, artificial.make_schema, 1000),
    "adult": (adult.generate, adult.make_schema, 5000),
    "cmc": (cmc.generate, cmc.make_schema, 1500),
}
_ALIASES = {"adt": "adult", "artificial": "art"}


def dataset_names() -> list[str]:
    """Canonical dataset names."""
    return sorted(_GENERATORS)


def _resolve(name: str) -> str:
    key = name.lower()
    key = _ALIASES.get(key, key)
    if key not in _GENERATORS:
        raise DatasetError(
            f"unknown dataset {name!r}; known datasets: {dataset_names()}"
        )
    return key


def default_size(name: str) -> int:
    """The table size the paper used for this dataset."""
    return identity(name)[1]


def identity(name: str, n: int | None = None) -> tuple[str, int]:
    """The canonical ``(name, size)`` a :func:`load` call resolves to.

    Every spelling of one table (``"adt"``/``"ADT"``/``"adult"``,
    ``n=None``/``n=5000``) maps to the same pair, so callers can key
    memos on it; unknown names raise :class:`DatasetError`.
    """
    key = _resolve(name)
    return key, n if n is not None else _GENERATORS[key][2]


def load(
    name: str, n: int | None = None, seed: int = 0, private: bool = False
) -> Table:
    """Generate one of the paper's evaluation datasets.

    Parameters
    ----------
    name:
        ``"art"``, ``"adult"`` (alias ``"adt"``) or ``"cmc"``.
    n:
        Number of records; defaults to the paper's size
        (ART 1000, ADT 5000, CMC 1500).
    seed:
        RNG seed for reproducibility.
    private:
        Attach the dataset's private (sensitive) attribute.
    """
    key, size = identity(name, n)
    checkpoint("datasets.load")
    with span("datasets.load", dataset=key, n=size):
        return _GENERATORS[key][0](size, seed=seed, private=private)


def schema_of(name: str, private: bool = False) -> Schema:
    """Just the schema of a dataset, without sampling records."""
    key = _resolve(name)
    return _GENERATORS[key][1](private=private)
