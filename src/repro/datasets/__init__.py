"""The paper's evaluation datasets (Section VI).

* ART — the artificial dataset, generated exactly per the paper's
  distributions and permissible subsets.
* ADT — a synthetic stand-in for the UCI Adult extract (see DESIGN.md §2
  for the substitution rationale).
* CMC — a synthetic stand-in for the UCI Contraceptive Method Choice
  survey.

Use :func:`load` to obtain a table::

    from repro.datasets import load
    table = load("adult", n=1000, seed=7, private=True)
"""

from repro.datasets.registry import (
    dataset_names,
    default_size,
    identity,
    load,
    schema_of,
)

__all__ = ["load", "schema_of", "dataset_names", "default_size", "identity"]
