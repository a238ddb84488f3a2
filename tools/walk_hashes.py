"""Print the sha256 of the structure constants, dual basis and Gram matrix of
fifteen representations, one line each.

Usage (from the root of a checkout):

  PYTHONPATH=src python tools/walk_hashes.py > head.txt
  PYTHONPATH=OLD_TREE/src python tools/walk_hashes.py > base.txt
  cmp base.txt head.txt

Every hash covers the array's dtype, shape and bytes, so a signed zero that
moves shows.  No CLI command reads the structure constants, so this is what
pins their bits between two trees; run both in one environment, with one BLAS
thread.
"""

from __future__ import annotations

import hashlib

import numpy as np

from cayleymap import catalog
from cayleymap import representation as rm


def representations() -> dict:
    """{label: Representation}: sl, so, the sl2 irreps and one of each combinator."""
    irrep = {m: catalog.make_sl2_irrep(m) for m in range(1, 6)}
    reps = {f"sl{n}": catalog.make_sl(n) for n in (3, 6, 10)}
    reps.update({f"so{n}": catalog.make_so(n) for n in (5, 12)})
    reps.update({f"irrep{m}": rep for m, rep in irrep.items()})
    reps["sum(irrep1,irrep2)"] = catalog.direct_sum(irrep[1], irrep[2])
    reps["tensor(irrep1,irrep3)"] = catalog.tensor(irrep[1], irrep[3])
    reps["cube(irrep2)"] = catalog.tensor_power(irrep[2], 3)
    reps["dual(irrep3)"] = catalog.dual(irrep[3])
    reps["sl4|range(3)"] = rm.restrict_to_subalgebra(catalog.make_sl(4), range(3))
    return reps


def digest(a: np.ndarray) -> str:
    a = np.ascontiguousarray(a)
    return hashlib.sha256(f"{a.dtype.str}{a.shape}".encode() + a.tobytes()).hexdigest()


def main() -> None:
    for label, rep in representations().items():
        print(label, "dual", digest(rep.dual), "gram", digest(rep.gram), "structure", digest(rep.structure_constants()))


if __name__ == "__main__":
    main()
