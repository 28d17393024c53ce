"""Self-check of the harness: its checks pass on right outputs and fail on
wrong ones.

    PYTHONPATH=src python3 perfbench/selfcheck.py WORKDIR

Z4 at size 2 (pair mode) has exactly one orbit class and Z2 x Z2 none; a
5-item verify batch has no failure.  The same outputs checked against
wrong expectations must each be flagged.  Exits 1 on the first surprise.
"""

from __future__ import annotations

import sys

import gen
import workloads

SMALL = dict(size=2, mode="pair", symmetry="affine", budget=None, complete=True)


def failures(workload, items, workdir):
    return sum(
        bool(workloads.check(workload, item, workloads.run_item(workload, item, workdir)))
        for item in items
    )


def expect(label, got, want):
    if got != want:
        print(f"selfcheck: {label}: {got} failing items, expected {want}")
        sys.exit(1)


def main():
    searches = [dict(SMALL, orders=[4], classes=1), dict(SMALL, orders=[2, 2], classes=0)]
    wrong = [dict(searches[0], classes=0), dict(searches[1], complete=False)]
    batch = gen.verify_items(seed=0, families=[
        ("thm21", gen.theorem21_image, 2, 1),
        ("Z16", lambda rng: gen.subgroup_pair(rng, (16,), 4), 1, 1),
    ])
    flipped = [dict(item, holds=not item["holds"]) for item in batch]
    workdir = sys.argv[1]
    expect("Z4 and Z2^2 searches", failures("search_cyclic", searches, workdir), 0)
    expect("wrong search expectations", failures("search_cyclic", wrong, workdir), 2)
    expect("5-item verify batch", failures("verify_exact", batch, workdir), 0)
    expect("flipped verify verdicts", failures("verify_exact", flipped, workdir), 5)
    print("selfcheck ok")


if __name__ == "__main__":
    main()
