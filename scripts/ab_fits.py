#!/usr/bin/env python3
"""Compare this checkout's fit-many path with another checkout's, in one process.

    python3 scripts/ab_fits.py PARENT_CHECKOUT [--rounds N]

Loads PARENT_CHECKOUT's ``src/attackdag`` beside this checkout's, under
another package name, and runs both on the bundled labeled rows (98 rows
of 20 features, sorted as every learner sees them).  It first checks that
the two give bit-identical results, and exits 1 if they do not:

- the grid search's SMO fits (the default 45-cell grid, alpha-seeded as
  ``grid_search_min_fn`` runs them): every multiplier, support-vector
  index, bias, iteration count and ``converged`` flag, and the winner and
  surface;
- the k-NN labels of every row for k = 2..5, as ``eval --baselines`` asks;
- the SGD linear SVM's weights and bias.

Then it times each of four workloads, in N interleaved rounds (default
40) that alternate which side runs first, as process CPU time:

- ``fits``: the grid search's ``train_svm`` calls, replayed with the
  arguments the grid search passed;
- ``scoring``: ``predict`` on the 98 rows with each of those fits;
- ``knn``: the 4 x 98 ``knn_predict`` queries;
- ``sgd``: one ``train_sgd_svm``.

It prints each side's median in ms, the change's difference from the
parent, and the number of rounds in which the change was faster.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
KS = (2, 3, 4, 5)


def load_package(src: Path, name: str):
    """The ``attackdag`` package under ``src``, imported as ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, src / "attackdag" / "__init__.py",
        submodule_search_locations=[str(src / "attackdag")])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def bundled_rows(package) -> tuple[np.ndarray, np.ndarray]:
    storage = importlib.import_module(package.__name__ + ".storage")
    table = package.AttributeTable.from_csv((DATA / "attributes.csv").read_text())
    frame = package.labeled_frame(storage.load_labels(DATA / "labels.csv"), table)
    return np.array(frame.features), np.array(frame.labels)


class Side:
    """One checkout's learners and the grid-search calls it made."""

    def __init__(self, package, x: np.ndarray, y: np.ndarray):
        self.learn = importlib.import_module(package.__name__ + ".learn")
        self.gridsearch = importlib.import_module(package.__name__ + ".learn.gridsearch")
        self.x, self.y = x, y
        self.calls: list[tuple[tuple, dict]] = []
        self.fits = []
        train = self.gridsearch.train_svm

        def recording(*args, **kwargs):
            self.calls.append((args, kwargs))
            self.fits.append(train(*args, **kwargs))
            return self.fits[-1]

        self.gridsearch.train_svm = recording
        try:
            self.winner, self.surface = self.learn.grid_search_min_fn(x, y, self.learn.GridSpec())
        finally:
            self.gridsearch.train_svm = train

    def fit_all(self) -> list:
        return [self.learn.train_svm(*args, **kwargs) for args, kwargs in self.calls]

    def score_all(self) -> list:
        return [model.predict(self.x) for model in self.fits]

    def knn_all(self) -> list[int]:
        return [self.learn.knn_predict(self.x, self.y, row, k) for k in KS for row in self.x]

    def sgd(self):
        return self.learn.train_sgd_svm(self.x, self.y)


def fit_key(model) -> tuple:
    return (model.sv_indices, model.sv_alphas.tobytes(), model.bias.hex(), model.iterations,
            model.converged, model.support_vectors.tobytes())


def differences(parent: Side, change: Side) -> list[str]:
    """What differs between the two sides' results, one line each."""
    found = []
    if len(parent.fits) != len(change.fits):
        found.append(f"grid fits: {len(parent.fits)} vs {len(change.fits)}")
    for cell, (a, b) in enumerate(zip(parent.fits, change.fits)):
        if fit_key(a) != fit_key(b):
            found.append(f"grid fit {cell} ({a.params}) differs")
    # The two packages' dataclasses are distinct classes, so compare their reprs.
    if repr((parent.winner, parent.surface)) != repr((change.winner, change.surface)):
        found.append("grid winner or surface differs")
    if [p.tobytes() for p in parent.score_all()] != [c.tobytes() for c in change.score_all()]:
        found.append("scoring labels differ")
    if parent.knn_all() != change.knn_all():
        found.append("k-NN labels differ")
    a, b = parent.sgd(), change.sgd()
    if (a.weights.tobytes(), float(a.bias).hex()) != (b.weights.tobytes(), float(b.bias).hex()):
        found.append("SGD weights or bias differ")
    return found


def cpu_ms(work) -> float:
    start = time.process_time()
    work()
    return (time.process_time() - start) * 1e3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the checkout to compare against")
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    change_pkg = load_package(ROOT / "src", "change_attackdag")
    parent_pkg = load_package(args.parent.resolve() / "src", "parent_attackdag")
    x, y = bundled_rows(change_pkg)
    sides = {"parent": Side(parent_pkg, x, y), "change": Side(change_pkg, x, y)}

    found = differences(sides["parent"], sides["change"])
    if found:
        print("NOT bit-identical:\n  " + "\n  ".join(found))
        return 1
    fits = sides["change"].fits
    print(f"bit-identical: {len(fits)} grid fits ({sum(m.iterations for m in fits)} iterations), "
          f"{len(fits)} scorings, {len(KS) * len(x)} k-NN labels, SGD weights and bias")

    workloads = ("fits", "scoring", "knn", "sgd")
    work = {name: {side: getattr(s, method) for side, s in sides.items()}
            for name, method in zip(workloads, ("fit_all", "score_all", "knn_all", "sgd"))}
    for name in workloads:  # one untimed call each, so lazy set-up is done
        for run in work[name].values():
            run()
    times = {name: {"parent": [], "change": []} for name in workloads}
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for name in workloads:
            for side in order:
                times[name][side].append(cpu_ms(work[name][side]))

    print(f"{args.rounds} interleaved rounds, process CPU ms, medians:")
    for name in workloads:
        p, c = times[name]["parent"], times[name]["change"]
        mp, mc = statistics.median(p), statistics.median(c)
        wins = sum(b < a for a, b in zip(p, c))
        print(f"  {name:8} parent {mp:8.3f}  change {mc:8.3f}  {100 * (mc - mp) / mp:+6.1f}%  "
              f"change faster in {wins} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
