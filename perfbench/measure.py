"""Order statistics and artifact digests for the grid benchmark."""

from __future__ import annotations

import hashlib
import os
import statistics


def quartiles(values):
    """(first quartile, median, third quartile) of two or more values, as
    statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def scan_artifacts(root):
    """sha256 of every file under `root`, keyed by /-separated relative
    path, and the total bytes those files hold."""
    digests, nbytes = {}, 0
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            digests[rel] = hashlib.sha256(blob).hexdigest()
            nbytes += len(blob)
    return digests, nbytes


def tree_digest(digests):
    """One digest over a {relative path: sha256} mapping, order-free."""
    h = hashlib.sha256()
    for rel in sorted(digests):
        h.update(f"{rel}\0{digests[rel]}\n".encode())
    return h.hexdigest()
