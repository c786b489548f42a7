"""Print the spans of a saved trace, one line per top-level span.

    python3 perfbench/summary.py perfbench/runs/trace-verdict-seed1.npz

Each line gives the top-level span's index, name and duration, then the
summed duration of its direct children, by name.  In a ``verdict`` trace
the four load_group_file spans of the traced reload come first, then
classify_manifold and emit_report for each of figure_eight,
thrice_punctured, funnel, torus and the two conjugates, in that order.
The counters of the whole run follow.
"""

import json
import sys

import numpy as np


def main(path):
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    name, parent = data["name"], data["parent"]
    duration = data["end"] - data["start"]
    children = {}
    for index in np.flatnonzero(parent >= 0):
        root = int(parent[index])
        totals = children.setdefault(root, {})
        key = names[name[index]]
        totals[key] = totals.get(key, 0.0) + float(duration[index])
    for index in np.flatnonzero(parent < 0):
        index = int(index)
        parts = ", ".join(
            "%s %.4f s" % item for item in sorted(children.get(index, {}).items())
        )
        print("%6d %-36s %.4f s  [%s]" % (
            index, names[name[index]], duration[index], parts))
    counters = json.loads(str(data["counters"]))
    print(json.dumps(counters["counts"], indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv[1])
