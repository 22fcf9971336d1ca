"""Time the set-up a hypstruct command pays before its real work.

    python3 benchmark/setup_probe.py '<json spec>'

In a fresh interpreter, times ``import hypstruct.cli``, ``cli.load_hierarchy``,
``cli.load_dataset`` (when the spec names a dataset) and ``tree_metric`` on the
workload's tree, and prints the seconds as the only line of output.
"""

import json
import sys
import time

start = time.perf_counter()
import hypstruct.cli as cli  # noqa: E402
from hypstruct.hierarchy import tree_metric  # noqa: E402

spec = json.loads(sys.argv[1])
tree = cli.load_hierarchy(spec["hierarchy"])
if "dataset" in spec:
    cli.load_dataset(spec["dataset"], tree, spec["seed"])
tree_metric(tree)
print(repr(time.perf_counter() - start))
