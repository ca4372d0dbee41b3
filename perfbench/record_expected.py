"""Write expected.json: the gate's reference results for every input set.

    python3 perfbench/record_expected.py [WORKLOAD ...]

Every call runs in this process with `--workers 1`, so pooled workloads are
checked against serial results.  Named workloads are re-recorded and merged
into the existing file; with no names, all are.
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402


def serial(argv):
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return argv


def record(workload, input_set, builders=workloads.WORKLOADS):
    """{label: summary} of one input set, computed serially."""
    import iselab.cli

    scratch = tempfile.mkdtemp(prefix="perfbench-record-")
    try:
        calls = workloads.build(workload, input_set,
                                os.path.join(scratch, "inputs"), builders)
        out = {}
        for label, argv in calls:
            target = os.path.join(scratch, label)
            code = iselab.cli.main(serial(argv) + ["--out", target])
            if code != 0:
                raise RuntimeError(f"{workload}/{input_set}/{label}: exit {code}")
            out[label] = gate.summarize(label, gate.load_data(target, label))
        return out
    finally:
        shutil.rmtree(scratch)


def main(names):
    path = os.path.join(HERE, "expected.json")
    expected = {}
    if os.path.isfile(path):
        with open(path) as fh:
            expected = json.load(fh)
    for workload in names or sorted(workloads.WORKLOADS):
        expected[workload] = {
            str(k): record(workload, k) for k in range(workloads.INPUT_SETS)}
        print(f"recorded {workload}", file=sys.stderr)
    with open(path, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
