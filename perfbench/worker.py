"""One fresh process of the benchmark: set-up, then at most one repetition.

    python3 perfbench/worker.py ROOT SPEC_JSON MODE WORKDIR

MODE is `setup` (stop after set-up), `plain` (one untraced repetition) or
`traced` (one repetition with spans).  The process prints `ready` once
set-up (importing lpoa, building the problem and the initial polytope) is
done; `plain` and `traced` then write WORKDIR/result.json, and `traced`
also WORKDIR/spans.npz.
"""

from __future__ import annotations

import glob
import json
import os
import sys


def main() -> int:
    root, spec_json, mode, workdir = sys.argv[1:5]
    spec = json.loads(spec_json)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import lpoa.cli
    import lpoa.driver
    if not os.path.abspath(lpoa.driver.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported lpoa from {lpoa.driver.__file__}, "
                         f"not from {src}")
    lpoa.driver.initialize(lpoa.driver.by_key(spec["problem"]))
    print("ready", flush=True)
    if mode == "setup":
        return 0

    import workloads
    if mode == "plain":
        result = workloads.execute(spec, workdir)
    else:
        import spans
        spill = os.path.join(workdir, "spill")
        os.makedirs(spill)
        rec = spans.SpanRecorder(spill_dir=spill)
        saved = spans.install(rec)
        try:
            result = workloads.execute(spec, workdir, rec.wrap)
        finally:
            spans.uninstall(saved)
        parts = [(rec.arrays(), rec.meta())]
        parts += [spans.load_spans(f)
                  for f in sorted(glob.glob(os.path.join(spill, "*.npz")))]
        arrays, meta = spans.merge_spans(parts)
        spans.write_spans(os.path.join(workdir, "spans.npz"), arrays, meta)
        result["layers"] = spans.layer_metrics(
            arrays, meta, result["time_to_solution_s"], spec.get("jobs", 1))
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
