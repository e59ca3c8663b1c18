"""Run a fixed set of decwt commands and print a digest of every file they leave.

    python3 tools/artifact_digests.py OUTDIR > digests.txt

For each preset (moderate, strong) it runs, each in a fresh interpreter of
the decwt under src/ with RuntimeWarning raised as an error: `run` on all
six routes with a checkpoint every 700 steps, `verify`, `checkpoint-resume`
from the run's first checkpoint and `figures`. Two small master-eq runs
follow, each resumed from its first checkpoint: DENSE (128^2, t_end = 0.05)
samples every step with a checkpoint every 10 steps, so the one-step
segments are covered, and STRIDE, DENSE sampled every 5 steps with a
checkpoint every 7, takes checkpoints inside a segment and resumes from
step 7, off the sample grid. Last, FREE, STRIDE at Lambda = 0, runs all six
routes and `verify`, so the g-table at gamma_k = 0 and verify's SKIP rows
are hashed too. Every command runs in OUTDIR
with relative paths and leaves its stdout, stderr and exit code as files of
their own. Then one `sha256  path` line is printed per file under OUTDIR,
sorted by path, so the artifacts of two checkouts compare with diff.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROUTES = "analytic,ode,master-eq,lse,gfunc,hierarchy"
DENSE = ("label = dense\nLambda = 10.0\nn_y = 128\nn_z = 128\n"
         "t_end = 0.05\nsample_every = 1\n")
STRIDE = DENSE.replace("= dense", "= stride").replace("sample_every = 1\n",
                                                     "sample_every = 5\n")
FREE = STRIDE.replace("= stride", "= free").replace("Lambda = 10.0", "Lambda = 0.0")


def decwt(root: Path, name: str, *args: str) -> None:
    """python -m decwt.cli args in root; name.stdout, .stderr and .exit."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "decwt.cli", *args],
        cwd=root, env=dict(os.environ, PYTHONPATH=path), capture_output=True)
    for ext, data in (("stdout", done.stdout), ("stderr", done.stderr),
                      ("exit", f"{done.returncode}\n".encode())):
        (root / f"{name}.{ext}").write_bytes(data)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifact_digests.py OUTDIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=True)
    for p in ("moderate", "strong"):
        decwt(root, f"{p}-run", "run", "--preset", p, "--routes", ROUTES,
              "--checkpoint-every", "700", "--outdir", f"{p}/run")
        decwt(root, f"{p}-verify", "verify", "--preset", p)
        for ckpt in sorted((root / p / "run").glob("*.ckpt"))[:1]:
            decwt(root, f"{p}-resume", "checkpoint-resume", "--preset", p,
                  "--checkpoint", f"{p}/run/{ckpt.name}", "--outdir", f"{p}/resume")
        decwt(root, f"{p}-figures", "figures", "--preset", p, "--outdir", f"{p}/figures")
    for name, text, every in (("dense", DENSE, "10"), ("stride", STRIDE, "7")):
        (root / f"{name}.cfg").write_text(text)
        decwt(root, f"{name}-run", "run", "--config", f"{name}.cfg", "--routes",
              "master-eq", "--checkpoint-every", every, "--outdir", f"{name}/run")
        for ckpt in sorted((root / name / "run").glob("*.ckpt"))[:1]:
            decwt(root, f"{name}-resume", "checkpoint-resume", "--config", f"{name}.cfg",
                  "--checkpoint", f"{name}/run/{ckpt.name}", "--outdir", f"{name}/resume")
    (root / "free.cfg").write_text(FREE)
    decwt(root, "free-run", "run", "--config", "free.cfg", "--routes", ROUTES,
          "--outdir", "free/run")
    decwt(root, "free-verify", "verify", "--config", "free.cfg")
    for f in sorted(q for q in root.rglob("*") if q.is_file()):
        print(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
