"""Byte comparison of two source trees over the CLI's outputs.

    python3 tools/byte_matrix.py PARENT_SRC CHANGE_SRC [--keep DIR]

PARENT_SRC and CHANGE_SRC are `src` directories (each holding `rmnlab/`),
for example that of a `git archive` of the parent commit and that of the
working tree. Each side generates the same training and validation
archives, then, for each of 32 configurations (uni/bi x diagonal/full x
truncation_chunk none/7 x residual_interval 1/2/3/none, all with a 2+1
splice), runs `rmnlab train`, `rmnlab eval` and `rmnlab eval --stream 3 2`
on the final checkpoint. The training utterances are longer than the chunk
and a step holds several of them, so steps form groups of several pieces.
With 4 memory layers, the shortcut sources are every output but the last
at interval 1, the projection output and layer 2's output at interval 2,
and the projection output alone at interval 3, whose layer 3 adds a
shortcut and whose layer 4 adds none.

Compared, byte for byte: both archives, `metrics.csv` without its
`wall_seconds` column, every epoch's checkpoint and `final.ckpt`, and each
command's exit code and standard output. Prints one line per
configuration, naming every file that differs, and exits 1 if any does.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import subprocess
import sys
import tempfile

ARCHIVES = {  # name: `rmnlab gen` arguments
    "train.arc": ["--task", "delayed-recall", "--classes", "4", "--delay", "3", "--frames", "20",
                  "--count", "12", "--seed", "1"],
    "valid.arc": ["--task", "delayed-recall", "--classes", "4", "--delay", "3", "--frames", "20",
                  "--count", "4", "--seed", "2"],
}

COMMON = {"num_memory_layers": 4, "wide_dim": 16, "memory_dim": 8, "splice_left": 2,
          "splice_right": 1, "base_lr": 0.05, "peak_lr": 0.2, "max_utts_per_batch": 4,
          "max_epochs": 3, "seed": 3}

CONFIGS = [
    {"direction": d, "shared_weight_form": f, "truncation_chunk": c, "residual_interval": r}
    for d, f, c, r in itertools.product(("uni", "bi"), ("diagonal", "full"), ("none", 7),
                                        (1, 2, 3, "none"))
]


def rmnlab(src: str, cwd: str, *argv: str) -> bytes:
    """Exit code and standard output of one `rmnlab` command run from `src`."""
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-m", "rmnlab.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, check=False)
    return b"exit %d\n" % proc.returncode + proc.stdout


def without_wall_seconds(csv: bytes) -> bytes:
    rows = [line.split(b",") for line in csv.splitlines()]
    if not rows or b"wall_seconds" not in rows[0]:
        return csv
    i = rows[0].index(b"wall_seconds")
    return b"\n".join(b",".join(r[:i] + r[i + 1:]) for r in rows)


def run_config(src: str, work: str, config: dict) -> dict[str, bytes]:
    """Every compared output of one configuration: file name -> bytes."""
    out_dir = os.path.join(work, "run")
    with open(os.path.join(work, "exp.cfg"), "w") as fh:
        fh.write("train_archive = train.arc\nvalid_archive = valid.arc\nout_dir = run\n")
        for key, value in {**COMMON, **config}.items():
            fh.write(f"{key} = {value}\n")
    shutil.rmtree(out_dir, ignore_errors=True)
    got = {"train (stdout)": rmnlab(src, work, "train", "exp.cfg")}
    final = os.path.join("run", "final.ckpt")
    got["eval (stdout)"] = rmnlab(src, work, "eval", final, "valid.arc")
    got["eval --stream 3 2 (stdout)"] = rmnlab(src, work, "eval", final, "valid.arc",
                                               "--stream", "3", "2")
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        got[name] = without_wall_seconds(data) if name == "metrics.csv" else data
    return got


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--keep", metavar="DIR", help="work in DIR and keep it (default: a "
                        "temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    sides = [os.path.abspath(s) for s in (args.parent_src, args.change_src)]
    for src in sides:
        if not os.path.isdir(os.path.join(src, "rmnlab")):
            parser.error(f"{src} holds no rmnlab package")
    root = args.keep or tempfile.mkdtemp(prefix="byte_matrix_")
    works = [os.path.join(root, side) for side in ("parent", "change")]
    try:
        gen = []
        for src, work in zip(sides, works):
            os.makedirs(work, exist_ok=True)
            got = {}
            for name, gen_args in ARCHIVES.items():
                got[f"gen {name} (stdout)"] = rmnlab(src, work, "gen", *gen_args, name)
                with open(os.path.join(work, name), "rb") as fh:
                    got[name] = fh.read()
            gen.append(got)
        archives_differ = report("archives", *gen)
        failed = sum(report(" ".join(f"{k}={v}" for k, v in config.items()),
                            *(run_config(src, work, config) for src, work in zip(sides, works)))
                     for config in CONFIGS)
    finally:
        if not args.keep:
            shutil.rmtree(root, ignore_errors=True)
    print(f"{len(CONFIGS) - failed} of {len(CONFIGS)} configurations byte-identical")
    return 1 if failed or archives_differ else 0


def report(label: str, parent: dict[str, bytes], change: dict[str, bytes]) -> int:
    """Print one line for a configuration; 1 if any of its outputs differ."""
    differ = [name for name in sorted(parent.keys() | change.keys())
              if parent.get(name) != change.get(name)]
    if differ:
        print(f"{label}: DIFFER in {', '.join(differ)}")
        return 1
    print(f"{label}: same ({len(parent)} outputs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
