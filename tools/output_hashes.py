"""Print the sha256 of every output of a fixed set of ``anisomesh`` commands.

Run it with the tree to check on the path, for example
``PYTHONPATH=$PWD/src python3 tools/output_hashes.py`` (the path must be
absolute: the commands run in a temporary directory); it takes no options.
Each command runs in a child process, in one temporary directory, so two
trees can be compared by the text this prints: one line per output file and
per standard output, and for a command that fails, its exit code and its
standard error.  The bytes depend on the BLAS kernel and the SIMD level of
numpy's build, so compare two trees on the same machine.
"""
import hashlib
import os
import subprocess
import sys
import tempfile

# (name, arguments); a name's outputs are its --mesh-out, --trace-out,
# --csv-out and --svg-out files, and a render reads the mesh of a run before it
COMMANDS = [
    ("aniso-10-256", "run --field aniso-10 --p 2 --target-n 256"),
    ("aniso-10-256-sigma", "render aniso-10-256.mesh --color-by sigma --form 1,0,10"),
    ("converge-aniso-2", "converge --field aniso-2 --checkpoints 64,256"),
    ("sigma-aniso-10", "sigma-study --field aniso-10 --levels 3"),
    ("expbump-16384", "run --field expbump --initial unit-square --target-n 16384"),
    ("expbump-16384-error", "render expbump-16384.mesh --color-by error --field expbump"),
    ("expbump-16384-plain", "render expbump-16384.mesh"),
    ("mixed-saddle-p1", "run --field mixed-saddle --p 1 --target-n 1024"),
    ("aniso-100-pinf", "run --field aniso-100 --p inf --decision lp-split --target-n 1024"),
    ("aniso-100-pinf-error", "render aniso-100-pinf.mesh --color-by error --p inf "
                             "--field aniso-100"),
    ("aniso-10-4096", "run --field aniso-10 --levels 12"),
    ("aniso-10-4096-sigma", "render aniso-10-4096.mesh --color-by sigma --field aniso-10"),
    ("disk-eta", "run --field disk --eta 1e-4"),
    ("aniso-10-levels", "run --field aniso-10 --initial unit-square --levels 6"),
    ("gauss-ridge-l2-p1", "run --field gauss-ridge --operator l2-projection "
                          "--decision lp-split --target-n 512 --p 1"),
    ("gauss-ridge-l2-p2", "run --field gauss-ridge --operator l2-projection "
                          "--decision lp-split --target-n 512 --p 2"),
    ("gauss-ridge-l2-pinf", "run --field gauss-ridge --operator l2-projection "
                            "--decision lp-split --target-n 512 --p inf"),
    ("converge-expbump", "converge --field expbump --initial unit-square "
                         "--checkpoints 256,1024,4096"),
    ("converge-expbump-off", "converge --field expbump --initial unit-square "
                             "--checkpoints 64,1500,3001"),
    ("converge-disk-pinf", "converge --field disk --p inf --checkpoints 100,1500"),
    ("cap-target", "run --field disk --target-n 8 --node-cap 3"),
    ("cap-levels", "run --field disk --levels 30"),
]
OUTPUTS = {"run": ("mesh", "trace"), "converge": ("csv",), "sigma-study": ("csv",),
           "render": ("svg",)}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="anisomesh-hashes-") as tmp:
        for name, args in COMMANDS:
            argv = args.split()
            outputs = []
            for kind in OUTPUTS[argv[0]]:
                outputs.append(f"{name}.{kind}")
                argv += [f"--{kind}-out", outputs[-1]]
            proc = subprocess.run([sys.executable, "-m", "anisomesh", *argv], cwd=tmp,
                                  capture_output=True)
            print(f"{hashlib.sha256(proc.stdout).hexdigest()}  {name}.stdout")
            for out in outputs:
                path = os.path.join(tmp, out)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        print(f"{hashlib.sha256(fh.read()).hexdigest()}  {out}")
            if proc.returncode:
                print(f"exit {proc.returncode}  {name}: {proc.stderr.decode().strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
