"""Child process timed by `setup_s`: import `posp`, set up one workload, and
print `ready`.  The parent times from before it starts this process to the
`ready` line, so interpreter start-up and `import posp` are included.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys

import paths

if __name__ == "__main__":
    if not paths.checkout_ready():
        sys.exit(2)
    import workloads

    workloads.setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
