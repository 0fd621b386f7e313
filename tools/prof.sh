#!/usr/bin/env bash
# Sample where one benchmark workload spends its CPU time, with no perf,
# no PMU and no root.
#
#   tools/prof.sh <workload> [benchmark args...]
#
# Builds a SIGPROF sampler (an LD_PRELOAD shim in C) with the host `cc`,
# runs the already built `benchmark/target/release/benchmark --workload
# <workload> [benchmark args...] --trace 0` under it (build it first with
# `benchmark/run.sh`), and resolves every sample with `addr2line -f -i -C`.
# It prints the share of samples per object (the benchmark binary, libc,
# libm, ...), then the top functions twice: by the innermost frame, which
# names the inlined function the sample sat in, and by the outermost,
# which names the real function that inlined it.
#
# ITIMER_PROF counts user and system time in every thread and asks for a
# sample per 1 ms of it; the kernel checks it once per tick, so a 250 Hz
# kernel takes one per 4 ms. Read the shares, not the counts. A sample
# taken in a system call lands on its libc stub, so libc's share includes
# the kernel's time in those calls. libc resolves to its exported symbols
# only: a sample in an unexported routine (memcpy's variants) takes the
# name of the exported symbol before it.
#
# Everything it writes goes to a directory under $TMPDIR (default /tmp),
# removed on exit; `--trace 0` keeps the benchmark from writing its trace.
set -euo pipefail

[ $# -ge 1 ] || {
    echo "usage: tools/prof.sh <workload> [benchmark args...]" >&2
    exit 2
}
workload="$1"
shift
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
bin="$repo/benchmark/target/release/benchmark"
[ -x "$bin" ] || {
    echo "no $bin: build it first (benchmark/run.sh --workload $workload --smoke)" >&2
    exit 2
}

work="$(mktemp -d "${TMPDIR:-/tmp}/prof.XXXXXX")"
trap 'rm -rf "$work"' EXIT

cat >"$work/shim.c" <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1 << 21)
static void *samples[MAX_SAMPLES];
static long taken;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = (void *)((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

/* One line per sample, "object offset", on fd 9. */
__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fdopen(9, "w");
    if (!out)
        return;
    long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (long i = 0; i < n; i++) {
        Dl_info d;
        if (dladdr(samples[i], &d) && d.dli_fname)
            fprintf(out, "%s %lx\n", d.dli_fname, (unsigned long)((char *)samples[i] - (char *)d.dli_fbase));
        else
            fprintf(out, "? %lx\n", (unsigned long)samples[i]);
    }
    fclose(out);
}
EOF
cc -O2 -shared -fPIC -o "$work/shim.so" "$work/shim.c" -ldl

# Only the top-level process is sampled: `--workload` runs in one.
LD_PRELOAD="$work/shim.so" "$bin" --workload "$workload" "$@" --trace 0 \
    9>"$work/samples" >&2

python3 - "$work" "$bin" <<'EOF'
import collections, os, subprocess, sys

work, main_bin = sys.argv[1], sys.argv[2]
samples = collections.Counter()
with open(os.path.join(work, "samples")) as f:
    for line in f:
        obj, off = line.split()
        # dladdr names the main program by argv[0] or not at all.
        if obj in ("", main_bin) or os.path.basename(obj) == "benchmark":
            obj = main_bin
        samples[(obj, int(off, 16))] += 1
total = sum(samples.values())
if total == 0:
    sys.exit("prof: no samples")

inner, outer, by_obj = collections.Counter(), collections.Counter(), collections.Counter()
objects = sorted({obj for obj, _ in samples})
for obj in objects:
    name = os.path.basename(obj)
    offsets = sorted(off for o, off in samples if o == obj)
    by_obj[name] += sum(samples[(obj, off)] for off in offsets)
    if not os.path.isfile(obj):
        for off in offsets:
            inner[f"[{name}]"] += samples[(obj, off)]
            outer[f"[{name}]"] += samples[(obj, off)]
        continue
    # -a starts each address's record with the address itself; -i lists
    # its frames innermost first, a function name then a location each.
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", obj],
        input="".join(f"{off:x}\n" for off in offsets),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    records = []
    for line in out:
        if line.startswith("0x"):
            records.append([])
        else:
            records[-1].append(line)
    for off, lines in zip(offsets, records):
        names = lines[0::2] or ["??"]
        n = samples[(obj, off)]
        tag = "" if obj == main_bin else f" [{name}]"
        inner[names[0] + tag] += n
        outer[names[-1] + tag] += n

def table(title, counter, rows):
    print(f"\n{title}")
    print("| share | samples | name |")
    print("|------:|--------:|------|")
    for name, n in counter.most_common(rows):
        print(f"| {100 * n / total:5.1f} % | {n} | `{name}` |")

print(f"prof: {total} samples of CPU time (user + system, all threads)")
table("by object (a libc share includes the kernel's time in system calls)", by_obj, 10)
table("by function, innermost frame (the inlined function)", inner, 25)
table("by function, outermost frame (the function that inlined it)", outer, 25)
EOF
