#!/usr/bin/env bash
# Flat profile of one `ssbench pass`, for hosts without perf or valgrind:
#   scripts/profile.sh <workload> [seed]        e.g. scripts/profile.sh fleet_skewed 42
# Builds ssbench with frame pointers into target/profile, preloads a SIGPROF
# sampler (2 ms of CPU per sample, frame-pointer stack walk) and symbolises
# the samples with `nm`. Needs cc, nm and python3. Not part of verify.sh.
# The "libc by caller" table books each sample whose leaf is in libc to the
# first program frame on its stack. libc has no frame pointers, so a leaf
# memmove/memcmp/malloc leaves the walk its caller's frame pointer: the
# sample lands on the caller's caller, one frame above the real call site.
set -euo pipefail
cd "$(dirname "$0")/.."
workload="${1:?usage: scripts/profile.sh <workload> [seed]}"
dir=target/profile
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$dir" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cc -shared -fPIC -O2 -o "$dir/sampler.so" -x c - <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>
#define DEPTH 48
#define CAP (1 << 16)
extern void *__libc_stack_end;
static unsigned long buf[CAP][DEPTH];
static volatile unsigned n;
static void on_prof(int sig, siginfo_t *si, void *ctx) {
  mcontext_t *m = &((ucontext_t *)ctx)->uc_mcontext;
  if (n >= CAP) return;
  unsigned long *s = buf[n++], top = (unsigned long)__libc_stack_end;
#if defined(__x86_64__)
  unsigned long pc = m->gregs[REG_RIP], fp = m->gregs[REG_RBP], sp = m->gregs[REG_RSP];
#else
  unsigned long pc = m->pc, fp = m->regs[29], sp = m->sp;
#endif
  int d = 1;
  s[0] = pc;
  /* Follow saved frame pointers while they stay inside the main stack. */
  while (d < DEPTH && fp >= sp && fp + 16 <= top && !(fp & 7)) {
    unsigned long *f = (unsigned long *)fp;
    if (!f[1]) break;
    s[d++] = f[1] - 1; /* inside the call instruction, not after it */
    if (f[0] <= fp) break;
    fp = f[0];
  }
  if (d < DEPTH) s[d] = 0;
}
static void timer(long us) {
  setitimer(ITIMER_PROF, &(struct itimerval){{0, us}, {0, us}}, 0);
}
__attribute__((constructor)) static void start(void) {
  struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
  sigaction(SIGPROF, &sa, 0);
  timer(2000);
}
__attribute__((destructor)) static void stop(void) {
  timer(0);
  FILE *o = fopen(getenv("PROFILE_OUT"), "w");
  if (!o) return;
  for (struct link_map *l = _r_debug.r_map; l; l = l->l_next)
    fprintf(o, "map %lx %s\n", (unsigned long)l->l_addr, l->l_name);
  for (unsigned i = 0; i < n; i++, fputc('\n', o))
    for (int d = 0; d < DEPTH && buf[i][d]; d++) fprintf(o, "%lx ", buf[i][d]);
  fclose(o);
}
EOF
PROFILE_OUT="$dir/samples.txt" LD_PRELOAD="$PWD/$dir/sampler.so" \
    "$dir/release/ssbench" pass --workload "$workload" --seed "${2:-42}" >/dev/null
python3 - "$dir/samples.txt" "$dir/release/ssbench" <<'EOF'
import bisect, collections, os, re, subprocess, sys
objs, syms, stacks = [], [], []
for line in open(sys.argv[1]):
    if line.startswith("map "):
        _, bias, path = line.rstrip("\n").split(" ", 2)
        objs.append((int(bias, 16), os.path.basename(path)))
    elif line.strip():
        stacks.append([int(x, 16) for x in line.split()])
bias = next(b for b, path in objs if not path)  # the unnamed entry is the program
for row in subprocess.run(["nm", "-C", "--defined-only", sys.argv[2]], capture_output=True, text=True).stdout.splitlines():
    p = row.split(" ", 2)
    if len(p) == 3 and p[1] in "tTwW":
        syms.append((int(p[0], 16) + bias, re.sub(r"::h[0-9a-f]{16}$", "", p[2])))
objs, syms = sorted(objs), sorted(syms)
starts = [a for a, _ in syms]
def name(pc):
    obj = objs[max(bisect.bisect_right(objs, (pc, "~")) - 1, 0)]
    if obj[1]:  # libc's memcpy and malloc internals are not in its .dynsym
        return f"[{obj[1]}]"
    return syms[max(bisect.bisect_right(starts, pc) - 1, 0)][1]
self_, incl, libc = collections.Counter(), collections.Counter(), collections.Counter()
for stack in stacks:
    names = [name(pc) for pc in stack]
    self_[names[0]] += 1
    incl.update(set(names))
    if names[0].startswith("[libc"):
        libc[next((n for n in names if not n.startswith("[")), "[no program frame]")] += 1
total = len(stacks)
print(f"{total} samples, one per 2 ms of CPU; [x.so] = inside that shared object")
for title, table, rows in (("self", self_, 15), ("self + callees", incl, 40), ("libc by caller", libc, 15)):
    print(f"\n  {title:>14}   symbol")
    for sym, count in table.most_common(rows):
        print(f"  {100 * count / total:13.1f}%   {sym}")
EOF
