#!/usr/bin/env bash
# Flat profile of one `ssbench pass`, for hosts without perf or valgrind:
#   scripts/profile.sh <workload> [seed]        e.g. scripts/profile.sh fleet_skewed 42
# Builds ssbench with frame pointers into target/profile, preloads a SIGPROF
# sampler (2 ms of CPU per sample, frame-pointer stack walk) and symbolises
# the samples with `nm` and `addr2line`. Needs cc, nm, addr2line and
# python3. Not part of verify.sh.
# The "libc by caller" table books each sample whose leaf is in libc to the
# first program frame on its stack. libc has no frame pointers, so a leaf
# memmove/memcmp/malloc leaves the walk its caller's frame pointer: the
# sample lands on the caller's caller, one frame above the real call site.
# The "callers" table splits each of the top 5 self-time symbols by the
# first program frame outside its module (its first two path segments), so
# a std container's search is booked to the lookup that ran it.
# A second, unsampled pass preloads a shim that wraps memcpy and memcmp and
# books every call to the symbol holding its return address, the real call
# site: the "libc calls by caller" table, in millions of calls, with memcpy
# split by size (<= 32, <= 128, > 128 bytes).
# A third pass preloads a shim that wraps malloc and realloc, samples one
# call in 8, walks its frame pointers and books it to the first program
# frame outside alloc, core and std: the "heap calls by caller" table, in
# thousands of calls (sampled counts times 8). A heap call's return
# address is always inside alloc's raw_vec or box code, so only the walk
# finds who asked for the memory.
# The last table, "lines", books each sample whose leaf is program code to
# the innermost inlined function at that PC and its file:line (`addr2line
# -f -i -C`): at function level an inlined callee's time reads as its
# caller's self time, so a move or a copy inside a hot function shows here.
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
cc -shared -fPIC -O2 -o "$dir/calls.so" -x c - -ldl <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <stdio.h>
#include <stdlib.h>
#define CAP (1 << 14)
/* Per call site: memcpy calls of <= 32, <= 128 and > 128 bytes; memcmp calls. */
static struct { unsigned long site, n[4]; } table[CAP];
static void book(unsigned long site, int class) {
  unsigned long i = (site * 0x9E3779B97F4A7C15ul) >> 50;
  for (;; i = (i + 1) & (CAP - 1)) {
    unsigned long seen = __atomic_load_n(&table[i].site, __ATOMIC_ACQUIRE);
    if (!seen && __atomic_compare_exchange_n(&table[i].site, &seen, site, 0,
                                             __ATOMIC_ACQ_REL, __ATOMIC_ACQUIRE))
      seen = site;
    if (seen == site) {
      __atomic_fetch_add(&table[i].n[class], 1, __ATOMIC_RELAXED);
      return;
    }
  }
}
/* libc's internal calls bind inside libc: only the program's reach these. */
void *memcpy(void *d, const void *s, size_t n) {
  static void *(*real)(void *, const void *, size_t);
  if (!real) real = dlsym(RTLD_NEXT, "memcpy");
  book((unsigned long)__builtin_return_address(0) - 1, n <= 32 ? 0 : n <= 128 ? 1 : 2);
  return real(d, s, n);
}
int memcmp(const void *a, const void *b, size_t n) {
  static int (*real)(const void *, const void *, size_t);
  if (!real) real = dlsym(RTLD_NEXT, "memcmp");
  book((unsigned long)__builtin_return_address(0) - 1, 3);
  return real(a, b, n);
}
__attribute__((destructor)) static void stop(void) {
  FILE *o = fopen(getenv("CALLS_OUT"), "w");
  if (!o) return;
  for (struct link_map *l = _r_debug.r_map; l; l = l->l_next)
    fprintf(o, "map %lx %s\n", (unsigned long)l->l_addr, l->l_name);
  for (unsigned i = 0; i < CAP; i++)
    if (table[i].site)
      fprintf(o, "%lx %lu %lu %lu %lu\n", table[i].site, table[i].n[0], table[i].n[1],
              table[i].n[2], table[i].n[3]);
  fclose(o);
}
EOF
cc -shared -fPIC -O2 -fno-omit-frame-pointer -o "$dir/heap.so" -x c - <<'EOF'
#define _GNU_SOURCE
#include <link.h>
#include <stdio.h>
#include <stdlib.h>
#define DEPTH 24
#define CAP (1 << 14)
#define EVERY 8
extern void *__libc_stack_end;
extern void *__libc_malloc(size_t);
extern void *__libc_realloc(void *, size_t);
/* One row per distinct (kind, stack); kind 0 is malloc, 1 is realloc. */
static struct { unsigned long n, kind, pc[DEPTH]; } table[CAP];
static unsigned long calls, lost;
static char busy;
static void book(unsigned long kind) {
  if (__atomic_fetch_add(&calls, 1, __ATOMIC_RELAXED) % EVERY) return;
  unsigned long pc[DEPTH] = {0}, h = kind, top = (unsigned long)__libc_stack_end;
  unsigned long fp = (unsigned long)__builtin_frame_address(0), sp = (unsigned long)pc;
  /* Follow saved frame pointers while they stay inside the main stack. */
  for (int d = 0; d < DEPTH && fp >= sp && fp + 16 <= top && !(fp & 7); d++) {
    unsigned long *f = (unsigned long *)fp;
    if (!f[1]) break;
    pc[d] = f[1] - 1; /* inside the call instruction, not after it */
    h = (h ^ pc[d]) * 0x100000001B3ul;
    if (f[0] <= fp) break;
    fp = f[0];
  }
  while (__atomic_test_and_set(&busy, __ATOMIC_ACQUIRE)) {}
  unsigned long i = h & (CAP - 1), probes = 0;
  for (; probes < CAP; i = (i + 1) & (CAP - 1), probes++) {
    int same = table[i].n && table[i].kind == kind;
    for (int d = 0; same && d < DEPTH; d++) same = table[i].pc[d] == pc[d];
    if (same || !table[i].n) break;
  }
  if (probes == CAP) {
    lost++;
  } else {
    if (!table[i].n)
      for (int d = 0; d < DEPTH; d++) table[i].pc[d] = pc[d];
    table[i].kind = kind;
    table[i].n++;
  }
  __atomic_clear(&busy, __ATOMIC_RELEASE);
}
/* The walk allocates nothing, so the real functions never re-enter it. */
void *malloc(size_t n) {
  book(0);
  return __libc_malloc(n);
}
void *realloc(void *p, size_t n) {
  book(1);
  return __libc_realloc(p, n);
}
__attribute__((destructor)) static void stop(void) {
  FILE *o = fopen(getenv("HEAP_OUT"), "w");
  if (!o) return;
  for (struct link_map *l = _r_debug.r_map; l; l = l->l_next)
    fprintf(o, "map %lx %s\n", (unsigned long)l->l_addr, l->l_name);
  fprintf(o, "calls %lu every %d lost %lu\n", calls, EVERY, lost);
  for (unsigned i = 0; i < CAP; i++) {
    if (!table[i].n) continue;
    fprintf(o, "%lu %lu", table[i].kind, table[i].n);
    for (int d = 0; d < DEPTH && table[i].pc[d]; d++) fprintf(o, " %lx", table[i].pc[d]);
    fputc('\n', o);
  }
  fclose(o);
}
EOF
pass=("$dir/release/ssbench" pass --workload "$workload" --seed "${2:-42}")
PROFILE_OUT="$dir/samples.txt" LD_PRELOAD="$PWD/$dir/sampler.so" "${pass[@]}" >/dev/null
CALLS_OUT="$dir/calls.txt" LD_PRELOAD="$PWD/$dir/calls.so" "${pass[@]}" >/dev/null
HEAP_OUT="$dir/heap.txt" LD_PRELOAD="$PWD/$dir/heap.so" "${pass[@]}" >/dev/null
python3 - "$dir/samples.txt" "$dir/calls.txt" "$dir/release/ssbench" "$dir/heap.txt" <<'EOF'
import bisect, collections, os, re, subprocess, sys
syms = []
for row in subprocess.run(["nm", "-C", "--defined-only", sys.argv[3]], capture_output=True, text=True).stdout.splitlines():
    p = row.split(" ", 2)
    if len(p) == 3 and p[1] in "tTwW":
        syms.append((int(p[0], 16), re.sub(r"::h[0-9a-f]{16}$", "", p[2])))
syms.sort()
starts = [a for a, _ in syms]
def load(path):
    """The run's load map, as a function naming an address, and its other lines."""
    objs, rows = [], []
    for line in open(path):
        if line.startswith("map "):
            _, base, obj = line.rstrip("\n").split(" ", 2)
            objs.append((int(base, 16), os.path.basename(obj)))
        elif line.strip():
            rows.append(line.split())
    objs.sort()
    bias = next(b for b, obj in objs if not obj)  # the unnamed entry is the program
    def name(pc):
        obj = objs[max(bisect.bisect_right(objs, (pc, "~")) - 1, 0)]
        if obj[1]:  # libc's memcpy and malloc internals are not in its .dynsym
            return f"[{obj[1]}]"
        return syms[max(bisect.bisect_right(starts, pc - bias) - 1, 0)][1]
    return name, rows, bias
name, rows, bias = load(sys.argv[1])
stacks = [[name(int(x, 16)) for x in row] for row in rows]
leaves = collections.Counter(int(row[0], 16) for row in rows)
self_, incl, libc = collections.Counter(), collections.Counter(), collections.Counter()
for names in stacks:
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
def module(sym):
    """A symbol's first two path segments: `simnet::wheel`, `alloc::collections`."""
    m = re.search(r"[A-Za-z_]\w*(::[A-Za-z_]\w*)?", re.sub(r"^<(impl )?", "", sym))
    return m.group(0) if m else sym
callers = {sym: collections.Counter() for sym, _ in self_.most_common(5)}
for names in stacks:
    if names[0] in callers:
        home = module(names[0])
        outside = (n for n in names[1:] if not n.startswith("[") and module(n) != home)
        callers[names[0]][next(outside, "[no caller outside its module]")] += 1
print("\n  callers of the top 5 self symbols: the first program frame outside the symbol's module")
for sym, table in callers.items():
    print(f"  {100 * self_[sym] / total:13.1f}%   {sym}")
    for caller, count in table.most_common(5):
        print(f"  {100 * count / total:17.1f}%   {caller}")
pcs = [pc for pc in leaves if not name(pc).startswith("[")]
a2l = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", sys.argv[3]],
                     input="\n".join(f"{pc - bias:x}" for pc in pcs), capture_output=True, text=True)
records = []  # per PC, its inline chain from the innermost frame out: (function, file:line)
for row in a2l.stdout.splitlines():
    if row.startswith("0x"):
        records.append([])
    else:
        records[-1].append(row)
def frame(func, place):
    """A frame as `function  file:line`, paths cut to their crate or std library."""
    place = re.sub(r".*/(crates|library)/", "", place.split(" (discriminator")[0])
    return f"{re.sub(r'::h[0-9a-f]{16}$', '', func)}  {place}"
lines = collections.Counter()
for pc, rec in zip(pcs, records):
    chain = list(zip(rec[0::2], rec[1::2]))
    # A std frame is named with the program frame it was inlined into.
    home = next(((f, p) for f, p in chain if "/crates/" in p), None)
    where = frame(*chain[0]) + (f"  in {frame(*home)}" if home and home != chain[0] else "")
    lines[where] += leaves[pc]
name, rows, _ = load(sys.argv[2])
calls = collections.defaultdict(lambda: [0, 0, 0, 0])
for site, *counts in rows:
    booked = calls[name(int(site, 16))]
    for i, n in enumerate(counts):
        booked[i] += int(n)
calls = sorted(calls.items(), key=lambda kv: -sum(kv[1]))
sums = [sum(c[i] for _, c in calls) for i in range(4)]
print("\n  libc calls by caller, millions (a separate, unsampled pass)")
print("  memcpy<=32  <=128   >128  memcmp   symbol")
for sym, c in [("total", sums)] + calls[:15]:
    print("  " + " ".join(f"{n / 1e6:{w}.2f}" for n, w in zip(c, (10, 6, 6, 7))) + f"   {sym}")
name, rows, _ = load(sys.argv[4])
_, total_calls, _, every, _, lost = next(r for r in rows if r[0] == "calls")
every = int(every)
def asker(sym):
    """Whether `sym` is program code rather than libc, the shim or alloc/core/std."""
    return not sym.startswith(("[", "__r")) and module(sym).split("::")[0] not in ("alloc", "core", "std")
heap = collections.defaultdict(lambda: [0, 0])
for kind, n, *pcs in (r for r in rows if r[0] != "calls"):
    names = (name(int(pc, 16)) for pc in pcs)
    heap[next((x for x in names if asker(x)), "[no program frame]")][int(kind)] += int(n) * every
heap = sorted(heap.items(), key=lambda kv: -sum(kv[1]))
sums = [sum(c[i] for _, c in heap) for i in range(2)]
print(f"\n  heap calls by caller, thousands (1 in {every} sampled; {int(total_calls) / 1e6:.2f} M calls, {lost} samples lost)")
print("    malloc  realloc   symbol")
for sym, c in [("total", sums)] + heap[:15]:
    print("  " + " ".join(f"{n / 1e3:{w}.1f}" for n, w in zip(c, (8, 8))) + f"   {sym}")
print("\n  lines: each program leaf booked to its innermost inlined function and file:line,")
print("  and a std function to the innermost program function it was inlined into")
for where, count in lines.most_common(25):
    print(f"  {100 * count / total:13.1f}%   {where}")
EOF
