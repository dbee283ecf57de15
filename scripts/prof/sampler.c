/* sampler.c — a SIGPROF sampling profiler you preload into an unmodified
 * binary, for hosts without `perf`.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so scripts/prof/sampler.c
 *   SAMPLER_OUT=/tmp/prof LD_PRELOAD=./sampler.so <program> <args>
 *   python3 scripts/prof/report.py /tmp/prof.<pid>
 *
 * Every 1 ms of process CPU time (ITIMER_PROF; the kernel rounds that up to
 * its own tick, 4 ms at HZ=250) the kernel interrupts
 * whichever thread is running; the handler records that thread's program
 * counter and walks its frame-pointer chain — every record read through a
 * bounds-checking syscall, never a bare load — into a preallocated buffer:
 * no allocation, no locks, one atomic increment. At exit the buffer is
 * written to $SAMPLER_OUT.<pid> together with /proc/self/maps, which is
 * what report.py needs to turn addresses back into functions.
 *
 * Build the profiled program with frame pointers and debug info, or every
 * stack is one frame deep:
 *   RUSTFLAGS="-C force-frame-pointers=yes -g"
 *
 * x86-64 Linux only (REG_RIP / REG_RBP).
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 18) /* 262 144 samples: 262 s of CPU at 1 ms */
#define MAX_DEPTH 24

struct sample {
    uint32_t depth;
    uintptr_t pc[MAX_DEPTH];
};

static struct sample *samples;
static volatile uint32_t next_sample;
static volatile uint32_t dropped;

static pid_t self_pid;
static int can_walk; /* process_vm_readv works on ourselves */

/* Read one frame record {saved rbp, return address} without trusting `fp`:
 * code built without frame pointers (libc, libm) uses rbp as a plain
 * register, so it may point anywhere. process_vm_readv on our own pid is a
 * bare syscall — async-signal-safe — and answers EFAULT where a load would
 * fault. */
static int read_record(uintptr_t fp, uintptr_t rec[2])
{
    struct iovec local = {rec, 2 * sizeof(uintptr_t)};
    struct iovec remote = {(void *)fp, 2 * sizeof(uintptr_t)};
    return process_vm_readv(self_pid, &local, 1, &remote, 1, 0) == (ssize_t)local.iov_len;
}

static void on_prof(int sig, siginfo_t *info, void *uctx)
{
    (void)sig;
    (void)info;
    uint32_t i = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (i >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    const ucontext_t *uc = uctx;
    struct sample *s = &samples[i];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    uint32_t d = 0;
    s->pc[d++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
    /* A chain of frames climbs the stack: stop at the first record that is
     * below its callee, misaligned, unreadable, or returns into page 0. */
    uintptr_t prev = sp - 8;
    while (can_walk && d < MAX_DEPTH && fp > prev && (fp & 7) == 0) {
        uintptr_t rec[2];
        if (!read_record(fp, rec) || rec[1] < 4096)
            break;
        s->pc[d++] = rec[1];
        prev = fp;
        fp = rec[0];
    }
    s->depth = d;
}

static void dump(void)
{
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);

    uint32_t n = next_sample < MAX_SAMPLES ? next_sample : MAX_SAMPLES;
    if (n == 0)
        return; /* a shell or shim that only exec'd something else */
    /* The kernel rounds the interval up to its tick (4 ms at HZ=250), so
     * report the CPU time the samples actually span. */
    struct timespec cpu = {0, 0};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);

    const char *base = getenv("SAMPLER_OUT");
    char path[4096];
    snprintf(path, sizeof path, "%s.%d", base ? base : "/tmp/sampler", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "# samples %u dropped %u cpu_ms %ld stacks %s\n", n, dropped,
            (long)(cpu.tv_sec * 1000 + cpu.tv_nsec / 1000000),
            can_walk ? "on" : "off (process_vm_readv refused)");
    for (uint32_t i = 0; i < n; i++) {
        /* A handler that was still filling its slot when exit began. */
        if (samples[i].depth == 0)
            continue;
        fputs("S", out);
        for (uint32_t d = 0; d < samples[i].depth; d++)
            fprintf(out, " %lx", (unsigned long)samples[i].pc[d]);
        fputc('\n', out);
    }
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps)) {
            fputs("M ", out);
            fputs(line, out);
        }
        fclose(maps);
    }
    fclose(out);
}

__attribute__((constructor)) static void start(void)
{
    /* Children (cargo, the benchmark's --setup-only runs) inherit the
     * preload and each write a file of their own. */
    samples = calloc(MAX_SAMPLES, sizeof *samples);
    if (!samples)
        return;
    self_pid = getpid();
    uintptr_t probe[2] = {0, 0}, rec[2];
    can_walk = read_record((uintptr_t)probe, rec);
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
