/* syscount.c -- counts and times the futex and sched_yield traffic of a
 * program, for a box with no strace.
 *
 *   gcc -O2 -fPIC -shared -o syscount.so syscount.c -ldl
 *   SYSCOUNT_OUT=/tmp/sys LD_PRELOAD=$PWD/syscount.so gate --workload tatp_mix --trace 0
 *
 * Rust's std parks and unparks threads with libc's `syscall(SYS_futex, ..)`
 * and yields with `sched_yield()`; both are ordinary dynamic symbols, so a
 * preloaded library sees every call. Each is forwarded unchanged and timed
 * around the call (two vDSO clock reads, ~40 ns). The destructor writes
 * $SYSCOUNT_OUT.<pid>.txt -- one file per process, children included.
 *
 * What a line means:
 *   futex_wait   calls that asked to sleep; ns includes the sleep itself
 *   futex_wake   calls that asked to wake; `woke` of them found a sleeper
 *                (returned > 0) -- the rest were a syscall for nothing
 *   sched_yield  yields; ns is time until the thread ran again
 *   other        every other use of libc's syscall()
 */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <linux/futex.h>
#include <stdarg.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

struct tally {
    unsigned long calls, ns;
};
static struct tally waits, wakes, yields, others;
static unsigned long wakes_that_woke;

static long (*real_syscall)(long, ...);
static int (*real_sched_yield)(void);

static unsigned long now_ns(void) {
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (unsigned long)t.tv_sec * 1000000000ul + (unsigned long)t.tv_nsec;
}

static void add(struct tally *t, unsigned long started) {
    __atomic_fetch_add(&t->calls, 1, __ATOMIC_RELAXED);
    __atomic_fetch_add(&t->ns, now_ns() - started, __ATOMIC_RELAXED);
}

__attribute__((constructor)) static void resolve(void) {
    real_syscall = (long (*)(long, ...))dlsym(RTLD_NEXT, "syscall");
    real_sched_yield = (int (*)(void))dlsym(RTLD_NEXT, "sched_yield");
}

long syscall(long number, ...) {
    va_list ap;
    va_start(ap, number);
    long a[6];
    for (int i = 0; i < 6; i++)
        a[i] = va_arg(ap, long);
    va_end(ap);
    if (!real_syscall)
        resolve();

    unsigned long started = now_ns();
    long ret = real_syscall(number, a[0], a[1], a[2], a[3], a[4], a[5]);
    if (number != SYS_futex) {
        add(&others, started);
        return ret;
    }
    switch (a[1] & FUTEX_CMD_MASK) {
    case FUTEX_WAIT:
    case FUTEX_WAIT_BITSET:
        add(&waits, started);
        break;
    case FUTEX_WAKE:
    case FUTEX_WAKE_BITSET:
        add(&wakes, started);
        if (ret > 0)
            __atomic_fetch_add(&wakes_that_woke, 1, __ATOMIC_RELAXED);
        break;
    default:
        add(&others, started);
    }
    return ret;
}

int sched_yield(void) {
    if (!real_sched_yield)
        resolve();
    unsigned long started = now_ns();
    int ret = real_sched_yield();
    add(&yields, started);
    return ret;
}

__attribute__((destructor)) static void report(void) {
    const char *prefix = getenv("SYSCOUNT_OUT");
    char path[512];
    snprintf(path, sizeof path, "%s.%d.txt", prefix ? prefix : "/tmp/syscount", (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "futex_wait  calls %lu ns %lu\n", waits.calls, waits.ns);
    fprintf(out, "futex_wake  calls %lu ns %lu woke %lu\n", wakes.calls, wakes.ns, wakes_that_woke);
    fprintf(out, "sched_yield calls %lu ns %lu\n", yields.calls, yields.ns);
    fprintf(out, "other       calls %lu ns %lu\n", others.calls, others.ns);
    fclose(out);
}
