/* sigprof.c -- a sampling CPU profiler for a box with no perf.
 *
 *   gcc -O2 -fPIC -shared -o sigprof.so sigprof.c
 *   SIGPROF_OUT=/tmp/prof LD_PRELOAD=$PWD/sigprof.so gate --workload tatp_mix --trace 0
 *
 * The constructor arms ITIMER_PROF at 1 kHz of *process* CPU time; the
 * kernel delivers each SIGPROF to a thread that is running, so samples
 * fall on threads in proportion to the CPU they burn. The handler stores
 * backtrace() into a fixed buffer; the destructor writes
 * $SIGPROF_OUT.<pid>.samples (one line of hex return addresses per sample,
 * innermost first) and $SIGPROF_OUT.<pid>.maps (a copy of /proc/self/maps,
 * which sym.py needs to undo ASLR). LD_PRELOAD is inherited, so every
 * child the program spawns writes its own pair of files.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 18) /* 262 s of CPU at 1 kHz */
#define MAX_DEPTH 24
/* Frames 0 and 1 are the handler and the kernel's signal trampoline. */
#define SKIP 2

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static unsigned char depths[MAX_SAMPLES];
static volatile int next_sample;

static void on_sigprof(int sig) {
    (void)sig;
    int slot = __atomic_fetch_add(&next_sample, 1, __ATOMIC_RELAXED);
    if (slot < MAX_SAMPLES)
        depths[slot] = (unsigned char)backtrace(frames[slot], MAX_DEPTH);
}

static const char *out_prefix(void) {
    const char *p = getenv("SIGPROF_OUT");
    return p ? p : "/tmp/sigprof";
}

__attribute__((constructor)) static void arm(void) {
    /* The first backtrace() loads libgcc and may allocate: do it here,
     * not in the handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval tick = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tick, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);

    char path[512];
    snprintf(path, sizeof path, "%s.%d.samples", out_prefix(), (int)getpid());
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    int n = next_sample < MAX_SAMPLES ? next_sample : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        for (int d = SKIP; d < depths[i]; d++)
            fprintf(out, "%lx ", (unsigned long)frames[i][d]);
        fputc('\n', out);
    }
    fclose(out);

    snprintf(path, sizeof path, "%s.%d.maps", out_prefix(), (int)getpid());
    FILE *maps_in = fopen("/proc/self/maps", "r"), *maps_out = fopen(path, "w");
    if (maps_in && maps_out) {
        char line[1024];
        while (fgets(line, sizeof line, maps_in))
            fputs(line, maps_out);
    }
    if (maps_in)
        fclose(maps_in);
    if (maps_out)
        fclose(maps_out);
}
