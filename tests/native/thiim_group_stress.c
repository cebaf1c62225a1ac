/* Stress driver for the THIIM kernel's helper group, built with a
 * sanitizer by tests/test_native_drivers.py:
 *
 *     cc -fsanitize=thread -O1 -g -ffp-contract=off \
 *        tests/native/thiim_group_stress.c -o stress -pthread -lm
 *
 * THREADS pthreads send random op streams over their own small grids --
 * stream windows (one at a time may borrow the group; the others' calls
 * stay immediate), immediate calls, boxes at a lowered split gate, and
 * refused boxes -- and hold every result to a serial pass of the same ops
 * on a second copy of the arrays, as raw bytes.  The main thread forks
 * once mid-window: the child, with no helpers, queue or window, runs its
 * own ops split on the caller alone against the same serial pass.  Exit
 * status 0 when every result matched. */
#include "../../src/repro/fdfd/_thiim_kernel.c"

#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <unistd.h>

#define THREADS 4
#define ROUNDS 60
#define OPS 24
#define FIELDS 4

typedef struct {
    uint64_t rng;
    int64_t n[3], lanes, doubles;
    double *f[2][FIELDS]; /* [0] through thiim_update, [1] the serial pass */
    double *coef[3];      /* t, c, src: full layout, read through strides */
    int failed;
} world;

static uint64_t next(world *w)
{
    w->rng ^= w->rng << 13;
    w->rng ^= w->rng >> 7;
    w->rng ^= w->rng << 17;
    return w->rng;
}

static int64_t below(world *w, int64_t n)
{
    return (int64_t)(next(w) % (uint64_t)n);
}

static double *random_array(world *w, int64_t doubles)
{
    double *a = malloc(doubles * sizeof *a);
    for (int64_t i = 0; i < doubles; i++)
        a[i] = (double)below(w, 2001) / 1000.0 - 1.0;
    return a;
}

static void make_world(world *w, uint64_t seed)
{
    memset(w, 0, sizeof *w);
    w->rng = seed * 0x9e3779b97f4a7c15ULL | 1;
    for (int ax = 0; ax < 3; ax++)
        w->n[ax] = 3 + below(w, 6);
    w->lanes = 1 + below(w, 2);
    w->doubles = 2 * w->lanes * w->n[0] * w->n[1] * w->n[2];
    for (int i = 0; i < FIELDS; i++) {
        w->f[0][i] = random_array(w, w->doubles);
        w->f[1][i] = malloc(w->doubles * sizeof(double));
        memcpy(w->f[1][i], w->f[0][i], w->doubles * sizeof(double));
    }
    for (int i = 0; i < 3; i++)
        w->coef[i] = random_array(w, w->doubles);
}

static void free_world(world *w)
{
    for (int i = 0; i < FIELDS; i++) {
        free(w->f[0][i]);
        free(w->f[1][i]);
    }
    for (int i = 0; i < 3; i++)
        free(w->coef[i]);
}

/* A random op over copy `side` (the two copies' ops differ only there)
 * and a random box; whether thiim_update must accept it. */
static int random_op(world *w, thiim_op ops[2], int64_t box[6])
{
    const int64_t fi = below(w, FIELDS), axis = below(w, 3);
    const int64_t periodic = below(w, 2), shift = below(w, 2) ? 1 : -1;
    const int has_src = (int)below(w, 2);
    int64_t cs[4] = {2 * w->n[0] * w->n[1] * w->n[2], 2 * w->n[1] * w->n[2],
                     2 * w->n[2], 2};
    for (int i = 0; i < 4; i++)
        if (below(w, 3) == 0)
            cs[i] = 0; /* a broadcast axis */
    for (int side = 0; side < 2; side++) {
        thiim_op *op = &ops[side];
        op->f = w->f[side][fi];
        op->a = w->f[side][(fi + 1) % FIELDS];
        op->b = w->f[side][(fi + 2) % FIELDS];
        op->t = w->coef[0];
        op->c = w->coef[1];
        op->src = has_src ? w->coef[2] : 0;
        memcpy(op->n, w->n, sizeof op->n);
        op->lanes = w->lanes;
        op->axis = axis;
        op->shift = shift;
        op->periodic = periodic;
        memcpy(op->cs, cs, sizeof op->cs);
    }
    int ok = 1;
    for (int ax = 0; ax < 3; ax++) {
        int64_t lo = below(w, w->n[ax]), hi = lo + 1 + below(w, w->n[ax] - lo);
        if (below(w, 16) == 0)
            hi = w->n[ax] + 1; /* leaves the grid: refused */
        box[2 * ax] = lo;
        box[2 * ax + 1] = hi;
        ok &= hi <= w->n[ax];
        if (ax == axis && !periodic)
            ok &= lo + shift >= 0 && hi + shift <= w->n[ax];
    }
    return ok;
}

/* One op through thiim_update on copy 0 and serial on copy 1. */
static void one_op(world *w)
{
    thiim_op ops[2];
    int64_t box[6];
    const int ok = random_op(w, ops, box);
    if (thiim_update(&ops[0], box) != (ok ? 0 : -1)) {
        fprintf(stderr, "box accepted or refused wrongly\n");
        w->failed = 1;
    }
    if (ok)
        run_rows(&ops[1], box, 0, ops[1].lanes * (box[1] - box[0]) * (box[3] - box[2]));
}

static void check(world *w, const char *where)
{
    for (int i = 0; i < FIELDS; i++)
        if (memcmp(w->f[0][i], w->f[1][i], w->doubles * sizeof(double))) {
            fprintf(stderr, "%s: field %d differs from the serial pass\n", where, i);
            w->failed = 1;
        }
}

/* Rounds of OPS ops: immediate, in a window, or in a window drained
 * halfway; each round's result is checked once its window closed. */
static void *sender(void *arg)
{
    world *w = arg;
    for (int r = 0; r < ROUNDS; r++) {
        const int64_t mode = below(w, 3);
        const int open = mode && thiim_open();
        for (int i = 0; i < OPS; i++) {
            one_op(w);
            if (mode == 2 && i == OPS / 2)
                thiim_drain();
        }
        if (open)
            thiim_close();
        check(w, "thread");
    }
    return 0;
}

/* The child of a fork mid-window: no helpers, window or borrower; boxes
 * split four ways run on the caller alone. */
static int child(void)
{
    world w;
    make_world(&w, 99);
    if (thiim_helper_cap || atomic_load(&thiim_borrowed) || thiim_open()) {
        fprintf(stderr, "child: the group survived the fork\n");
        return 1;
    }
    thiim_split_min = 0;
    thiim_helper_cap = 3;
    for (int i = 0; i < OPS; i++)
        one_op(&w);
    check(&w, "child");
    return w.failed;
}

static int phase(int gate, int cap, int ring, int fork_mid_window)
{
    thiim_split_min = gate;
    thiim_helper_cap = cap;
    thiim_ring_cap = ring;
    world mine, worlds[THREADS];
    make_world(&mine, 1000 + gate + cap + ring);
    const int open = thiim_open();
    for (int i = 0; i < OPS; i++)
        one_op(&mine);
    pthread_t threads[THREADS];
    for (int i = 0; i < THREADS; i++) {
        make_world(&worlds[i], 1 + i + 10 * (gate + cap + ring));
        pthread_create(&threads[i], 0, sender, &worlds[i]);
    }
    pid_t pid = fork_mid_window ? fork() : -1;
    if (pid == 0)
        _exit(child());
    for (int i = 0; i < OPS; i++)
        one_op(&mine);
    if (open)
        thiim_close();
    check(&mine, "main");
    int failed = mine.failed;
    for (int i = 0; i < THREADS; i++) {
        pthread_join(threads[i], 0);
        failed |= worlds[i].failed;
        free_world(&worlds[i]);
    }
    free_world(&mine);
    if (pid > 0) {
        int status;
        waitpid(pid, &status, 0);
        failed |= !WIFEXITED(status) || WEXITSTATUS(status);
    }
    return failed;
}

int main(void)
{
    const int helpers = thiim_start();
    /* As kernels.py's probe does: the first update, alone, settles the
     * multiply form before any other thread calls. */
    world w;
    make_world(&w, 7);
    one_op(&w);
    free_world(&w);
    int failed = 0;
    failed |= phase(16384, helpers, 256, 1);
    failed |= phase(64, helpers, 3, 0);
    failed |= phase(0, helpers + 2, 1, 0);
    printf("helpers %d, queued jobs run %lld, parts helpers ran %lld: %s\n", helpers,
           (long long)thiim_stream_ops, (long long)thiim_helper_parts,
           failed ? "FAILED" : "ok");
    return failed;
}
