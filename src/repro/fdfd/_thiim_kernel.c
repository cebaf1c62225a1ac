/* One THIIM component update over a (z, y, x) box, all lanes of a stack:
 *
 *     F = t * ((A' + B') - (A + B)) + c * F (+ src)          (H: far - near)
 *     F = t * ((A + B) - (A' + B')) + c * F (+ src)          (E: near - far)
 *
 * where X' is X displaced by `shift` (+1 / -1) along the derivative axis,
 * wrapping on a periodic axis.  It is the compiled twin of the NumPy body
 * in kernels.py and must round exactly as that does, operation for
 * operation: compile with -ffp-contract=off so that nothing fuses except
 * the fma() calls and fmaddsub instructions spelled out below.  NumPy's
 * SIMD complex multiply computes re = fma(ar, br, -(ai*bi)),
 * im = fma(ar, bi, ai*br) on a CPU with FMA (the fused form) and the plain
 * four-multiply form on one without.  kernels.py compares this pass with
 * NumPy bit for bit before it trusts it.
 *
 * Three bodies compute a row: the vector body (x86 with AVX2 and FMA,
 * fused form: two complex numbers per 256-bit vector), and the scalar
 * row() in the fused form (hardware or libm fma, both correctly rounded)
 * or the plain one.  The vector body leaves a row's odd last cell and the
 * one cell a periodic x axis wraps to the scalar fused row.  All three run
 * under one box walker.
 *
 * Arrays are C-contiguous complex128, addressed as interleaved doubles:
 * the fields of shape (lanes,) + n, the coefficients t, c and src of one
 * shape that broadcasts to it, read through the strides cs (0 on a
 * broadcast axis, so one stored value serves the whole axis).
 *
 * The process-wide helper group (thiim_start) runs one queue of jobs that
 * every thread claims parts from, the caller included, one job at a time
 * in submission order.  A box of at least `thiim_split_min` cells x lanes
 * is a job of several parts: its flattened (lane, z, y) rows cut into
 * contiguous ranges, z before y.  Between thiim_open and thiim_close a
 * caller streams its boxes: each is checked, copied by value into the
 * queue, and the caller goes on to its next call while a box below the
 * gate, a one-part job, runs; a big box waits for the queue to empty.
 * A caller that waits claims parts too.  Every cell runs the same
 * instructions on whichever thread takes its row, after every op queued
 * before it, so split and streamed passes are bit-identical to serial,
 * immediate ones.
 */
#define _GNU_SOURCE
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdalign.h>
#include <stdatomic.h>
#include <stdint.h>
#include <time.h>

typedef struct {
    double *f;                  /* updated in place */
    const double *a, *b;        /* the driving pair (never aliases f) */
    const double *t, *c, *src;  /* coefficients; src may be NULL */
    int64_t n[3];               /* grid extents (z, y, x) */
    int64_t lanes;
    int64_t axis, shift;        /* derivative axis, far-read shift (+1 / -1) */
    int64_t periodic;           /* whether the far read wraps on `axis` */
    int64_t cs[4];              /* lane/z/y/x strides of t, c, src in doubles;
                                   0 on a broadcast axis, x: 0 or 2 */
} thiim_op;

/* Multiply form: 1 fused (the form above), 0 plain, -1 not yet asked of
 * the CPU.  Exported so a test can force the form NumPy does not use. */
int thiim_fused = -1;
/* The body of the fused form: 1 the vector body, 0 the scalar body with
 * the CPU's fma instruction (either only where the CPU has AVX2 and FMA),
 * -1 the scalar body with libm's fma, as a CPU without them runs it.
 * Exported so that a test can hold the bodies to each other. */
int thiim_vector = 1;
/* Whether the CPU has AVX2 and FMA (-1: not yet asked). */
static int has_fma = -1;

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define VECTOR_BODY
#define FMA_TARGET __attribute__((target("avx2,fma")))
#define CPU_HAS_FMA() (__builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2"))
#elif defined(__FP_FAST_FMA)
#define CPU_HAS_FMA() 1
#else
#define CPU_HAS_FMA() 0
#endif

#define INLINE static inline __attribute__((always_inline))

/* `cells` consecutive cells of one x row; fa / fb are a / b at the far
 * read, t / c / s advance along x only when `xstep` (else one value
 * serves the row).  Adds and subtracts follow update_component's order.
 * Inlined with constant `s == 0`, `far_minus_near`, `fused` and `xstep`,
 * so that the loop body is branch-free. */
INLINE void row(double *restrict f, const double *a, const double *b,
                const double *fa, const double *fb, const double *t,
                const double *c, const double *s, int64_t cells,
                int far_minus_near, int fused, int xstep)
{
    for (int64_t i = 0; i < 2 * cells; i += 2) {
        const int64_t k = xstep ? i : 0;
        double nr = a[i] + b[i], ni = a[i + 1] + b[i + 1];
        double fr = fa[i] + fb[i], fi = fa[i + 1] + fb[i + 1];
        double dr = far_minus_near ? fr - nr : nr - fr;
        double di = far_minus_near ? fi - ni : ni - fi;
        double tr = t[k], ti = t[k + 1], cr = c[k], ci = c[k + 1];
        double gr = f[i], gi = f[i + 1], re, im, pr, pi;
        if (fused) {
            re = __builtin_fma(tr, dr, -(ti * di));
            im = __builtin_fma(tr, di, ti * dr);
            pr = __builtin_fma(cr, gr, -(ci * gi));
            pi = __builtin_fma(cr, gi, ci * gr);
        } else {
            re = tr * dr - ti * di;
            im = tr * di + ti * dr;
            pr = cr * gr - ci * gi;
            pi = cr * gi + ci * gr;
        }
        re += pr;
        im += pi;
        if (s) {
            re += s[k];
            im += s[k + 1];
        }
        f[i] = re;
        f[i + 1] = im;
    }
}

/* A body's row: row() itself, or row_vector. */
typedef void row_fn(double *restrict f, const double *a, const double *b,
                    const double *fa, const double *fb, const double *t,
                    const double *c, const double *s, int64_t cells,
                    int far_minus_near, int fused, int xstep);

#ifdef VECTOR_BODY
/* x * y for the two complex numbers (re, im, re, im) of each vector:
 * fmaddsub(dup(xr), y, dup(xi) * swap(y)) is re = fma(xr, yr, -(xi*yi))
 * and im = fma(xr, yi, xi*yr), each rounded once -- the fused form. */
FMA_TARGET INLINE __m256d cmul(__m256d x, __m256d y)
{
    return _mm256_fmaddsub_pd(_mm256_movedup_pd(x), y,
                              _mm256_mul_pd(_mm256_permute_pd(x, 0xf),
                                            _mm256_permute_pd(y, 0x5)));
}

/* row() in the fused form, two cells per step; an odd last cell goes to
 * row().  `fused` is 1. */
FMA_TARGET INLINE void row_vector(double *restrict f, const double *a,
                                  const double *b, const double *fa,
                                  const double *fb, const double *t,
                                  const double *c, const double *s,
                                  int64_t cells, int far_minus_near, int fused,
                                  int xstep)
{
    const int64_t pairs = 4 * (cells / 2);
    /* One value serves the row unless `xstep` (then one is read per step:
     * a row of no cells reads none). */
    const __m256d zero = _mm256_setzero_pd();
    __m256d tv = xstep ? zero : _mm256_broadcast_pd((const __m128d *)t);
    __m256d cv = xstep ? zero : _mm256_broadcast_pd((const __m128d *)c);
    __m256d sv = xstep || !s ? zero : _mm256_broadcast_pd((const __m128d *)s);
    for (int64_t i = 0; i < pairs; i += 4) {
        const __m256d near = _mm256_add_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
        const __m256d far = _mm256_add_pd(_mm256_loadu_pd(fa + i), _mm256_loadu_pd(fb + i));
        const __m256d d = far_minus_near ? _mm256_sub_pd(far, near) : _mm256_sub_pd(near, far);
        if (xstep) {
            tv = _mm256_loadu_pd(t + i);
            cv = _mm256_loadu_pd(c + i);
            if (s)
                sv = _mm256_loadu_pd(s + i);
        }
        __m256d r = _mm256_add_pd(cmul(tv, d), cmul(cv, _mm256_loadu_pd(f + i)));
        if (s)
            r = _mm256_add_pd(r, sv);
        _mm256_storeu_pd(f + i, r);
    }
    const int64_t k = xstep ? pairs : 0;
    row(f + pairs, a + pairs, b + pairs, fa + pairs, fb + pairs, t + k, c + k,
        s ? s + k : 0, cells % 2, far_minus_near, fused, xstep);
}
#endif

/* `i` moved back into [0, n) across at most one edge. */
INLINE int64_t wrap(int64_t i, int64_t n)
{
    return i < 0 ? i + n : i >= n ? i - n : i;
}

/* The box walker every body shares: rows [r0, r1) of the box's flattened
 * (lane, z, y) rows, each handed to `row` as one span of x cells and, on
 * an x axis whose far read leaves the row, the one cell that wraps (at
 * most one: the shift is one cell).  Offsets advance by addition and far
 * reads wrap by compare-and-add.  Inlined with constant `row`, `fused`,
 * and `has_src`, `plus` (shift > 0) and `xstep`, chosen once per box by
 * walk_box. */
INLINE void walk(const thiim_op *op, const int64_t *bx, int64_t r0, int64_t r1,
                 row_fn *row, int fused, int has_src, int plus, int xstep)
{
    const int64_t nz = op->n[0], ny = op->n[1], nx = op->n[2];
    const int64_t z0 = bx[0], z1 = bx[1], y0 = bx[2], y1 = bx[3];
    int64_t x0 = bx[4], x1 = bx[5];
    const int64_t axis = op->axis, shift = plus ? 1 : -1;
    const int64_t *cs = op->cs;
    /* Strides of the fields in doubles: y row, z plane, lane. */
    const int64_t sy = 2 * nx, sz = sy * ny, sl = sz * nz;
    int64_t wrap_x = -1;
    if (axis == 2 && x0 + shift < 0)
        wrap_x = x0++;
    else if (axis == 2 && x1 + shift > nx)
        wrap_x = --x1;
    /* From a cell to its far read along x: the span's, the wrap cell's. */
    const int64_t dx = axis == 2 ? 2 * shift : 0;
    const int64_t dxw = wrap_x < 0 ? 0 : 2 * (wrap(wrap_x + shift, nx) - wrap_x);
    /* The wrap cell from the span's first cell: field, coefficients. */
    const int64_t ow = 2 * (wrap_x - x0), kw = (wrap_x - x0) * cs[3];
    /* Row r0 is (lane, z, y); then whole (lane, z) planes of y rows. */
    const int64_t ylen = y1 - y0, plane = ylen * (z1 - z0);
    int64_t lane = r0 / plane, z = z0 + r0 % plane / ylen, y = y0 + r0 % ylen;
    for (int64_t left = r1 - r0; left > 0; y = y0) {
        const int64_t yb = y + (left < y1 - y ? left : y1 - y);
        const int64_t dz = axis == 0 ? (wrap(z + shift, nz) - z) * sz : 0;
        int64_t o = lane * sl + z * sz + y * sy + 2 * x0;
        int64_t k = lane * cs[0] + z * cs[1] + y * cs[2] + x0 * cs[3];
        for (int64_t j = y; j < yb; j++, o += sy, k += cs[2]) {
            const int64_t p = o + dz + (axis == 1 ? (wrap(j + shift, ny) - j) * sy : 0);
            row(op->f + o, op->a + o, op->b + o, op->a + p + dx, op->b + p + dx,
                op->t + k, op->c + k, has_src ? op->src + k : 0, x1 - x0, plus, fused,
                xstep);
            if (wrap_x >= 0)
                row(op->f + o + ow, op->a + o + ow, op->b + o + ow,
                    op->a + p + ow + dxw, op->b + p + ow + dxw, op->t + k + kw,
                    op->c + k + kw, has_src ? op->src + k + kw : 0, 1, plus, fused,
                    xstep);
        }
        left -= yb - y;
        if (++z == z1) {
            z = z0;
            lane++;
        }
    }
}

INLINE void walk_box(const thiim_op *op, const int64_t *bx, int64_t r0,
                     int64_t r1, row_fn *row, int fused)
{
#define WALK(S, P, X) walk(op, bx, r0, r1, row, fused, S, P, X)
    switch ((op->src != 0) << 2 | (op->shift > 0) << 1 | (op->cs[3] != 0)) {
    case 0: WALK(0, 0, 0); break;
    case 1: WALK(0, 0, 1); break;
    case 2: WALK(0, 1, 0); break;
    case 3: WALK(0, 1, 1); break;
    case 4: WALK(1, 0, 0); break;
    case 5: WALK(1, 0, 1); break;
    case 6: WALK(1, 1, 0); break;
    default: WALK(1, 1, 1);
    }
#undef WALK
}

#ifdef VECTOR_BODY
FMA_TARGET static void rows_vector(const thiim_op *op, const int64_t *bx,
                                   int64_t r0, int64_t r1)
{
    walk_box(op, bx, r0, r1, row_vector, 1);
}

/* The scalar body with the CPU's fma instruction. */
FMA_TARGET static void rows_fma(const thiim_op *op, const int64_t *bx,
                                int64_t r0, int64_t r1)
{
    walk_box(op, bx, r0, r1, row, 1);
}
#endif

static void rows_fused(const thiim_op *op, const int64_t *bx, int64_t r0,
                       int64_t r1)
{
    walk_box(op, bx, r0, r1, row, 1);
}

static void rows_plain(const thiim_op *op, const int64_t *bx, int64_t r0,
                       int64_t r1)
{
    walk_box(op, bx, r0, r1, row, 0);
}

static void run_rows(const thiim_op *op, const int64_t *bx, int64_t r0,
                     int64_t r1)
{
    if (!thiim_fused)
        rows_plain(op, bx, r0, r1);
#ifdef VECTOR_BODY
    else if (has_fma && thiim_vector > 0)
        rows_vector(op, bx, r0, r1);
    else if (has_fma && thiim_vector == 0)
        rows_fma(op, bx, r0, r1);
#endif
    else
        rows_fused(op, bx, r0, r1);
}

/* -- the helper group ----------------------------------------------------
 *
 * One helper thread per CPU of the affinity mask beyond the first, started
 * once by thiim_start and never joined, and one queue of jobs: an op by
 * value, its box, its rows and its parts.  Every thread, the caller
 * included, claims the next (job, part) with a CAS on `ticket` (job << 16
 * | part).  The parts of a job are claimable once the job before it is
 * done: whichever thread finishes a job's last part moves the ticket on
 * to the next job, so jobs run one at a time in submission order.  A
 * helper spins for SPIN_NS after its last part, then sleeps on `wake`
 * while the queue is empty; queuing a job wakes the sleepers.  A caller
 * that waits -- for the queue to empty (a drain) or for room in it --
 * claims parts itself (a one-part job once the queue stands still), so
 * it waits only for parts other threads hold.
 *
 * One caller at a time borrows the group (a CAS on thiim_borrowed), for
 * one big box or for a whole stream window; any other runs its box
 * immediate and serial.  A forked child keeps no helpers, queue or window
 * (reset_in_child): processes or threads, never both.
 *
 * The ints below are exported so that a test can split any box any
 * number of ways, size the queue, see what ran where, and hold the
 * group. */

#define SLOTS 256
#define PART_BITS 16
#define MAX_HELPERS 63
#define SPIN_NS 200000
#define PATIENCE 1024

/* Smallest box split, in cells x lanes: below it the hand-off costs about
 * what a helper saves (EXPERIMENTS.md). */
int thiim_split_min = 16384;
/* Parts of a split box beyond the first: the helpers started (0, so
 * serial, until thiim_start). */
int thiim_helper_cap = 0;
/* Jobs a window's queue holds (read at thiim_open, at most SLOTS); 0: no
 * window opens and every call is immediate. */
int thiim_ring_cap = SLOTS;
/* Parts of split boxes helpers have run. */
_Atomic int64_t thiim_helper_parts = 0;
/* Queued jobs run, by any thread. */
_Atomic int64_t thiim_stream_ops = 0;
/* 1 while a caller holds the group. */
atomic_int thiim_borrowed = 0;

typedef struct {
    thiim_op op;
    int64_t box[6], rows;
    _Atomic int64_t parts;      /* read before a claim, so atomic */
} job;

static struct {
    pthread_mutex_t mu;
    pthread_cond_t wake;
    atomic_int sleepers;
    int helpers;
    int64_t cap;                        /* jobs the window may queue */
    alignas(64) _Atomic int64_t pub;    /* jobs queued */
    alignas(64) _Atomic int64_t ticket; /* the next (job, part) to claim */
    alignas(64) _Atomic int64_t fin;    /* parts done of the ticket's split box */
    job q[SLOTS];
} Q = {.mu = PTHREAD_MUTEX_INITIALIZER, .wake = PTHREAD_COND_INITIALIZER};

/* 1 on the thread that holds the window. */
static _Thread_local int streaming;

static void cpu_relax(void)
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* Claim the next part of the ticket's job: 0 when no job is queued or
 * every part of it is claimed.  A job's slot is reused only once the job
 * is done, and then the ticket has moved and the CAS fails. */
static int claim(int64_t *j, int64_t *p)
{
    int64_t t = atomic_load_explicit(&Q.ticket, memory_order_acquire);
    for (;;) {
        *j = t >> PART_BITS;
        *p = t & ((1 << PART_BITS) - 1);
        if (*j == atomic_load_explicit(&Q.pub, memory_order_acquire)
            || *p >= atomic_load_explicit(&Q.q[*j % SLOTS].parts, memory_order_relaxed))
            return 0;
        if (atomic_compare_exchange_weak_explicit(&Q.ticket, &t, t + 1,
                                                  memory_order_acq_rel,
                                                  memory_order_acquire))
            return 1;
    }
}

/* After the `k`-th claim in a row that failed: pause, and now and then
 * yield, since the part awaited may be held by a thread this one's CPU
 * also runs. */
static void backoff(unsigned k)
{
    if (k % 1024)
        cpu_relax();
    else
        sched_yield();
}

/* Run part `p` of job `j`; the thread that finishes the job's last part
 * moves the ticket on, publishing every part's writes to the next job. */
static void run_part(int64_t j, int64_t p, int helper)
{
    const job *b = &Q.q[j % SLOTS];
    const int64_t parts = atomic_load_explicit(&b->parts, memory_order_relaxed);
    run_rows(&b->op, b->box, b->rows * p / parts, b->rows * (p + 1) / parts);
    if (parts > 1) {
        if (helper)
            atomic_fetch_add_explicit(&thiim_helper_parts, 1, memory_order_relaxed);
        if (atomic_fetch_add_explicit(&Q.fin, 1, memory_order_acq_rel) < parts - 1)
            return;
        atomic_store_explicit(&Q.fin, 0, memory_order_relaxed);
    }
    atomic_fetch_add_explicit(&thiim_stream_ops, 1, memory_order_relaxed);
    atomic_store_explicit(&Q.ticket, (j + 1) << PART_BITS, memory_order_release);
}

/* The borrower: claim and run parts until the queue holds at most `keep`
 * jobs.  It claims a part of a job of several at once, but a one-part job
 * only once the ticket has stood still for PATIENCE spins or right after
 * running the job before it: while a helper runs one-part jobs back to
 * back, taking turns with it would only move the fields between cores. */
static void drain_to(int64_t keep)
{
    const int64_t pub = atomic_load_explicit(&Q.pub, memory_order_relaxed);
    int64_t j, p, seen = -1;
    for (unsigned k = 0;;) {
        const int64_t t = atomic_load_explicit(&Q.ticket, memory_order_acquire);
        if (pub - (t >> PART_BITS) <= keep)
            return;
        if (t != seen) {
            seen = t;
            k = 0;
        }
        if ((k >= PATIENCE || atomic_load_explicit(&Q.q[(t >> PART_BITS) % SLOTS].parts,
                                                   memory_order_relaxed) > 1)
            && claim(&j, &p)) {
            run_part(j, p, 0);
            seen = atomic_load_explicit(&Q.ticket, memory_order_relaxed);
        } else {
            backoff(++k);
        }
    }
}

/* The borrower: queue a job, waking the helpers that sleep. */
static void enqueue(const thiim_op *op, const int64_t *box, int64_t rows,
                    int64_t parts)
{
    const int64_t n = atomic_load_explicit(&Q.pub, memory_order_relaxed);
    job *b = &Q.q[n % SLOTS];
    b->op = *op;
    for (int i = 0; i < 6; i++)
        b->box[i] = box[i];
    b->rows = rows;
    atomic_store_explicit(&b->parts, parts, memory_order_relaxed);
    /* Sequentially consistent, as a helper's sleepers count and its check
     * of the queue are: one of the two sees the other. */
    atomic_store(&Q.pub, n + 1);
    if (atomic_load(&Q.sleepers)) {
        pthread_mutex_lock(&Q.mu);
        pthread_cond_broadcast(&Q.wake);
        pthread_mutex_unlock(&Q.mu);
    }
}

static void *helper(void *arg)
{
    (void)arg;
    int64_t j, p, until = now_ns() + SPIN_NS;
    for (unsigned k = 1;; k++) {
        if (claim(&j, &p)) {
            run_part(j, p, 1);
            until = now_ns() + SPIN_NS;
            continue;
        }
        if (k % 64 || now_ns() < until) {
            backoff(k);
            continue;
        }
        pthread_mutex_lock(&Q.mu);
        atomic_fetch_add(&Q.sleepers, 1);
        while (atomic_load(&Q.ticket) >> PART_BITS == atomic_load(&Q.pub))
            pthread_cond_wait(&Q.wake, &Q.mu);
        atomic_fetch_sub(&Q.sleepers, 1);
        pthread_mutex_unlock(&Q.mu);
        until = now_ns() + SPIN_NS;
    }
    return 0;
}

static void reset_in_child(void)
{
    pthread_mutex_init(&Q.mu, 0);
    pthread_cond_init(&Q.wake, 0);
    atomic_store(&Q.sleepers, 0);
    Q.helpers = thiim_helper_cap = 0;
    atomic_store(&thiim_borrowed, 0);
    /* A window another thread held dies with that thread. */
    atomic_store(&Q.pub, 0);
    atomic_store(&Q.ticket, 0);
    atomic_store(&Q.fin, 0);
    streaming = 0;
}

/* Start the helpers (once per process); how many run. */
int thiim_start(void)
{
    if (Q.helpers)
        return Q.helpers;
    int cpus = 1;
#ifdef __linux__
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0)
        cpus = CPU_COUNT(&mask);
#endif
    if (cpus < 2 || pthread_atfork(0, 0, reset_in_child))
        return 0;
    /* Helpers take no signals: they stay with the interpreter's threads. */
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    while (Q.helpers < cpus - 1 && Q.helpers < MAX_HELPERS) {
        pthread_t t;
        if (pthread_create(&t, 0, helper, 0))
            break;
        pthread_detach(t);
#ifdef __linux__
        pthread_setname_np(t, "thiim-helper");
#endif
        Q.helpers++;
    }
    pthread_sigmask(SIG_SETMASK, &old, 0);
    return thiim_helper_cap = Q.helpers;
}

/* Open a stream window on the calling thread, borrowing the group for
 * it: 1, or 0 (no helper, the group or this thread's window already
 * open, or thiim_ring_cap 0), and every call stays immediate. */
int thiim_open(void)
{
    int idle = 0;
    if (streaming || Q.helpers < 1 || thiim_ring_cap < 1
        || !atomic_compare_exchange_strong(&thiim_borrowed, &idle, 1))
        return 0;
    Q.cap = thiim_ring_cap < SLOTS ? thiim_ring_cap : SLOTS;
    streaming = 1;
    return 1;
}

/* Run every job the calling thread's window queued (no window: nothing). */
void thiim_drain(void)
{
    if (streaming)
        drain_to(0);
}

/* Drain the calling thread's window, close it and release the group. */
void thiim_close(void)
{
    if (!streaming)
        return;
    drain_to(0);
    streaming = 0;
    atomic_store_explicit(&thiim_borrowed, 0, memory_order_release);
}

/* Update `box` = (z0, z1, y0, y1, x0, x1): a box below the gate is one
 * part, one at or above it 1 + thiim_helper_cap parts.  In a window the
 * box is queued as a job, and a big one is drained; outside one a box of
 * more than one part borrows the group and is drained, and any other
 * runs here.  Returns 0, or -1 without touching memory when the box
 * leaves the grid or its far read leaves a non-periodic axis (in a
 * window, once every job queued before it has run). */
int64_t thiim_update(const thiim_op *op, const int64_t *box)
{
    int empty = 0;
    for (int ax = 0; ax < 3; ax++) {
        int64_t lo = box[2 * ax], hi = box[2 * ax + 1];
        if ((lo < 0 || hi < lo || hi > op->n[ax])
            || (ax == op->axis && !op->periodic && lo < hi
                && (lo + op->shift < 0 || hi + op->shift > op->n[ax]))) {
            thiim_drain();
            return -1;
        }
        empty |= lo == hi;
    }
    if (empty)
        return 0;
    if (has_fma < 0)
        has_fma = CPU_HAS_FMA() ? 1 : 0;
    if (thiim_fused < 0)
        thiim_fused = has_fma;
    const int64_t rows = op->lanes * (box[1] - box[0]) * (box[3] - box[2]);
    const int big = rows * (box[5] - box[4]) >= thiim_split_min;
    int64_t parts = big ? 1 + (int64_t)thiim_helper_cap : 1;
    parts = parts < rows ? parts : rows;
    parts = parts < (1 << PART_BITS) - 1 ? parts : (1 << PART_BITS) - 1;
    int idle = 0;
    if (streaming) {
        drain_to(Q.cap - 1);
    } else if (parts < 2 || !atomic_compare_exchange_strong(&thiim_borrowed, &idle, 1)) {
        run_rows(op, box, 0, rows);
        return 0;
    }
    enqueue(op, box, rows, parts);
    if (big)
        drain_to(0);
    if (!streaming)
        atomic_store_explicit(&thiim_borrowed, 0, memory_order_release);
    return 0;
}
