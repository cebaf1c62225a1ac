/* One THIIM component update over a (z, y, x) box, all lanes of a stack:
 *
 *     F = t * ((A' + B') - (A + B)) + c * F (+ src)          (H: far - near)
 *     F = t * ((A + B) - (A' + B')) + c * F (+ src)          (E: near - far)
 *
 * where X' is X displaced by `shift` along the derivative axis, wrapping
 * on a periodic axis.  It is the compiled twin of the NumPy body in
 * kernels.py and must round exactly as that does, operation for
 * operation: compile with -ffp-contract=off so that nothing fuses except
 * the two fma() calls spelled out below -- NumPy's SIMD complex multiply
 * computes re = fma(ar, br, -(ai*bi)), im = fma(ar, bi, ai*br) on a CPU
 * with FMA and the plain four-multiply form on one without.  kernels.py
 * compares this pass with NumPy bit for bit before it trusts it.
 *
 * Arrays are C-contiguous complex128, addressed as interleaved doubles:
 * the fields of shape (lanes,) + n, the coefficients t, c and src of one
 * shape that broadcasts to it, read through the strides cs (0 on a
 * broadcast axis, so one stored value serves the whole axis).
 */
#include <stdint.h>

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

#if defined(__x86_64__) || defined(__i386__)
#define FMA_TARGET __attribute__((target("avx2,fma")))
#define CPU_HAS_FMA() (__builtin_cpu_supports("fma") && __builtin_cpu_supports("avx2"))
#elif defined(__FP_FAST_FMA)
#define FMA_TARGET
#define CPU_HAS_FMA() 1
#else
#define FMA_TARGET
#define CPU_HAS_FMA() 0
#endif

#define INLINE static inline __attribute__((always_inline))

/* `cells` consecutive cells of one x row; fa / fb are a / b at the far
 * read, t / c / s advance along x only when `xstep` (else one value
 * serves the row).  Adds and subtracts follow update_component's order.
 * Inlined with constant `s == 0`, `far_minus_near`, `fused` and `xstep`,
 * so that the loop body is branch-free and vectorises. */
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

/* One row span at field offset `o`, its far read at `p`, its
 * coefficients at `k` (all in doubles). */
INLINE void span(const thiim_op *op, int64_t o, int64_t p, int64_t k,
                 int64_t cells, int fused)
{
#define ROW(S, PLUS, X) row(op->f + o, op->a + o, op->b + o, op->a + p, \
                            op->b + p, op->t + k, op->c + k, S, cells, \
                            PLUS, fused, X)
#define ROWS(X)                                 \
    if (op->src && op->shift > 0)               \
        ROW(op->src + k, 1, X);                 \
    else if (op->src)                           \
        ROW(op->src + k, 0, X);                 \
    else if (op->shift > 0)                     \
        ROW(0, 1, X);                           \
    else                                        \
        ROW(0, 0, X)
    if (op->cs[3]) {
        ROWS(1);
    } else {
        ROWS(0);
    }
#undef ROWS
#undef ROW
}

INLINE void box_update(const thiim_op *op, const int64_t *bx, int fused)
{
    const int64_t nz = op->n[0], ny = op->n[1], nx = op->n[2];
    const int64_t z0 = bx[0], z1 = bx[1], y0 = bx[2], y1 = bx[3];
    int64_t x0 = bx[4], x1 = bx[5];
    const int64_t axis = op->axis, shift = op->shift;
    const int64_t *cs = op->cs;
    /* On the x axis at most one cell of a row wraps: peel it off. */
    int64_t wrap_x = -1;
    if (axis == 2 && x0 + shift < 0)
        wrap_x = x0++;
    else if (axis == 2 && x1 + shift > nx)
        wrap_x = --x1;
    for (int64_t lane = 0; lane < op->lanes; lane++) {
        for (int64_t z = z0; z < z1; z++) {
            int64_t zf = axis == 0 ? (z + shift + nz) % nz : z;
            for (int64_t y = y0; y < y1; y++) {
                int64_t yf = axis == 1 ? (y + shift + ny) % ny : y;
                int64_t r = 2 * (((lane * nz + z) * ny + y) * nx);
                int64_t q = 2 * (((lane * nz + zf) * ny + yf) * nx);
                int64_t k = lane * cs[0] + z * cs[1] + y * cs[2];
                span(op, r + 2 * x0, q + 2 * (x0 + (axis == 2 ? shift : 0)),
                     k + x0 * cs[3], x1 - x0, fused);
                if (wrap_x >= 0)
                    span(op, r + 2 * wrap_x,
                         q + 2 * ((wrap_x + shift + nx) % nx),
                         k + wrap_x * cs[3], 1, fused);
            }
        }
    }
}

FMA_TARGET static void box_fused(const thiim_op *op, const int64_t *bx)
{
    box_update(op, bx, 1);
}

static void box_plain(const thiim_op *op, const int64_t *bx)
{
    box_update(op, bx, 0);
}

/* Update `box` = (z0, z1, y0, y1, x0, x1).  Returns 0, or -1 without
 * touching memory when the box leaves the grid or its far read leaves a
 * non-periodic axis. */
int64_t thiim_update(const thiim_op *op, const int64_t *box)
{
    int empty = 0;
    for (int ax = 0; ax < 3; ax++) {
        int64_t lo = box[2 * ax], hi = box[2 * ax + 1];
        if (lo < 0 || hi < lo || hi > op->n[ax])
            return -1;
        if (ax == op->axis && !op->periodic && lo < hi
            && (lo + op->shift < 0 || hi + op->shift > op->n[ax]))
            return -1;
        empty |= lo == hi;
    }
    if (empty)
        return 0;
    if (thiim_fused < 0)
        thiim_fused = CPU_HAS_FMA() ? 1 : 0;
    if (thiim_fused)
        box_fused(op, box);
    else
        box_plain(op, box);
    return 0;
}
