/* Batched LRU replay kernel (ctypes; no CPython API).
 *
 * Exact counterpart of repro.machine.cache.LRUCache.access / BatchLRU.replay:
 * a capacity-managed LRU over variable-size chunks, write-allocate without
 * read-for-ownership, write-backs charged on dirty eviction.  The chunk key
 * space of one emitter is dense and small (n_groups * ny * nz), so the cache
 * is direct-mapped over preallocated arrays -- per key: flags (bit0 present,
 * bit1 dirty), byte size, and intrusive doubly-linked recency list (prev
 * toward LRU, next toward MRU).  One call replays a whole schedule: every
 * job of a band or of a sweep phase, in order.
 *
 * A segment of the shared shape table is a clipped rectangle of (y, z) rows
 * of one array group, relative to its job's anchor; the kernel walks the box
 * y-major -- the reference emitters' op -> y -> z order -- so no key is ever
 * stored.  The emitter's domain enters per call through nz (the row stride),
 * group_base[] (group * ny * nz) and group_size[] (row bytes at its nx).
 *
 * Both entry points check every key against [0, key_space) *before* the
 * first access and return -1 with the state untouched when one falls
 * outside (bad[] then names the job and the segment).
 *
 * Built on demand by repro.machine.native (cc -O2 -shared -fPIC); if that
 * fails, the pure-Python BatchLRU engine is used instead.
 */

#include <stdint.h>

typedef struct {
    /* per key: recency list links, chunk size, flags (see above) */
    int64_t *next;
    int64_t *prev;
    int64_t *size;
    uint8_t *flags;
    double capacity;
    int64_t used;
    int64_t mru;
    int64_t lru;
    int64_t count;
    int64_t read_hits;
    int64_t read_misses;
    int64_t write_hits;
    int64_t write_misses;
    int64_t writebacks;
    int64_t mem_read_bytes;
    int64_t mem_write_bytes;
} LruState;

/* Columns of one shape-table segment (ShapeTable._seg). */
enum { SEG_GROUP, SEG_WRITE, SEG_RY0, SEG_RY1, SEG_RZ0, SEG_RZ1, SEG_COLS };

/* The recency list and the counters live in locals of the entry point for
 * the duration of a call (through a struct pointer every access would
 * reload and spill them: the relink chain of a hit is the critical path). */
#define LRU_ENTER(st)                                                         \
    int64_t *const next = (st)->next, *const prev = (st)->prev;               \
    int64_t *const size = (st)->size;                                         \
    uint8_t *const flags = (st)->flags;                                       \
    int64_t mru = (st)->mru, lru = (st)->lru;                                 \
    int64_t used = (st)->used, count = (st)->count;                           \
    const double cap = (st)->capacity;                                        \
    int64_t rh = 0, rm = 0, wh = 0, wm = 0, wb = 0, mrb = 0, mwb = 0

#define LRU_LEAVE(st)                                                         \
    do {                                                                      \
        (st)->mru = mru;                                                      \
        (st)->lru = lru;                                                      \
        (st)->used = used;                                                    \
        (st)->count = count;                                                  \
        (st)->read_hits += rh;                                                \
        (st)->read_misses += rm;                                              \
        (st)->write_hits += wh;                                               \
        (st)->write_misses += wm;                                             \
        (st)->writebacks += wb;                                               \
        (st)->mem_read_bytes += mrb;                                          \
        (st)->mem_write_bytes += mwb;                                         \
    } while (0)

/* One access to chunk k_ of sz_ bytes, between LRU_ENTER and LRU_LEAVE. */
#define LRU_ACCESS(k_, sz_, write_)                                           \
    do {                                                                      \
        const int64_t key = (k_);                                             \
        if (flags[key] & 1) {                                                 \
            /* hit: refresh recency (unlink + relink at MRU) */               \
            if (key != mru) {                                                 \
                const int64_t p = prev[key], q = next[key];                   \
                if (p != -1) next[p] = q; else lru = q;                       \
                prev[q] = p; /* q != -1 because key != mru */                 \
                prev[key] = mru;                                              \
                next[key] = -1;                                               \
                next[mru] = key;                                              \
                mru = key;                                                    \
            }                                                                 \
            if (write_) {                                                     \
                flags[key] = 3;                                               \
                wh++;                                                         \
            } else {                                                          \
                rh++;                                                         \
            }                                                                 \
        } else {                                                              \
            /* miss: install at MRU, then evict while over capacity */        \
            if (write_) {                                                     \
                flags[key] = 3;                                               \
                wm++;                                                         \
            } else {                                                          \
                flags[key] = 1;                                               \
                rm++;                                                         \
                mrb += (sz_);                                                 \
            }                                                                 \
            size[key] = (sz_);                                                \
            prev[key] = mru;                                                  \
            next[key] = -1;                                                   \
            if (mru != -1) next[mru] = key; else lru = key;                   \
            mru = key;                                                        \
            used += (sz_);                                                    \
            count++;                                                          \
            while ((double)used > cap) {                                      \
                const int64_t e = lru;                                        \
                const int64_t q = next[e];                                    \
                lru = q;                                                      \
                if (q != -1) prev[q] = -1; else mru = -1;                     \
                used -= size[e];                                              \
                count--;                                                      \
                if (flags[e] & 2) {                                           \
                    wb++;                                                     \
                    mwb += size[e];                                           \
                }                                                             \
                flags[e] = 0;                                                 \
            }                                                                 \
        }                                                                     \
    } while (0)

/* Replay a *job table*: job j spans segments [job_lo[j], job_hi[j]) of the
 * shared segment table, translated by job_base[j].  One call per schedule
 * keeps the whole hot loop in C (a shape class's segments are built once
 * per process and referenced by every congruent job of every emitter).
 * Segments are never empty boxes (the table stores clipped, non-empty
 * rectangles only), so a box's first and last key bound all of its keys. */
int64_t lru_replay_jobs(LruState *st, const int64_t *seg,
                        const int64_t *group_base, const int64_t *group_size,
                        int64_t n_groups, int64_t nz, int64_t key_space,
                        const int64_t *job_lo, const int64_t *job_hi,
                        const int64_t *job_base, int64_t n_jobs, int64_t *bad)
{
    for (int64_t jj = 0; jj < n_jobs; jj++) {
        const int64_t base = job_base[jj];
        for (int64_t s = job_lo[jj]; s < job_hi[jj]; s++) {
            const int64_t *const sg = seg + SEG_COLS * s;
            const int64_t g = sg[SEG_GROUP];
            if (g >= 0 && g < n_groups) {
                const int64_t b = group_base[g] + base;
                if (b + sg[SEG_RY0] * nz + sg[SEG_RZ0] >= 0
                    && b + (sg[SEG_RY1] - 1) * nz + sg[SEG_RZ1] - 1 < key_space)
                    continue;
            }
            bad[0] = jj;
            bad[1] = s;
            return -1;
        }
    }

    LRU_ENTER(st);
    int64_t n = 0;
    for (int64_t jj = 0; jj < n_jobs; jj++) {
        const int64_t base = job_base[jj];
        for (int64_t s = job_lo[jj]; s < job_hi[jj]; s++) {
            const int64_t *const sg = seg + SEG_COLS * s;
            const int64_t g = sg[SEG_GROUP];
            const int64_t sz = group_size[g];
            const int write = (int)sg[SEG_WRITE];
            const int64_t rz0 = sg[SEG_RZ0], rz1 = sg[SEG_RZ1];
            const int64_t first = group_base[g] + base + sg[SEG_RY0] * nz;
            const int64_t end = group_base[g] + base + sg[SEG_RY1] * nz;
            n += (sg[SEG_RY1] - sg[SEG_RY0]) * (rz1 - rz0);
            if (rz1 - rz0 == 1) {
                /* a column (every row of a sweep schedule is one plane
                 * deep): one strided loop, no inner loop per key */
                for (int64_t k = first + rz0; k < end + rz0; k += nz)
                    LRU_ACCESS(k, sz, write);
            } else {
                for (int64_t row = first; row < end; row += nz)
                    for (int64_t k = row + rz0; k < row + rz1; k++)
                        LRU_ACCESS(k, sz, write);
            }
        }
    }
    LRU_LEAVE(st);
    return n;
}

/* The generic explicit-key form: segment s touches chunks
 * seg_prebase[s] + base + rel[i], i in [seg_start[s], seg_start[s + 1]), all
 * of seg_size[s] bytes.  (NativeLRU.prepare / replay: single accesses, the
 * property tests and the ledger's replay-rate probe; bad[0] stays 0.) */
int64_t lru_replay(LruState *st,
                   const int64_t *rel, const int64_t *seg_start,
                   const int64_t *seg_prebase, const int64_t *seg_size,
                   const uint8_t *seg_write, int64_t n_seg,
                   int64_t base, int64_t key_space, int64_t *bad)
{
    for (int64_t s = 0; s < n_seg; s++) {
        const int64_t b = seg_prebase[s] + base;
        for (int64_t i = seg_start[s]; i < seg_start[s + 1]; i++) {
            if (b + rel[i] < 0 || b + rel[i] >= key_space) {
                bad[0] = 0;
                bad[1] = s;
                return -1;
            }
        }
    }

    LRU_ENTER(st);
    for (int64_t s = 0; s < n_seg; s++) {
        const int64_t b = seg_prebase[s] + base;
        const int64_t sz = seg_size[s];
        const int write = seg_write[s];
        for (int64_t i = seg_start[s]; i < seg_start[s + 1]; i++)
            LRU_ACCESS(b + rel[i], sz, write);
    }
    LRU_LEAVE(st);
    return seg_start[n_seg];
}
