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
 * The segment table is shared by every emitter of the process, so a segment
 * names its array group only; the emitter's domain enters per call through
 * group_base[] (group * ny * nz) and group_size[] (row bytes at its nx).
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

/* Replay a *job table*: job j spans segments [job_lo[j], job_hi[j]) of the
 * shared segment table, translated by job_base[j].  One call per schedule
 * keeps the whole hot loop in C (a shape class's segments are built once
 * per process and referenced by every congruent job of every emitter). */
int64_t lru_replay_jobs(LruState *st,
                        const int64_t *rel, const int64_t *seg_start,
                        const int64_t *seg_group, const uint8_t *seg_write,
                        const int64_t *group_base, const int64_t *group_size,
                        const int64_t *job_lo, const int64_t *job_hi,
                        const int64_t *job_base, int64_t n_jobs)
{
    int64_t *const next = st->next, *const prev = st->prev, *const size = st->size;
    uint8_t *const flags = st->flags;
    int64_t mru = st->mru, lru = st->lru, used = st->used, count = st->count;
    const double cap = st->capacity;
    int64_t rh = 0, rm = 0, wh = 0, wm = 0, wb = 0, mrb = 0, mwb = 0;
    int64_t n = 0;

    for (int64_t jj = 0; jj < n_jobs; jj++) {
    const int64_t base = job_base[jj];
    for (int64_t s = job_lo[jj]; s < job_hi[jj]; s++) {
        const int64_t g = seg_group[s];
        const int64_t b = group_base[g] + base;
        const int64_t sz = group_size[g];
        const int write = seg_write[s];
        const int64_t i0 = seg_start[s], i1 = seg_start[s + 1];
        n += i1 - i0;
        for (int64_t i = i0; i < i1; i++) {
            const int64_t k = rel[i] + b;
            const uint8_t f = flags[k];
            if (f & 1) {
                /* hit: refresh recency (unlink + relink at MRU) */
                if (k != mru) {
                    const int64_t p = prev[k], q = next[k];
                    if (p != -1) next[p] = q; else lru = q;
                    prev[q] = p; /* q != -1 because k != mru */
                    prev[k] = mru;
                    next[k] = -1;
                    next[mru] = k;
                    mru = k;
                }
                if (write) {
                    flags[k] = 3;
                    wh++;
                } else {
                    rh++;
                }
            } else {
                /* miss: install at MRU, then evict while over capacity */
                if (write) {
                    flags[k] = 3;
                    wm++;
                } else {
                    flags[k] = 1;
                    rm++;
                    mrb += sz;
                }
                size[k] = sz;
                prev[k] = mru;
                next[k] = -1;
                if (mru != -1) next[mru] = k; else lru = k;
                mru = k;
                used += sz;
                count++;
                while ((double)used > cap) {
                    const int64_t e = lru;
                    const int64_t q = next[e];
                    lru = q;
                    if (q != -1) prev[q] = -1; else mru = -1;
                    used -= size[e];
                    count--;
                    if (flags[e] & 2) {
                        wb++;
                        mwb += size[e];
                    }
                    flags[e] = 0;
                }
            }
        }
    }
    }

    st->mru = mru;
    st->lru = lru;
    st->used = used;
    st->count = count;
    st->read_hits += rh;
    st->read_misses += rm;
    st->write_hits += wh;
    st->write_misses += wm;
    st->writebacks += wb;
    st->mem_read_bytes += mrb;
    st->mem_write_bytes += mwb;
    return n;
}

/* Single-job convenience entry point: segments [0, n_seg) at one base. */
int64_t lru_replay(LruState *st,
                   const int64_t *rel, const int64_t *seg_start,
                   const int64_t *seg_group, const uint8_t *seg_write,
                   const int64_t *group_base, const int64_t *group_size,
                   int64_t n_seg, int64_t base)
{
    const int64_t lo = 0;
    return lru_replay_jobs(st, rel, seg_start, seg_group, seg_write,
                           group_base, group_size,
                           &lo, &n_seg, &base, 1);
}
