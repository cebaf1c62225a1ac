/* Replay streams recorded from the reference LRU (repro.machine.cache.
 * LRUCache) through both entry points of the LRU replay kernel and compare
 * every result: built with -fsanitize=address,undefined, so a node read or
 * written outside the table, or an overflowing link, stops the run.
 *
 *     cc -fsanitize=address,undefined -O1 -g lru_replay_check.c -o check
 *     ./check streams.txt
 *
 * The input (written by tests/test_native_drivers.py) is whitespace
 * separated integers: a case count, then per case
 *
 *     nz n_groups key_space capacity
 *     group_base[n_groups] group_size[n_groups]
 *     n_seg, then n_seg rows: group write ry0 ry1 rz0 rz1
 *     n_calls, then per call:
 *         n_jobs, then n_jobs rows: lo hi base
 *         the reference's result: accesses replayed (-1: refused), the
 *         seven counters, used bytes, resident count, then per resident
 *         key from LRU to MRU: key size dirty
 *
 * One state replays each call's jobs in one lru_replay_jobs call, the
 * other the same jobs expanded to explicit keys in one lru_replay call.
 * After every call both must equal the reference: the return value, the
 * counters, the occupancy and the recency order with each resident key's
 * size and dirty bit; the prev links must walk the same list backwards,
 * and every key that is not resident must hold the all-zero node (what
 * lets a byte-for-byte table compare stand for an LRU-state compare).
 */

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "../../src/repro/machine/_lru_kernel.c"

static FILE *in;

static int64_t rd(void)
{
    long long v;
    if (fscanf(in, "%lld", &v) != 1) {
        fprintf(stderr, "lru_replay_check: truncated input\n");
        exit(2);
    }
    return (int64_t)v;
}

static int64_t *rd_array(int64_t n)
{
    int64_t *a = malloc(sizeof(int64_t) * (size_t)(n > 0 ? n : 1));
    for (int64_t i = 0; i < n; i++)
        a[i] = rd();
    return a;
}

static int fail(int c, int k, const char *entry, const char *what,
                long long got, long long want)
{
    printf("case %d call %d (%s): %s is %lld, the reference's %lld\n",
           c, k, entry, what, got, want);
    return 1;
}

/* Compare one state with the reference's result; returns 0 when equal. */
static int check(const LruState *st, int64_t key_space, int64_t ret,
                 const int64_t *want, int c, int k, const char *entry)
{
    const int64_t counters[7] = {
        st->read_hits, st->read_misses, st->write_hits, st->write_misses,
        st->writebacks, st->mem_read_bytes, st->mem_write_bytes};
    static const char *names[7] = {
        "read_hits", "read_misses", "write_hits", "write_misses",
        "writebacks", "mem_read_bytes", "mem_write_bytes"};
    if (ret != want[0])
        return fail(c, k, entry, "the return value", ret, want[0]);
    for (int i = 0; i < 7; i++)
        if (counters[i] != want[1 + i])
            return fail(c, k, entry, names[i], counters[i], want[1 + i]);
    if (st->used != want[8])
        return fail(c, k, entry, "used", st->used, want[8]);
    if (st->count != want[9])
        return fail(c, k, entry, "count", st->count, want[9]);
    const int64_t n = want[9], *res = want + 10;
    int64_t key = st->lru, prev = -1;
    for (int64_t i = 0; i < n; i++, prev = key, key = st->node[key].next) {
        if (key != res[3 * i])
            return fail(c, k, entry, "a resident key", key, res[3 * i]);
        const LruNode *nd = &st->node[key];
        if (nd->prev != prev)
            return fail(c, k, entry, "a prev link", nd->prev, prev);
        if (nd->size != res[3 * i + 1])
            return fail(c, k, entry, "a chunk size", nd->size, res[3 * i + 1]);
        if (nd->flags != (res[3 * i + 2] ? 3 : 1))
            return fail(c, k, entry, "a flag byte", nd->flags,
                        res[3 * i + 2] ? 3 : 1);
    }
    if (key != -1)
        return fail(c, k, entry, "the key after the MRU end", key, -1);
    if (st->mru != prev)
        return fail(c, k, entry, "mru", st->mru, prev);
    int64_t zero = 0;
    static const LruNode empty;
    for (int64_t q = 0; q < key_space; q++)
        zero += !(st->node[q].flags & 1)
                && memcmp(&st->node[q], &empty, sizeof empty) == 0;
    if (zero != key_space - n)
        return fail(c, k, entry, "all-zero nodes", zero, key_space - n);
    return 0;
}

int main(int argc, char **argv)
{
    if (argc != 2 || !(in = fopen(argv[1], "r"))) {
        fprintf(stderr, "usage: %s streams.txt\n", argv[0]);
        return 2;
    }
    const int n_cases = (int)rd();
    long long calls = 0, refused = 0, accesses = 0;
    for (int c = 0; c < n_cases; c++) {
        const int64_t nz = rd(), n_groups = rd(), key_space = rd();
        const double capacity = (double)rd();
        int64_t *gb = rd_array(n_groups), *gs = rd_array(n_groups);
        const int64_t n_seg = rd();
        int64_t *seg = rd_array(SEG_COLS * n_seg);
        LruState jobs = {0}, keys = {0};
        jobs.node = calloc((size_t)key_space, sizeof(LruNode));
        keys.node = calloc((size_t)key_space, sizeof(LruNode));
        jobs.capacity = keys.capacity = capacity;
        jobs.mru = jobs.lru = keys.mru = keys.lru = -1;
        const int n_calls = (int)rd();
        for (int k = 0; k < n_calls; k++, calls++) {
            const int64_t n_jobs = rd();
            int64_t *lo = malloc(sizeof(int64_t) * (size_t)(n_jobs + 1));
            int64_t *hi = malloc(sizeof(int64_t) * (size_t)(n_jobs + 1));
            int64_t *base = malloc(sizeof(int64_t) * (size_t)(n_jobs + 1));
            int64_t n_boxes = 0, n_keys = 0;
            for (int64_t j = 0; j < n_jobs; j++) {
                lo[j] = rd();
                hi[j] = rd();
                base[j] = rd();
                for (int64_t s = lo[j]; s < hi[j]; s++) {
                    const int64_t *sg = seg + SEG_COLS * s;
                    n_boxes++;
                    n_keys += (sg[SEG_RY1] - sg[SEG_RY0])
                              * (sg[SEG_RZ1] - sg[SEG_RZ0]);
                }
            }
            int64_t head[10];
            for (int i = 0; i < 10; i++)
                head[i] = rd();
            int64_t *want = malloc(sizeof(int64_t) * (size_t)(10 + 3 * head[9]));
            memcpy(want, head, sizeof head);
            for (int64_t i = 0; i < 3 * head[9]; i++)
                want[10 + i] = rd();

            /* The jobs expanded to explicit keys, one segment per box. */
            int64_t *rel = malloc(sizeof(int64_t) * (size_t)(n_keys + 1));
            int64_t *start = malloc(sizeof(int64_t) * (size_t)(n_boxes + 1));
            int64_t *prebase = malloc(sizeof(int64_t) * (size_t)(n_boxes + 1));
            int64_t *size = malloc(sizeof(int64_t) * (size_t)(n_boxes + 1));
            uint8_t *write = malloc((size_t)(n_boxes + 1));
            int64_t b = 0, r = 0;
            start[0] = 0;
            for (int64_t j = 0; j < n_jobs; j++) {
                for (int64_t s = lo[j]; s < hi[j]; s++, b++) {
                    const int64_t *sg = seg + SEG_COLS * s;
                    prebase[b] = gb[sg[SEG_GROUP]] + base[j];
                    size[b] = gs[sg[SEG_GROUP]];
                    write[b] = (uint8_t)sg[SEG_WRITE];
                    for (int64_t ry = sg[SEG_RY0]; ry < sg[SEG_RY1]; ry++)
                        for (int64_t rz = sg[SEG_RZ0]; rz < sg[SEG_RZ1]; rz++)
                            rel[r++] = ry * nz + rz;
                    start[b + 1] = r;
                }
            }

            int64_t bad[2] = {0, 0};
            const int64_t got_jobs = lru_replay_jobs(
                &jobs, seg, gb, gs, n_groups, nz, key_space, lo, hi, base,
                n_jobs, bad);
            const int64_t got_keys = lru_replay(
                &keys, rel, start, prebase, size, write, n_boxes, 0,
                key_space, bad);
            if (check(&jobs, key_space, got_jobs, want, c, k, "lru_replay_jobs")
                || check(&keys, key_space, got_keys, want, c, k, "lru_replay"))
                return 1;
            refused += want[0] < 0;
            accesses += want[0] < 0 ? 0 : want[0];
            free(lo), free(hi), free(base), free(want);
            free(rel), free(start), free(prebase), free(size), free(write);
        }
        free(jobs.node), free(keys.node), free(gb), free(gs), free(seg);
    }
    fclose(in);
    printf("lru_replay_check: %d cases, %lld calls (%lld refused), "
           "%lld accesses: ok\n", n_cases, calls, refused, accesses);
    return 0;
}
