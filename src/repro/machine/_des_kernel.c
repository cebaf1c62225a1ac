/* The event loop of machine/simulator.py: simulate_tiled, operation for
 * operation (build with -ffp-contract=off: every double below must round
 * as the Python loop's float does, so SimResult compares equal bitwise).
 *
 * Thread groups pop tiles from a FIFO ready queue; all running tiles
 * share one rate (every tile has the same cap and bytes/LUP, so the
 * water-fill is one comparison); time advances from completion to
 * completion; tiles finishing in one event complete in reversed dispatch
 * order, which fixes the order their successors enter the queue.
 *
 * The tile DAG arrives packed by core/plan.py: pack_dag -- per tile its
 * LUPs per x-cell, row count and predecessor count, successors in CSR
 * form, roots in queue order.  All state lives in the caller's work
 * arrays: the function is reentrant and runs without the GIL.
 */
#include <stdint.h>

/* par: nx, cap_rate [LUP/s], code_balance [B/LUP], bandwidth [B/s],
 *      sync [s]
 * front_syncs: z fronts per tile when the group synchronizes per front
 *      (size > 1), else -1
 * iwork: 2 * n_tiles + 2 * n_groups int64; fwork: 2 * n_groups doubles
 * out: seconds, LUPs, bytes
 * Returns 0, 1 when the schedule stalls (tiles left, none running), or
 * 2 + t when tile t completes more predecessors than it has. */
int64_t des_run(int64_t n_tiles, int64_t n_roots, const double *lups,
                const int64_t *rows, const int64_t *npred,
                const int64_t *succ_start, const int64_t *succ,
                const int64_t *roots, int64_t n_groups, int64_t front_syncs,
                const double *par, int64_t *iwork, double *fwork, double *out)
{
    const double nx = par[0], cap = par[1], cb = par[2], bw = par[3],
                 sync = par[4];
    int64_t *rem = iwork, *ready = rem + n_tiles, *tile = ready + n_tiles,
            *fin = tile + n_groups;
    double *over = fwork, *left = over + n_groups;
    int64_t head = 0, tail = 0, n_run = 0, done = 0, k;
    double now = 0.0, total_lups = 0.0, total_bytes = 0.0;

    for (k = 0; k < n_tiles; k++)
        rem[k] = npred[k];
    for (k = 0; k < n_roots; k++)
        ready[tail++] = roots[k];

    while (done < n_tiles) {
        while (n_run < n_groups && head < tail) { /* dispatch */
            int64_t t = ready[head++];
            int64_t syncs = front_syncs < 0 ? 0 : front_syncs + rows[t];
            tile[n_run] = t;
            left[n_run] = lups[t] * nx;
            over[n_run] = sync * (double)(2 + syncs);
            n_run++;
        }
        if (!n_run)
            return 1;

        double share = bw / (double)n_run, rate;
        if (cap * cb <= share + 1e-9)
            rate = cap;
        else
            rate = cb > 0 ? share / cb : cap;

        double dt = over[0] + left[0] / rate;
        for (k = 1; k < n_run; k++) {
            double t = over[k] + left[k] / rate;
            if (t < dt)
                dt = t;
        }
        now += dt;

        int64_t n_fin = 0;
        for (k = 0; k < n_run; k++) {
            if (over[k] >= dt) {
                over[k] -= dt;
                continue;
            }
            double progress = (dt - over[k]) * rate;
            over[k] = 0.0;
            left[k] -= progress;
            total_lups += progress;
            total_bytes += progress * cb;
            if (left[k] <= 1e-6)
                fin[n_fin++] = k;
        }
        for (k = n_fin - 1; k >= 0; k--) { /* complete, last dispatched first */
            int64_t t = tile[fin[k]], e;
            for (e = succ_start[t]; e < succ_start[t + 1]; e++) {
                int64_t u = succ[e];
                if (--rem[u] == 0)
                    ready[tail++] = u;
                else if (rem[u] < 0)
                    return 2 + u;
            }
            done++;
        }
        if (n_fin) { /* drop the finished, keeping dispatch order */
            int64_t w = 0, f = 0;
            for (k = 0; k < n_run; k++) {
                if (f < n_fin && fin[f] == k) {
                    f++;
                    continue;
                }
                tile[w] = tile[k];
                over[w] = over[k];
                left[w] = left[k];
                w++;
            }
            n_run = w;
        }
    }
    out[0] = now;
    out[1] = total_lups;
    out[2] = total_bytes;
    return 0;
}
