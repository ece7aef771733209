/*
 * Per-element passes of the population-at-once batch kernel
 * (repro.sim.batchkernel): element hashing, per-queue fingerprints and
 * lengths, the queue-state table probes, bucketing and ordering of
 * missed queues, the finish-time fold, and the utility/energy folds.
 *
 * The time-utility functions are *not* evaluated here: between the two
 * entry points Python runs TUFTable.evaluate over the missed elements'
 * elapsed times, so there is exactly one TUF implementation (NumPy's
 * vectorised exp and libm's exp need not agree in the last bit).
 *
 * Every fold is a sequential left fold in the order the scalar oracle
 * batch_reference_row uses, so results are bit-identical to it.  Each
 * queue's folds start from its backlog: the fold state (exec-time sum,
 * running max, utility, energy, last finish) of work queued before the
 * evaluated tasks.  The identity backlog (0, -inf, 0, 0, -inf) is an
 * empty queue.  Cached queue states are valid for one backlog only, so
 * a kernel's backlog is fixed for its life.  Build
 * with -ffp-contract=off (no fused multiply-add) and without
 * -ffast-math, which would license reassociation.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define BK_ABI_VERSION 2
#define BK_MAX_PROBES 32
#define BK_INSERTION_RUN 16

static const uint64_t MIX1 = 0xFF51AFD7ED558CCDULL;
static const uint64_t MIX2 = 0xC4CEB9FE1A85EC53ULL;
static const uint64_t PHI = 0x9E3779B97F4A7C15ULL;

/* Mirrored field for field by _native._Context; every field is 8 bytes
 * wide so the layout has no padding. */
typedef struct {
    int64_t T, M, Mq, use_cache;
    int64_t n_slots, shift, capacity;
    int64_t seg_cap, elem_cap;
    const int64_t *qg;          /* machine -> queue id */
    const uint64_t *r_sym;      /* odd random word per (task, machine) */
    const double *etc, *eec;    /* (T, M) row-major */
    const double *arrivals;     /* (T,) */
    const int64_t *task_types;  /* (T,) */
    const double *backlog;      /* (5, Mq): cs, rm, utility, energy, finish */
    /* queue-state table */
    uint64_t *keys, *checks;
    uint8_t *used;
    double *values;             /* (3, n_slots): utility, energy, finish */
    int64_t *table_meta;        /* entries, evictions */
    /* grow-only scratch */
    uint64_t *qkey;             /* (seg_cap,) queue fingerprints */
    int64_t *segi;              /* (4, seg_cap + 1): len, cursor, miss, start */
    double *segf;               /* (5, seg_cap): cs, rm, utility, energy,
                                   finish -- the queues' end states */
    int64_t *elems;             /* (2, elem_cap, 2): (order, task) pairs */
    double *elapsed;            /* (elem_cap,) missed elements' elapsed */
    int64_t *types;             /* (elem_cap,) missed elements' task type */
    int64_t *counts;            /* hits, misses, hit elements, queues, missed elements */
} bk_ctx;

typedef struct {
    int64_t order, task;
} bk_elem;

int64_t bk_abi_version(void) { return BK_ABI_VERSION; }

static inline uint64_t order_mix(int64_t order)
{
    uint64_t x = (uint64_t)order * PHI + 1u;
    x ^= x >> 33;
    x *= MIX1;
    x ^= x >> 29;
    x *= MIX2;
    x ^= x >> 32;
    return (x << 1) | 1u; /* odd: the product never collapses to even-only */
}

/* np.maximum semantics: a NaN in either operand propagates, and on a
 * tie the running value is kept. */
static inline double max_nan(double run, double x)
{
    return (run >= x || run != run) ? run : x;
}

static inline uint64_t home_slot(const bk_ctx *c, uint64_t key)
{
    return (key * PHI) >> c->shift; /* Fibonacci hashing */
}

static int64_t table_lookup(const bk_ctx *c, uint64_t key, uint64_t check)
{
    uint64_t mask = (uint64_t)c->n_slots - 1u;
    uint64_t home = home_slot(c, key);
    for (int r = 0; r < BK_MAX_PROBES; ++r) {
        uint64_t s = (home + (uint64_t)r) & mask;
        if (!c->used[s])
            return -1;
        if (c->keys[s] == key && c->checks[s] == check)
            return (int64_t)s;
    }
    return -1;
}

static void table_insert(bk_ctx *c, uint64_t key, uint64_t check,
                         double u, double e, double f)
{
    uint64_t mask = (uint64_t)c->n_slots - 1u;
    uint64_t home = home_slot(c, key);
    for (int r = 0; r < BK_MAX_PROBES; ++r) {
        uint64_t s = (home + (uint64_t)r) & mask;
        if (!c->used[s]) {
            c->used[s] = 1;
            c->keys[s] = key;
            c->checks[s] = check;
            c->values[s] = u;
            c->values[c->n_slots + s] = e;
            c->values[2 * c->n_slots + s] = f;
            c->table_meta[0] += 1;
            return;
        }
        if (c->keys[s] == key && c->checks[s] == check)
            return; /* same content, same values */
    }
    /* probe cap reached: the cache is lossy, drop the entry */
}

/* Stable sort by order key.  Elements arrive in ascending task index,
 * so stability yields the oracle's (order key, task index) order. */
static void sort_queue(bk_elem *a, bk_elem *tmp, int64_t n)
{
    for (int64_t lo = 0; lo < n; lo += BK_INSERTION_RUN) {
        int64_t hi = lo + BK_INSERTION_RUN < n ? lo + BK_INSERTION_RUN : n;
        for (int64_t i = lo + 1; i < hi; ++i) {
            bk_elem x = a[i];
            int64_t j = i;
            while (j > lo && a[j - 1].order > x.order) {
                a[j] = a[j - 1];
                --j;
            }
            a[j] = x;
        }
    }
    bk_elem *src = a, *dst = tmp;
    for (int64_t width = BK_INSERTION_RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = lo + width < n ? lo + width : n;
            int64_t hi = lo + 2 * width < n ? lo + 2 * width : n;
            int64_t i = lo, j = mid, k = lo;
            while (i < mid && j < hi)
                dst[k++] = src[j].order < src[i].order ? src[j++] : src[i++];
            while (i < mid)
                dst[k++] = src[i++];
            while (j < hi)
                dst[k++] = src[j++];
        }
        bk_elem *t = src;
        src = dst;
        dst = t;
    }
    if (src != a)
        memcpy(a, src, (size_t)n * sizeof(bk_elem));
}

/*
 * Pass 1: fingerprint every queue of every row, answer the queues the
 * table holds, and for the rest sort their elements into queue order
 * and run the finish-time and energy folds.  Leaves the missed
 * elements' elapsed times and task types in c->elapsed / c->types for
 * the TUF evaluation, and every queue's exec-time sum and running max
 * in c->segf (NaN for a queue the table answered: it stores neither).
 * Returns the number of missed elements, or -1 when an assignment
 * names a machine outside [0, M).
 */
int64_t bk_probe_fold(bk_ctx *c, const int64_t *assign, const int64_t *order,
                      int64_t N)
{
    const int64_t T = c->T, M = c->M, Mq = c->Mq, n_seg = N * Mq;
    int64_t *len = c->segi, *cursor = c->segi + c->seg_cap + 1;
    int64_t *miss = c->segi + 2 * (c->seg_cap + 1);
    int64_t *start = c->segi + 3 * (c->seg_cap + 1);
    const double *bl = c->backlog;
    double *csq = c->segf, *rmq = c->segf + c->seg_cap;
    double *uq = c->segf + 2 * c->seg_cap, *eq = c->segf + 3 * c->seg_cap;
    double *fq = c->segf + 4 * c->seg_cap;
    bk_elem *elems = (bk_elem *)c->elems;
    bk_elem *tmp = elems + c->elem_cap;

    memset(c->qkey, 0, (size_t)n_seg * sizeof(uint64_t));
    memset(len, 0, (size_t)n_seg * sizeof(int64_t));
    for (int64_t r = 0; r < N; ++r) {
        const int64_t *ar = assign + r * T, *orr = order + r * T;
        for (int64_t t = 0; t < T; ++t) {
            uint64_t m = (uint64_t)ar[t];
            if (m >= (uint64_t)M)
                return -1;
            int64_t s = r * Mq + c->qg[m];
            c->qkey[s] += c->r_sym[t * M + (int64_t)m] * order_mix(orr[t]);
            len[s] += 1;
        }
    }

    const int probe = c->use_cache && c->table_meta[0] > 0;
    int64_t hits = 0, n_miss = 0, hit_elems = 0, queues = 0, n_elems = 0;
    for (int64_t s = 0; s < n_seg; ++s) {
        cursor[s] = -1;
        if (len[s] == 0) {
            const int64_t q = s % Mq;
            csq[s] = bl[q];
            rmq[s] = bl[Mq + q];
            uq[s] = bl[2 * Mq + q];
            eq[s] = bl[3 * Mq + q];
            fq[s] = bl[4 * Mq + q];
            continue;
        }
        queues += 1;
        if (probe) {
            /* The check word carries structure the sum-hash does not. */
            uint64_t check = ((uint64_t)len[s] << 20) | (uint64_t)(s % Mq);
            int64_t slot = table_lookup(c, c->qkey[s], check);
            if (slot >= 0) {
                uq[s] = c->values[slot];
                eq[s] = c->values[c->n_slots + slot];
                fq[s] = c->values[2 * c->n_slots + slot];
                csq[s] = NAN;
                rmq[s] = NAN;
                hits += 1;
                hit_elems += len[s];
                continue;
            }
        }
        miss[n_miss] = s;
        start[n_miss] = n_elems;
        cursor[s] = n_elems;
        n_elems += len[s];
        n_miss += 1;
    }
    start[n_miss] = n_elems;

    if (n_miss) {
        /* Bucket the missed queues' elements, ascending task index. */
        for (int64_t r = 0; r < N; ++r) {
            const int64_t *ar = assign + r * T, *orr = order + r * T;
            for (int64_t t = 0; t < T; ++t) {
                int64_t s = r * Mq + c->qg[ar[t]];
                int64_t p = cursor[s];
                if (p >= 0) {
                    elems[p].order = orr[t];
                    elems[p].task = t;
                    cursor[s] = p + 1;
                }
            }
        }
    }

    for (int64_t j = 0; j < n_miss; ++j) {
        const int64_t s = miss[j], lo = start[j], hi = start[j + 1];
        const int64_t q = s % Mq;
        const int64_t *ar = assign + (s / Mq) * T;
        sort_queue(elems + lo, tmp + lo, hi - lo);
        double cs = bl[q], rm = bl[Mq + q], f = bl[4 * Mq + q];
        double e_q = bl[3 * Mq + q];
        for (int64_t i = lo; i < hi; ++i) {
            const int64_t t = elems[i].task;
            const int64_t lin = t * M + ar[t];
            const double a = c->arrivals[t];
            const double key = a - cs;
            cs = cs + c->etc[lin];
            rm = max_nan(rm, key);
            f = rm + cs;
            c->elapsed[i] = f - a;
            c->types[i] = c->task_types[t];
            e_q = e_q + c->eec[lin];
        }
        csq[s] = cs;
        rmq[s] = rm;
        eq[s] = e_q;
        fq[s] = f;
    }

    c->counts[0] = hits;
    c->counts[1] = n_miss;
    c->counts[2] = hit_elems;
    c->counts[3] = queues;
    c->counts[4] = n_elems;
    return n_elems;
}

/*
 * Pass 2: fold the missed elements' utilities per queue (from the
 * queue's backlog utility), store the new queue states, and fold each
 * row's totals over ascending queue id.
 * *utility* holds one value per missed element in pass 1's order (it
 * may be NULL when nothing missed); out is (3, N): energy, utility,
 * makespan.
 */
void bk_fold_insert(bk_ctx *c, const double *utility, double *out, int64_t N)
{
    const int64_t Mq = c->Mq, n_miss = c->counts[1];
    const int64_t *len = c->segi;
    const int64_t *miss = c->segi + 2 * (c->seg_cap + 1);
    const int64_t *start = c->segi + 3 * (c->seg_cap + 1);
    double *uq = c->segf + 2 * c->seg_cap, *eq = c->segf + 3 * c->seg_cap;
    double *fq = c->segf + 4 * c->seg_cap;

    for (int64_t j = 0; j < n_miss; ++j) {
        double u_q = c->backlog[2 * Mq + miss[j] % Mq];
        for (int64_t i = start[j]; i < start[j + 1]; ++i)
            u_q = u_q + utility[i];
        uq[miss[j]] = u_q;
    }

    if (c->use_cache && n_miss) {
        /* Clear at half load: bounded memory, short probe chains. */
        if (c->table_meta[0] + n_miss > c->capacity) {
            memset(c->used, 0, (size_t)c->n_slots);
            c->table_meta[0] = 0;
            c->table_meta[1] += 1;
        }
        for (int64_t j = 0; j < n_miss; ++j) {
            const int64_t s = miss[j];
            uint64_t check = ((uint64_t)len[s] << 20) | (uint64_t)(s % Mq);
            table_insert(c, c->qkey[s], check, uq[s], eq[s], fq[s]);
        }
    }

    for (int64_t r = 0; r < N; ++r) {
        double e = 0.0, u = 0.0, f = -INFINITY;
        for (int64_t s = r * Mq; s < (r + 1) * Mq; ++s) {
            e = e + eq[s];
            u = u + uq[s];
            f = max_nan(f, fq[s]);
        }
        out[r] = e;
        out[N + r] = u;
        out[2 * N + r] = f;
    }
}
