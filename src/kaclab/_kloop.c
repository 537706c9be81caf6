/* The proposal loop of kaclab's engine, compiled, and the rows of its
 * tilt pair sums.
 *
 * kac_run is `_Engine.propose` repeated up to the end of a segment, tracked
 * or not: given a ledger it also keeps its pair sum, unless the rows are
 * constant, and settles the compensator and jump terms; given a cost it
 * keeps the pair sum of tau(K) B from the same distances and integrates
 * the dynamic cost over the spans between events.
 * It works in place on the engine's own arrays (velocities, speeds,
 * Fenwick tree and weights, draw buffers, event columns) and does every
 * operation of the Python loop in its order, so event logs, states and
 * ledgers are bit-identical to it:
 *   - a dot product is an FMA chain s = fma(x_k, y_k, s), as numpy's BLAS
 *     computes a short `x @ y` (checked against numpy when loaded);
 *   - a row is summed in numpy's pairwise order (kac_sum, also checked
 *     when loaded);
 *   - all other arithmetic is unfused (built with -ffp-contract=off);
 *   - an empty draw buffer is refilled through the callback at exactly the
 *     draw where the Python loop refills it.
 * kac_rows evaluates the rows f(K) B of `engine._TiltPairSum` in the order
 * of `metrics._distances` and `TiltingScheme.pair_k`, and sums them block
 * by block; kac_pair_rows and kac_pair_update are `_PairSum.pre_collision`
 * and `post_collision` on them.
 * kac_replay applies a range of rows of an event log to the velocities with
 * kac_run's collision arithmetic, so a replayed state is the simulated one
 * to the bit; it is `engine.replay_rows`, the walk of a log that keeps no
 * pair sum, and can also write each collision's velocities before and
 * after it.
 * Errors are returned as status codes; the caller raises the Python loop's
 * exception for each.
 * The transport solve of `metrics` and the event CSV of `config_io` are not
 * part of the engine: they are in _ktools.c, built as a library of its
 * own, so that an edit there leaves this library's bytes, and its code's
 * addresses, as they are.
 *
 * The rows are nearly all of a tracked run, and each element of a row is
 * made once, in registers, straight from the velocities: no distance row
 * and no old row is stored or read back.  A build writes f(K) B in one
 * pass per row and sums each block of rows in C.  A collision saves the
 * pair's velocities before it (kac_pair_rows, or kac_run itself), and
 * after it one pass per particle a of the pair writes dh = h(new) - h(old)
 * for every b, from |v_a^new - v_b| and |v_a^old - v_b|; at b in {i, j}
 * that pass reads the new v_b, so those four entries are made again from
 * the saved and the new velocities.  h(new) - h(old) is the old two-phase
 * update's new - (old - +0.0) to the bit.  A pair's scratch holds dh of
 * its two rows (2n doubles), then its two velocities (2d).
 *
 * kac_rows and collision_rows, the one entry of a collision's rows (kac_run
 * and kac_pair_update call it), are cloned on x86-64 with glibc: built for
 * x86-64-v4 (AVX-512) and for baseline x86-64, with the helpers they call
 * inlined into each.  The loader picks the clone when the library is
 * loaded, so the build key (source and compile command) is unchanged.  The
 * clones are bit-identical: at d = 3 the row loops have no branch, and
 * each lane does the scalar loop's correctly rounded sub, mul, add and
 * sqrt in its order, unfused.  Any other d runs the same loop body with d
 * and the row's shape read at run time.  -DKAC_NO_CLONES builds the
 * baseline version alone, as on every other host.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef int (*refill_fn)(int which); /* 0 uniforms, 1 exponentials, 2 normals */

/* slots of the scalar arrays shared with the caller */
enum { F_T, F_COMP, F_TEND, F_C, F_INFL, F_GAMMA, F_KB, F_MAJ, F_TOTAL, F_COMPENSATOR, F_JUMP,
       F_COST_TOTAL, F_COST, F_COST_T };
enum { K_IU, K_IE, K_IN, K_EVENTS, K_COLL, K_SIZE, K_CAP, K_I, K_J, K_HIT };

enum { DONE = 0, GROW = 1, ERR_MAJORANT = -1, ERR_WEIGHT = -2, ERR_ZERO_TOTAL = -3,
       ERR_REFILL = -4, ERR_INDEX = -5, ERR_LOG = -6 }; /* _ktools.c goes on from -7 */

/* the pair function f(K) of a row: K - 1, or a table of f at the three
 * values K takes at delta = 0: 0 (a frozen pair), c, and the NaN of a
 * non-finite distance */
enum { F_K_MINUS_1, F_K_TABLE };

/* the rows f(K) B on one scheme interval: K = c (1 + delta u) live_a live_b,
 * B = 1 + beta u, u = |v_a - v_b| (`engine._TiltPairSum`) */
struct rowspec {
    const double *V;    /* (n, d) velocities in C order */
    const double *live; /* 1.0 outside the frozen set, 0.0 in it; all 1.0 when none is */
    double *scratch;    /* 2n + 2d doubles: dh of a pair's two rows, then the pair's
                         * velocities before the collision */
    int64_t n, d, f;
    int64_t constant;   /* the rows never change: one value, or at beta = delta = 0
                         * the two values f(0) on frozen pairs and f(c) elsewhere */
    double c, delta, beta;
    double f0, fc, fnan; /* a table f */
};

/* the clones of the row entries: the loader picks one through glibc's
 * ifunc, so only x86-64 with glibc has them */
#if defined(__x86_64__) && defined(__GLIBC__) && !defined(KAC_NO_CLONES)
#define CLONED __attribute__((target_clones("arch=x86-64-v4", "default")))
#else
#define CLONED
#endif
/* the helpers of the rows: each clone inlines its own copy */
#define INLINE static inline __attribute__((always_inline))

double kac_dot(const double *x, const double *y, int64_t d)
{
    double s = 0.0;
    for (int64_t k = 0; k < d; k++)
        s = fma(x[k], y[k], s);
    return s;
}

/* numpy's pairwise summation of n doubles: under 8 elements one loop, up
 * to 128 eight accumulators, above that two halves split at a multiple
 * of 8 */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        for (int q = 0; q < 8; q++)
            r[q] = a[q];
        int64_t i;
        for (i = 8; i < n - n % 8; i += 8)
            for (int q = 0; q < 8; q++)
                r[q] += a[i + q];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* `a.sum()` of a contiguous array: the reduction starts from +0.0 */
double kac_sum(const double *a, int64_t n)
{
    return 0.0 + pairwise(a, n);
}

/* |v_b - v_a|: the sum of squares in coordinate order, unfused, then sqrt,
 * as `metrics._distances` */
INLINE double dist(const double *va, const double *vb, int64_t d)
{
    double t = vb[0] - va[0], s = t * t;
    for (int64_t q = 1; q < d; q++) {
        t = vb[q] - va[q];
        s += t * t;
    }
    return sqrt(s);
}

/* the pair functions of a pass: the spec's K, B and f, the cost's table,
 * and the shape, which selects the copy of the row loop (a spec with a
 * cost holds the ledger's K - 1 rows) */
struct pairfn {
    double c, delta, beta, f0, fc, fnan, g0, gc, gnan;
    int table, scaled, with_cost;
};

INLINE struct pairfn pairfn_of(const struct rowspec *sp, const struct rowspec *cost)
{
    struct pairfn k = {sp->c, sp->delta, sp->beta, sp->f0, sp->fc, sp->fnan, 0.0, 0.0, 0.0,
                       sp->f == F_K_TABLE, sp->beta != 0.0, cost != 0};
    if (cost) {
        k.g0 = cost->f0;
        k.gc = cost->fc;
        k.gnan = cost->fnan;
    }
    return k;
}

/* h = f(K) B of one pair at distance u with live product l (live_a live_b):
 * K = c (1 + delta u) l, f a table or K - 1, B = 1 unless scaled; with a
 * cost also *g = tau(K) B from the same K and B, by the cost's table.  The
 * one copy of the element arithmetic, in `_TiltPairSum.rows`' order */
INLINE double pair_h(const struct pairfn *k, double u, double l, double *g, const int table,
                     const int scaled, const int with_cost)
{
    double kk = k->c * (1.0 + k->delta * u);
    kk = kk * l;
    double fk = table ? (kk == 0.0 ? k->f0 : kk == k->c ? k->fc : k->fnan) : kk - 1.0;
    double b = scaled ? 1.0 + k->beta * u : 1.0;
    if (with_cost) {
        double gk = kk == 0.0 ? k->g0 : kk == k->c ? k->gc : k->gnan;
        *g = scaled ? gk * b : gk;
    }
    return scaled ? fk * b : fk;
}

/* one pass over the row of a: o[b] = h(a, b), and with a cost cost_o[b] =
 * g(a, b); after a collision (post), with old a's velocity before it, the
 * change h(new) - h(old) instead, each from v_b as it is in V.  No branch
 * in the loop where the flags are constants: live is a row of 1.0 when
 * nothing is frozen (k * (1.0 * 1.0) == k) */
INLINE void row_pass(const struct rowspec *sp, const struct pairfn *kp, int64_t a,
                     const double *restrict old, double *restrict o, double *restrict cost_o,
                     const int64_t d, const int table, const int scaled, const int with_cost,
                     const int post)
{
    const struct pairfn k = *kp;
    const double *restrict V = sp->V, *restrict live = sp->live;
    const int64_t n = sp->n;
    const double *va = V + a * d, la = live[a];
    for (int64_t b = 0; b < n; b++) {
        const double *vb = V + b * d;
        const double l = la * live[b];
        double g = 0.0, g0 = 0.0;
        double h = pair_h(&k, dist(va, vb, d), l, &g, table, scaled, with_cost);
        if (post) {
            h -= pair_h(&k, dist(old, vb, d), l, &g0, table, scaled, with_cost);
            g -= g0;
        }
        o[b] = h;
        if (with_cost)
            cost_o[b] = g;
    }
}

/* row_pass for the shape of k: the ledger's K - 1 with the cost's table,
 * or sp's f alone, each with B or without, at d = 3 as constants; at any
 * other d the same pass with the shape read at each pair */
INLINE void row(const struct rowspec *sp, const struct pairfn *k, int64_t a, const double *old,
                double *o, double *cost_o, const int post)
{
    const int table = k->table, scaled = k->scaled, with_cost = k->with_cost;
    if (sp->d != 3)
        row_pass(sp, k, a, old, o, cost_o, sp->d, table, scaled, with_cost, post);
    else if (with_cost && scaled)
        row_pass(sp, k, a, old, o, cost_o, 3, 0, 1, 1, post);
    else if (with_cost)
        row_pass(sp, k, a, old, o, cost_o, 3, 0, 0, 1, post);
    else if (!table && scaled)
        row_pass(sp, k, a, old, o, 0, 3, 0, 1, 0, post);
    else if (!table)
        row_pass(sp, k, a, old, o, 0, 3, 0, 0, 0, post);
    else if (scaled)
        row_pass(sp, k, a, old, o, 0, 3, 1, 1, 0, post);
    else
        row_pass(sp, k, a, old, o, 0, 3, 1, 0, 0, post);
}

/* every row, in blocks of m rows written into out, (m, n) in C order, and
 * each block summed as numpy sums it (kac_sum over the block) into
 * sums[2 k]; with a cost (sp then holds the ledger's K - 1 rows) the
 * cost's rows from the same distances into cost_out, and their sum into
 * sums[2 k + 1] (0.0 without) */
CLONED void kac_rows(const struct rowspec *sp, const struct rowspec *cost, int64_t m,
                     double *out, double *cost_out, double *sums)
{
    const int64_t n = sp->n;
    const struct pairfn k = pairfn_of(sp, cost);
    for (int64_t first = 0; first < n; first += m, sums += 2) {
        const int64_t rows = m < n - first ? m : n - first;
        for (int64_t r = 0; r < rows; r++)
            row(sp, &k, first + r, 0, out + r * n, cost ? cost_out + r * n : 0, 0);
        sums[0] = kac_sum(out, rows * n);
        sums[1] = cost ? kac_sum(cost_out, rows * n) : 0.0;
    }
}

/* a collision's change of the rows of the pair (i, j), dh = h(new) -
 * h(old) of each row, into the first 2n doubles of scratch, from the
 * pair's velocities before the collision, saved after them by
 * kac_pair_rows; with a cost, its dh into its own scratch alike, in the
 * order (i, j) or, when swapped, (j, i).  One pass per particle reads the
 * new v_i and v_j at b in {i, j}, so those four entries are made again
 * from the saved and the new velocities.  The one entry of the pair rows,
 * out of line so that it can be cloned */
static CLONED void collision_rows(const struct rowspec *sp, const struct rowspec *cost,
                                  int64_t i, int64_t j, int swapped)
{
    const int64_t n = sp->n, d = sp->d;
    const struct pairfn k = pairfn_of(sp, cost);
    const double *saved = sp->scratch + 2 * n;
    for (int p = 0; p < 2; p++) /* p: i or j, a row of the pair */
        row(sp, &k, p ? j : i, saved + p * d, sp->scratch + p * n,
            cost ? cost->scratch + (p != swapped ? n : 0) : 0, 1);
    for (int p = 0; p < 4; p++) { /* the entries (a, b), a and b in {i, j} */
        const int pa = p >> 1, pb = p & 1;
        const int64_t a = pa ? j : i, b = pb ? j : i;
        const double l = sp->live[a] * sp->live[b];
        double g = 0.0, g0 = 0.0;
        double h = pair_h(&k, dist(sp->V + a * d, sp->V + b * d, d), l, &g, k.table, k.scaled,
                          k.with_cost);
        h -= pair_h(&k, dist(saved + pa * d, saved + pb * d, d), l, &g0, k.table, k.scaled,
                    k.with_cost);
        sp->scratch[pa * n + b] = h;
        if (cost)
            cost->scratch[(pa != swapped ? n : 0) + b] = g - g0;
    }
}

/* the change of the pair sum from dh of the pair (a, b), as
 * `_PairSum.post_collision` */
static double settle(const struct rowspec *sp, int64_t a, int64_t b)
{
    const int64_t n = sp->n;
    const double *dh = sp->scratch;
    return ((2.0 * kac_sum(dh, 2 * n) - dh[a]) - dh[n + b]) - 2.0 * dh[b];
}

/* _PairSum.pre_collision: the velocities of i and j, after dh in scratch */
void kac_pair_rows(const struct rowspec *sp, int64_t i, int64_t j)
{
    const int64_t d = sp->d;
    double *saved = sp->scratch + 2 * sp->n;
    for (int64_t q = 0; q < d; q++) {
        saved[q] = sp->V[i * d + q];
        saved[d + q] = sp->V[j * d + q];
    }
}

/* _PairSum.post_collision: dh into scratch; returns the change of the
 * pair sum */
double kac_pair_update(const struct rowspec *sp, int64_t i, int64_t j)
{
    collision_rows(sp, 0, i, j, 0);
    return settle(sp, i, j);
}

static double fen_total(const double *tree, int64_t n)
{
    double s = 0.0;
    for (int64_t i = n; i > 0; i -= i & -i)
        s += tree[i];
    return s;
}

static int fen_update(double *tree, double *weights, int64_t n, int64_t i, double w)
{
    if (w < 0.0 || !isfinite(w))
        return ERR_WEIGHT;
    double delta = w - weights[i];
    weights[i] = w;
    for (int64_t j = i + 1; j <= n; j += j & -j)
        tree[j] += delta;
    return DONE;
}

static int fen_sample(const double *tree, int64_t n, double u, int64_t *out)
{
    double total = fen_total(tree, n);
    double target = u * total;
    if (total <= 0.0)
        return ERR_ZERO_TOTAL;
    int64_t idx = 0;
    for (int64_t bit = (int64_t)1 << (64 - __builtin_clzll((uint64_t)n)); bit; bit >>= 1) {
        int64_t nxt = idx + bit;
        if (nxt <= n && tree[nxt] <= target) {
            idx = nxt;
            target -= tree[nxt];
        }
    }
    *out = idx < n - 1 ? idx : n - 1;
    return DONE;
}

#define DRAW(x, buf, pos, which)                                         \
    do {                                                                 \
        if (pos == chunk) {                                              \
            if (refill(which)) { status = ERR_REFILL; goto out; }        \
            pos = 0;                                                     \
        }                                                                \
        (x) = buf[pos++];                                                \
    } while (0)
#define CHECK(call) do { if ((status = (call)) != DONE) goto out; } while (0)
#define SIGMA(k) (neg ? -(raw[k] / nrm) : raw[k] / nrm)

/* the compensator over dt: dt (1/N) sum (K - 1) B, as _settle_compensator */
#define SETTLE(dt)                                                        \
    do {                                                                  \
        if (led && (dt) > 0.0)                                            \
            compensator += (dt) * (total / (double)n);                    \
    } while (0)

/* led: the ledger's K and its K - 1 rows on this interval (NULL: none);
 * cost: the tau(K) B rows of the same interval (NULL: none), whose pair sum
 * is updated at the recorded pair, as a replay of the log updates it */
int kac_run(double *f, int64_t *k, int64_t n, int64_t d, int64_t chunk,
            double *V, double *speeds, double *tree, double *weights,
            const uint8_t *frozen, const double *ubuf, const double *ebuf,
            const double *nbuf, refill_fn refill,
            double *ev_t, int64_t *ev_i, int64_t *ev_j, double *ev_sigma,
            int8_t *ev_asg, uint8_t *ev_fict, const struct rowspec *led,
            const struct rowspec *cost)
{
    double t = f[F_T], comp = f[F_COMP];
    const double t_end = f[F_TEND], c = f[F_C], infl = f[F_INFL], gamma = f[F_GAMMA];
    double total = f[F_TOTAL], compensator = f[F_COMPENSATOR], jump = f[F_JUMP];
    /* the cost's pair sum, the cost so far, and the time it reaches */
    double cost_total = f[F_COST_TOTAL], cost_so_far = f[F_COST], cost_t = f[F_COST_T];
    const double nn = (double)(n * n);
    int64_t iu = k[K_IU], ie = k[K_IE], in = k[K_IN];
    int64_t events = k[K_EVENTS], coll = k[K_COLL], size = k[K_SIZE];
    const int rows = led && !led->constant; /* rows that change at collisions */
    int64_t hit = k[K_HIT];
    int status = DONE;

    for (;;) {
        if (ev_t && size == k[K_CAP]) {
            status = GROW;
            break;
        }
        double a_sum = gamma > 0.0 ? fen_total(tree, n) : 0.0;
        double rate = c * infl * ((double)n + 2.0 * gamma * a_sum);
        if (rate <= 0.0) {
            SETTLE(t_end - t);
            t = t_end;
            comp = 0.0;
            break;
        }
        double e, u;
        DRAW(e, ebuf, ie, 1);
        double dt = e / rate;
        if (t + dt >= t_end) {
            SETTLE(t_end - t);
            t = t_end;
            comp = 0.0;
            break;
        }
        SETTLE(dt);
        double y = dt - comp, s = t + y; /* Kahan-summed clock */
        comp = (s - t) - y;
        t = s;
        if (cost) { /* the span since the last event, as dynamic_cost's replay */
            double span = t - cost_t;
            if (span > 0.0)
                cost_so_far += span * cost_total / nn;
            cost_t = t;
        }

        /* mixture component, then the ordered pair */
        int64_t i, j;
        DRAW(u, ubuf, iu, 0);
        double pick = u * ((double)n + 2.0 * gamma * a_sum);
        if (pick < (double)n) {
            DRAW(u, ubuf, iu, 0);
            i = (int64_t)(u * (double)n);
            DRAW(u, ubuf, iu, 0);
            j = (int64_t)(u * (double)n);
        } else if (pick < (double)n + gamma * a_sum) {
            DRAW(u, ubuf, iu, 0);
            CHECK(fen_sample(tree, n, u, &i));
            DRAW(u, ubuf, iu, 0);
            j = (int64_t)(u * (double)n);
        } else {
            DRAW(u, ubuf, iu, 0);
            CHECK(fen_sample(tree, n, u, &j));
            DRAW(u, ubuf, iu, 0);
            i = (int64_t)(u * (double)n);
        }
        if (i < 0 || i >= n || j < 0 || j >= n) {
            status = ERR_INDEX;
            goto out;
        }

        const double *raw;
        double nrm;
        do {
            if (in + d > chunk) {
                if (refill(2)) { status = ERR_REFILL; goto out; }
                in = 0;
            }
            raw = nbuf + in;
            in += d;
            nrm = sqrt(kac_dot(raw, raw, d));
        } while (nrm < 1e-300);
        double u_accept;
        DRAW(u, ubuf, iu, 0);
        int asg = (int)(u * 4.0);
        DRAW(u_accept, ubuf, iu, 0);

        double *vi = V + i * d, *vj = V + j * d;
        double u_dist = 0.0;
        if (i != j) {
            double s2 = 0.0;
            for (int64_t q = 0; q < d; q++) {
                double dq = vi[q] - vj[q];
                s2 = fma(dq, dq, s2);
            }
            u_dist = sqrt(s2);
        }
        int frozen_pair = frozen && (frozen[i] || frozen[j]);
        double kb = frozen_pair ? 0.0 : c * (1.0 + gamma * u_dist);
        double majorant = c * infl * (1.0 + gamma * (speeds[i] + speeds[j]));
        if (kb > majorant * (1.0 + 1e-12)) {
            f[F_KB] = kb;
            f[F_MAJ] = majorant;
            k[K_I] = i;
            k[K_J] = j;
            status = ERR_MAJORANT;
            goto out;
        }
        int accepted = u_accept * majorant < kb;

        /* recorded assignment view: 0 (i,j,s) 1 (i,j,-s) 2 (j,i,s) 3 (j,i,-s) */
        int64_t ri = asg >= 2 ? j : i, rj = asg >= 2 ? i : j;
        int neg = asg % 2;
        if (accepted) {
            coll++;
            if (led) {
                if (!(led->live[i] != 0.0 && led->live[j] != 0.0)) {
                    hit = 1;
                } else {
                    double arg = led->c * (1.0 + led->delta * u_dist);
                    if (arg <= 0.0) { /* math.log refuses it */
                        status = ERR_LOG;
                        goto out;
                    }
                    jump += log(arg);
                }
            }
            if (i != j) {
                if (rows)
                    kac_pair_rows(led, i, j);
                /* kinetics._collide in the recorded parametrisation */
                double *a = V + ri * d, *b = V + rj * d;
                double dot = 0.0;
                for (int64_t q = 0; q < d; q++)
                    dot = fma(a[q] - b[q], SIGMA(q), dot);
                for (int64_t q = 0; q < d; q++) {
                    double step = dot * SIGMA(q);
                    a[q] = a[q] - step;
                    b[q] = b[q] + step;
                }
                speeds[i] = sqrt(kac_dot(vi, vi, d));
                speeds[j] = sqrt(kac_dot(vj, vj, d));
                if (tree) {
                    CHECK(fen_update(tree, weights, n, i, speeds[i]));
                    CHECK(fen_update(tree, weights, n, j, speeds[j]));
                }
                if (rows) {
                    collision_rows(led, cost, i, j, ri != i);
                    total += settle(led, i, j);
                    if (cost)
                        cost_total += settle(cost, ri, rj);
                }
            }
        }
        if (ev_t) {
            ev_t[size] = t;
            ev_i[size] = ri;
            ev_j[size] = rj;
            for (int64_t q = 0; q < d; q++)
                ev_sigma[size * d + q] = SIGMA(q);
            ev_asg[size] = (int8_t)asg;
            ev_fict[size] = !accepted;
            size++;
        }
        events++;
    }
out:
    f[F_T] = t;
    f[F_COMP] = comp;
    f[F_TOTAL] = total;
    f[F_COMPENSATOR] = compensator;
    f[F_JUMP] = jump;
    f[F_COST_TOTAL] = cost_total;
    f[F_COST] = cost_so_far;
    f[F_COST_T] = cost_t;
    k[K_HIT] = hit;
    k[K_IU] = iu;
    k[K_IE] = ie;
    k[K_IN] = in;
    k[K_EVENTS] = events;
    k[K_COLL] = coll;
    k[K_SIZE] = size;
    return status;
}

/* rows start..stop-1 of an event log (columns i, j, sigma, fictitious)
 * applied to V in place, as `engine.replay_events` walks them: fictitious
 * rows are skipped and a diagonal row leaves V unchanged; any other row is
 * kac_run's collision, an FMA-chain dot product and unfused steps.  With
 * pairs, each non-fictitious row also writes (v_i, v_j) before it and
 * after it, four rows of d doubles, into the next 4d of pairs */
int kac_replay(double *V, int64_t n, int64_t d, const int64_t *ev_i, const int64_t *ev_j,
               const double *ev_sigma, const uint8_t *ev_fict, int64_t start, int64_t stop,
               double *pairs)
{
    for (int64_t r = start; r < stop; r++) {
        if (ev_fict[r])
            continue;
        int64_t i = ev_i[r], j = ev_j[r];
        if (i < 0 || i >= n || j < 0 || j >= n)
            return ERR_INDEX;
        double *a = V + i * d, *b = V + j * d;
        const double *s = ev_sigma + r * d;
        if (pairs)
            for (int64_t q = 0; q < d; q++) {
                pairs[q] = a[q];
                pairs[d + q] = b[q];
            }
        if (i != j) {
            double dot = 0.0;
            for (int64_t q = 0; q < d; q++)
                dot = fma(a[q] - b[q], s[q], dot);
            for (int64_t q = 0; q < d; q++) {
                double step = dot * s[q];
                a[q] = a[q] - step;
                b[q] = b[q] + step;
            }
        }
        if (pairs) {
            for (int64_t q = 0; q < d; q++) {
                pairs[2 * d + q] = a[q];
                pairs[3 * d + q] = b[q];
            }
            pairs += 4 * d;
        }
    }
    return DONE;
}
