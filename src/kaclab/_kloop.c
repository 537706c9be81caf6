/* The proposal loop of kaclab's engine, compiled, and the rows of its
 * tilt pair sums.
 *
 * kac_run is `_Engine.propose` repeated up to the end of a segment, tracked
 * or not: given a ledger it also keeps its pair sum, unless the rows are
 * constant, and settles the compensator and jump terms; given a cost it
 * keeps the pair sum of tau(K) B from the same distance rows and
 * integrates the dynamic cost over the spans between events.
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
 * of `engine._distances` and `TiltingScheme.pair_k`; kac_pair_rows and
 * kac_pair_update are `_PairSum.pre_collision` and `post_collision` on them.
 * kac_replay applies a range of rows of an event log to the velocities with
 * kac_run's collision arithmetic, so a replayed state is the simulated one
 * to the bit; it is `engine.replay_rows`, the walk of a log that keeps no
 * pair sum, and can also write each collision's velocities before and
 * after it.
 * Errors are returned as status codes; the caller raises the Python loop's
 * exception for each.
 * kac_transport, near the end of the file, is not part of the engine: it
 * lists the pairs closer than the cap from the points and solves the
 * transport problem of `metrics` on them by a network simplex.
 * Nor are kac_write_events and kac_read_events after it, which write and
 * read the event CSV of `config_io`.
 *
 * The rows are nearly all of a tracked run.  kac_rows and collision_rows,
 * the one entry of a collision's rows (kac_run, kac_pair_rows and
 * kac_pair_update call it), are cloned on x86-64 with glibc: built for
 * x86-64-v4 (AVX-512) and for baseline x86-64, with the helpers they call
 * inlined into each.  The loader picks the clone when the library is
 * loaded, so the build key (source and compile command) is unchanged.  The
 * clones are bit-identical: the row loops have no branch, and each lane
 * does the scalar loop's correctly rounded sub, mul, add and sqrt in its
 * order, unfused.  -DKAC_NO_CLONES builds the baseline version alone, as
 * on every other host.
 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

typedef int (*refill_fn)(int which); /* 0 uniforms, 1 exponentials, 2 normals */

/* slots of the scalar arrays shared with the caller */
enum { F_T, F_COMP, F_TEND, F_C, F_INFL, F_GAMMA, F_KB, F_MAJ, F_TOTAL, F_COMPENSATOR, F_JUMP,
       F_COST_TOTAL, F_COST, F_COST_T };
enum { K_IU, K_IE, K_IN, K_EVENTS, K_COLL, K_SIZE, K_CAP, K_I, K_J, K_HIT };

enum { DONE = 0, GROW = 1, ERR_MAJORANT = -1, ERR_WEIGHT = -2, ERR_ZERO_TOTAL = -3,
       ERR_REFILL = -4, ERR_INDEX = -5, ERR_LOG = -6, ERR_MEMORY = -7, ERR_PIVOTS = -8,
       ERR_ARTIFICIAL = -9 };

/* the pair function f(K) of a row: K - 1, or a table of f at the three
 * values K takes at delta = 0: 0 (a frozen pair), c, and the NaN of a
 * non-finite distance */
enum { F_K_MINUS_1, F_K_TABLE };

/* the rows f(K) B on one scheme interval: K = c (1 + delta u) live_a live_b,
 * B = 1 + beta u, u = |v_a - v_b| (`engine._TiltPairSum`) */
struct rowspec {
    const double *V;    /* (n, d) velocities in C order */
    const double *live; /* 1.0 outside the frozen set, 0.0 in it; all 1.0 when none is */
    const double *zero; /* n doubles of +0.0: the old row of a row that has none */
    double *scratch;    /* 6n doubles: the old rows of a pair, dh, distance rows */
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

/* o[b] = |v_a - v_b|, coordinate by coordinate as `engine._distances`, for
 * a constant d */
INLINE void distances(const double *restrict V, int64_t n, int64_t d, int64_t a,
                      double *restrict o)
{
    const double *va = V + a * d;
    for (int64_t b = 0; b < n; b++) {
        const double *vb = V + b * d;
        double t = vb[0] - va[0], s = t * t;
        for (int64_t q = 1; q < d; q++) {
            t = vb[q] - va[q];
            s += t * t;
        }
        o[b] = sqrt(s);
    }
}

/* the distance row of a into o: one pass at d = 3; at any other d a pass
 * per coordinate, in the same order, so no loop has an inner loop */
INLINE void dist_row(const struct rowspec *sp, int64_t a, double *restrict o)
{
    const double *restrict V = sp->V;
    const int64_t n = sp->n, d = sp->d;
    if (d == 3) {
        distances(V, n, 3, a, o);
        return;
    }
    const double *va = V + a * d;
    for (int64_t b = 0; b < n; b++) {
        double t = V[b * d] - va[0];
        o[b] = t * t;
    }
    for (int64_t q = 1; q < d; q++)
        for (int64_t b = 0; b < n; b++) {
            double t = V[b * d + q] - va[q];
            o[b] += t * t;
        }
    for (int64_t b = 0; b < n; b++)
        o[b] = sqrt(o[b]);
}

/* o[b] = f(K_ab) B_ab - old[b] from the distance row u[b] = |v_a - v_b|,
 * f a table or K - 1 and B = 1 unless scaled; with a cost, whose K and B
 * are this spec's, also cost_o[b] = tau(K_ab) B_ab - cost_old[b] from the
 * same K and B, by the cost's table.  Every load is unconditional, so the
 * loop has no branch and vectorises: live is a row of 1.0 when nothing is
 * frozen (k * (1.0 * 1.0) == k) and a missing old row is zero (x - +0.0
 * == x for every double, -0.0 and NaN too) */
INLINE void map_loop(const struct rowspec *sp, const struct rowspec *cost, int64_t a,
                     const double *restrict u, double *restrict o, double *restrict cost_o,
                     const double *restrict old, const double *restrict cost_old,
                     const int table, const int scaled)
{
    const int64_t n = sp->n;
    const double c = sp->c, delta = sp->delta, beta = sp->beta;
    const double f0 = sp->f0, fc = sp->fc, fnan = sp->fnan;
    const double g0 = cost ? cost->f0 : 0.0, gc = cost ? cost->fc : 0.0;
    const double gnan = cost ? cost->fnan : 0.0;
    const double *restrict live = sp->live;
    const double la = live[a];
    for (int64_t b = 0; b < n; b++) {
        double ub = u[b];
        double k = c * (1.0 + delta * ub);
        k = k * (la * live[b]);
        double fk = table ? (k == 0.0 ? f0 : k == c ? fc : fnan) : k - 1.0;
        o[b] = (scaled ? fk * (1.0 + beta * ub) : fk) - old[b];
        if (cost) {
            double gk = k == 0.0 ? g0 : k == c ? gc : gnan;
            cost_o[b] = (scaled ? gk * (1.0 + beta * ub) : gk) - cost_old[b];
        }
    }
}

/* map_loop for the shape of sp: the ledger's K - 1 with the cost's table,
 * or sp's f alone, each with B or without */
INLINE void map(const struct rowspec *sp, const struct rowspec *cost, int64_t a,
                const double *restrict u, double *restrict o, double *restrict cost_o,
                const double *restrict old, const double *restrict cost_old)
{
    const int scaled = sp->beta != 0.0;
    if (cost) {
        if (scaled)
            map_loop(sp, cost, a, u, o, cost_o, old, cost_old, 0, 1);
        else
            map_loop(sp, cost, a, u, o, cost_o, old, cost_old, 0, 0);
    } else if (sp->f == F_K_MINUS_1) {
        if (scaled)
            map_loop(sp, 0, a, u, o, 0, old, 0, 0, 1);
        else
            map_loop(sp, 0, a, u, o, 0, old, 0, 0, 0);
    } else if (scaled) {
        map_loop(sp, 0, a, u, o, 0, old, 0, 1, 1);
    } else {
        map_loop(sp, 0, a, u, o, 0, old, 0, 1, 0);
    }
}

/* the m rows of particles first, ..., first + m - 1 into out, (m, n) in
 * C order, and with a cost (sp then holds the ledger's K - 1 rows) the
 * cost's rows from the same distances into cost_out */
CLONED void kac_rows(const struct rowspec *sp, const struct rowspec *cost, int64_t first,
                     int64_t m, double *out, double *cost_out)
{
    const int64_t n = sp->n;
    double *dist = sp->scratch + 4 * n;
    for (int64_t r = 0; r < m; r++) {
        dist_row(sp, first + r, dist);
        map(sp, cost, first + r, dist, out + r * n, cost ? cost_out + r * n : 0, sp->zero,
            sp->zero);
    }
}

/* the rows of the pair (i, j), from their distance rows in the last part
 * of scratch: before the collision into the first part of scratch, after
 * it (post) as dh = new rows - old rows into the second part; with a cost,
 * the cost's rows of the pair into its scratch alike, in the order (i, j)
 * or, when swapped, (j, i).  The one entry of the pair rows, out of line
 * so that it can be cloned; one pass of the loop per particle, so that
 * each clone has one copy of the row loops */
static CLONED void collision_rows(const struct rowspec *sp, const struct rowspec *cost,
                                  int64_t i, int64_t j, int swapped, int post)
{
    const int64_t n = sp->n;
    double *dist = sp->scratch + 4 * n, *o = sp->scratch + (post ? 2 * n : 0);
    for (int p = 0; p < 2; p++) {
        const int64_t a = p ? j : i, at = p ? n : 0;
        const int64_t cat = p != swapped ? n : 0; /* the offset of a in the cost's rows */
        dist_row(sp, a, dist + at);
        map(sp, cost, a, dist + at, o + at, cost ? cost->scratch + (post ? 2 * n : 0) + cat : 0,
            post ? sp->scratch + at : sp->zero, cost && post ? cost->scratch + cat : sp->zero);
    }
}

/* the change of the pair sum from dh of the pair (a, b), as
 * `_PairSum.post_collision` */
static double settle(const struct rowspec *sp, int64_t a, int64_t b)
{
    const int64_t n = sp->n;
    const double *dh = sp->scratch + 2 * n;
    return ((2.0 * kac_sum(dh, 2 * n) - dh[a]) - dh[n + b]) - 2.0 * dh[b];
}

/* _PairSum.pre_collision: the rows of i and j into the first part of scratch */
void kac_pair_rows(const struct rowspec *sp, int64_t i, int64_t j)
{
    collision_rows(sp, 0, i, j, 0, 0);
}

/* _PairSum.post_collision: dh into the second part of scratch; returns
 * the change of the pair sum */
double kac_pair_update(const struct rowspec *sp, int64_t i, int64_t j)
{
    collision_rows(sp, 0, i, j, 0, 1);
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
                    collision_rows(led, cost, i, j, ri != i, 0);
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
                    collision_rows(led, cost, i, j, ri != i, 1);
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

/* ---------------------------------------------------------------------------
 * kac_transport: the capped partial-transport problem of
 * `metrics._flat_distance`, solved exactly by a primal network simplex.
 *
 * Nodes: the n1 atoms of mu (supply w1_i), the n2 atoms of nu (demand w2_j),
 * a row-abstain node R (demand sum w1) and a column-abstain node C (supply
 * sum w2).  Arcs, all uncapacitated: the np pairs i -> j closer than the
 * cap at cost c_ij, i -> R and C -> j at cost 1 (destroying and creating a
 * unit), C -> R at cost 0.  The minimum cost is the distance.
 *
 * The points are rows of k coordinates in C order, n1 of mu and n2 of nu.
 * A pair's cost is its distance, sqrt of sum_k (p1_ik - p2_jk)^2 summed in
 * coordinate order and unfused (the build has -ffp-contract=off, and this
 * entry is not cloned), the bytes of scipy's cdist and of the numpy column
 * loop `metrics._distances`.  A count pass sizes the one allocation; a fill
 * pass writes the pairs straight into the arc arrays in row-major order, i
 * then j, the order of np.nonzero on the dense matrix.  No n1 x n2 matrix
 * is built.  With no pair closer than the cap there is nothing to solve:
 * *pairs is 0 and the caller has the value, m1 + m2.
 *
 * The start is LEMON's: an artificial root joined to every node by an arc
 * that carries the node's supply, cost 0 from a supply node and ART_COST to
 * a demand node.  Some optimal dual of the network has pi_R = pi_C and every
 * other potential within 1 of them, so at ART_COST = 3 every artificial arc
 * has a positive reduced cost at that dual and no optimum keeps artificial
 * flow; what is left at the end is rounding, and more than ART_TOL of the
 * mass is an error.  Pricing is block search (blocks of sqrt(arcs)): the
 * most negative reduced cost of the first block that has one below
 * -RC_TOL, an absolute tolerance, since costs are distances of order 1
 * whatever the weights.  The leaving arc is LEMON's strongly feasible rule:
 * of the arcs that block, the last met on the cycle walked from the join in
 * the direction of the flow (strict on the source's path, non-strict on the
 * target's).  The tree is parent pointers and child lists; a pivot re-roots
 * the subtree cut off by the leaving arc at the entering arc and recomputes
 * depth and potential on that subtree alone, each potential from its
 * parent's, so no rounding accumulates over pivots.
 */

#define ART_COST 3.0
#define RC_TOL 1e-11
#define ART_TOL 1e-9

enum { UP = 1, DOWN = -1 }; /* a tree arc points from a node to its parent, or back */

struct tree {
    int32_t *src, *tgt; /* arcs */
    double *cost, *flow;
    int8_t *lower;      /* 1 off the tree (at flow 0), 0 in it */
    int32_t *parent, *pred, *depth, *first, *next, *prev; /* nodes */
    int8_t *dir;
    double *pi;         /* cost = pi[tgt] - pi[src] on tree arcs */
};

static void link_child(struct tree *t, int32_t x, int32_t p)
{
    t->parent[x] = p;
    t->prev[x] = -1;
    t->next[x] = t->first[p];
    if (t->first[p] >= 0)
        t->prev[t->first[p]] = x;
    t->first[p] = x;
}

static void unlink_child(struct tree *t, int32_t x)
{
    if (t->prev[x] >= 0)
        t->next[t->prev[x]] = t->next[x];
    else
        t->first[t->parent[x]] = t->next[x];
    if (t->next[x] >= 0)
        t->prev[t->next[x]] = t->prev[x];
}

/* depth and potential of the subtree of top, from its parent's, in preorder */
static void reprice(struct tree *t, int32_t top)
{
    int32_t x = top;
    for (;;) {
        int32_t p = t->parent[x];
        double c = t->cost[t->pred[x]];
        t->depth[x] = t->depth[p] + 1;
        t->pi[x] = t->dir[x] == UP ? t->pi[p] - c : t->pi[p] + c;
        if (t->first[x] >= 0) {
            x = t->first[x];
            continue;
        }
        while (x != top && t->next[x] < 0)
            x = t->parent[x];
        if (x == top)
            return;
        x = t->next[x];
    }
}

/* one pivot on entering arc `in`: push the flow round its cycle, then hang
 * the subtree cut off by the leaving arc from `in`; 0, or ERR_PIVOTS when
 * no arc blocks (impossible: the network has no directed cycle) */
static int pivot(struct tree *t, int32_t in)
{
    int32_t s = t->src[in], g = t->tgt[in], u, v, out = -1;
    for (u = s, v = g; u != v;)
        if (t->depth[u] >= t->depth[v])
            u = t->parent[u];
        else
            v = t->parent[v];
    int32_t join = u;
    double delta = INFINITY;
    int side = 0;
    for (u = s; u != join; u = t->parent[u])
        if (t->dir[u] == UP && t->flow[t->pred[u]] < delta) {
            delta = t->flow[t->pred[u]];
            out = u;
            side = 1;
        }
    for (u = g; u != join; u = t->parent[u])
        if (t->dir[u] == DOWN && t->flow[t->pred[u]] <= delta) {
            delta = t->flow[t->pred[u]];
            out = u;
            side = 2;
        }
    if (!side)
        return ERR_PIVOTS;
    if (delta > 0.0) {
        t->flow[in] += delta;
        for (u = s; u != join; u = t->parent[u])
            t->flow[t->pred[u]] -= t->dir[u] * delta;
        for (u = g; u != join; u = t->parent[u])
            t->flow[t->pred[u]] += t->dir[u] * delta;
    }
    t->lower[in] = 0;
    t->lower[t->pred[out]] = 1;
    /* reverse the stem, the path from the entering end x up to out: each
     * stem node above x becomes the child of the one below it, over the
     * arc that joined them, now pointing the other way */
    int32_t x = side == 1 ? s : g, par = x == s ? g : s, arc = in;
    int8_t dir = x == s ? UP : DOWN;
    for (;;) {
        int32_t up = t->parent[x], up_arc = t->pred[x];
        int8_t up_dir = t->dir[x];
        unlink_child(t, x);
        link_child(t, x, par);
        t->pred[x] = arc;
        t->dir[x] = dir;
        if (x == out)
            break;
        par = x;
        arc = up_arc;
        dir = -up_dir;
        x = up;
    }
    reprice(t, side == 1 ? s : g);
    return 0;
}

/* sqrt of sum_c (a_c - b_c)^2, summed in coordinate order, unfused */
static double pair_cost(const double *a, const double *b, int64_t k)
{
    double s = 0.0;
    for (int64_t c = 0; c < k; c++) {
        double d = a[c] - b[c];
        s += d * d;
    }
    return sqrt(s);
}

/* the distance between mu and nu into *value, the count of pairs closer
 * than the cap into *pairs and the pivot count into *pivots; DONE,
 * ERR_MEMORY, ERR_PIVOTS (more than pivots_per_arc pivots an arc) or
 * ERR_ARTIFICIAL (artificial flow left) */
int kac_transport(const double *p1, const double *w1, int64_t n1,
                  const double *p2, const double *w2, int64_t n2, int64_t k, double cap,
                  int64_t pivots_per_arc, double *value, int64_t *pairs, int64_t *pivots)
{
    int64_t np = 0;
    for (int64_t i = 0; i < n1; i++)
        for (int64_t j = 0; j < n2; j++)
            np += pair_cost(p1 + i * k, p2 + j * k, k) < cap;
    *pairs = np;
    if (np == 0)
        return DONE;
    int64_t nn = n1 + n2 + 2, m = np + n1 + n2 + 1, arcs = m + nn;
    if (arcs >= INT32_MAX)
        return ERR_MEMORY;
    int32_t R = (int32_t)(n1 + n2), C = R + 1, root = C + 1;
    struct tree t;
    char *block = malloc(arcs * (2 * sizeof(int32_t) + 2 * sizeof(double) + 1)
                         + (nn + 1) * (6 * sizeof(int32_t) + sizeof(double) + 1));
    if (!block)
        return ERR_MEMORY;
    char *p = block;
#define TAKE(field, count) (t.field = (void *)p, p += (count) * sizeof(*t.field))
    TAKE(cost, arcs); TAKE(flow, arcs); TAKE(pi, nn + 1);
    TAKE(src, arcs); TAKE(tgt, arcs);
    TAKE(parent, nn + 1); TAKE(pred, nn + 1); TAKE(depth, nn + 1);
    TAKE(first, nn + 1); TAKE(next, nn + 1); TAKE(prev, nn + 1);
    TAKE(lower, arcs); TAKE(dir, nn + 1);
#undef TAKE
    /* every pair is written, and the next overwrites it unless this one
     * counts, so the loop has no branch on the cap; the last pair's spare
     * slot is the first abstain arc's, written below */
    for (int64_t i = 0, e = 0; i < n1; i++)
        for (int64_t j = 0; j < n2; j++) {
            double dist = pair_cost(p1 + i * k, p2 + j * k, k);
            t.src[e] = (int32_t)i;
            t.tgt[e] = (int32_t)(n1 + j);
            t.cost[e] = dist;
            e += dist < cap;
        }
    double m1 = 0.0, m2 = 0.0;
    for (int64_t i = 0; i < n1; i++) {
        t.src[np + i] = (int32_t)i;
        t.tgt[np + i] = R;
        t.cost[np + i] = 1.0;
        m1 += w1[i];
    }
    for (int64_t j = 0; j < n2; j++) {
        t.src[np + n1 + j] = C;
        t.tgt[np + n1 + j] = (int32_t)(n1 + j);
        t.cost[np + n1 + j] = 1.0;
        m2 += w2[j];
    }
    t.src[m - 1] = C;
    t.tgt[m - 1] = R;
    t.cost[m - 1] = 0.0;
    for (int64_t e = 0; e < m; e++) {
        t.flow[e] = 0.0;
        t.lower[e] = 1;
    }
    t.parent[root] = -1;
    t.depth[root] = 0;
    t.first[root] = -1;
    t.pi[root] = 0.0;
    for (int32_t u = 0; u < root; u++) {
        double supply = u < n1 ? w1[u] : u < R ? -w2[u - n1] : u == R ? -m1 : m2;
        int64_t e = m + u;
        int up = supply > 0.0;
        t.src[e] = up ? u : root;
        t.tgt[e] = up ? root : u;
        t.cost[e] = up ? 0.0 : ART_COST;
        t.flow[e] = up ? supply : -supply;
        t.lower[e] = 0;
        t.pred[u] = (int32_t)e;
        t.dir[u] = up ? UP : DOWN;
        t.first[u] = -1;
        t.depth[u] = 1;
        t.pi[u] = t.cost[e];
        link_child(&t, u, root);
    }
    int64_t block_size = (int64_t)sqrt((double)m), next = 0, count = 0;
    int64_t max_pivots = pivots_per_arc * m;
    if (block_size < 10)
        block_size = 10;
    int status = DONE;
    for (;;) {
        /* block search: the most negative reduced cost of the first block
         * that has one below -RC_TOL */
        double best = -RC_TOL;
        int64_t in = -1, left = block_size, e = next;
        for (int64_t k = 0; k < m; k++) {
            double rc = t.lower[e] * (t.cost[e] + t.pi[t.src[e]] - t.pi[t.tgt[e]]);
            if (rc < best) {
                best = rc;
                in = e;
            }
            if (++e == m)
                e = 0;
            if (--left == 0) {
                if (in >= 0)
                    break;
                left = block_size;
            }
        }
        if (in < 0)
            break;
        next = e;
        if (++count > max_pivots || pivot(&t, (int32_t)in) != 0) {
            status = ERR_PIVOTS;
            break;
        }
    }
    if (status == DONE) {
        double left = 0.0, total = 0.0;
        for (int64_t e = m; e < arcs; e++)
            left += t.flow[e];
        if (left > ART_TOL * (m1 + m2))
            status = ERR_ARTIFICIAL;
        for (int64_t e = 0; e < m; e++)
            total += t.cost[e] * t.flow[e];
        *value = total;
    }
    *pivots = count;
    free(block);
    return status;
}

/* ---------------------------------------------------------------------------
 * The event CSV of `config_io`: kac_write_events prints the rows of a log as
 * the Python writer of `config_io.write_event_csv` prints them, and
 * kac_read_events parses them back.  Neither is part of the engine.
 *
 * A float is "%.17g" and an integer decimal, the fields of a row are joined
 * by ',' and each row ends in '\n'.  The reader accepts only that:
 * -?digits[.digits][e(+|-)digits] for a float and -?digits in the column's
 * range for an integer, with an optional missing final '\n'.  Both return
 * -1 wherever `config_io` must take its Python path instead: a t or sigma
 * that is not finite (glibc prints -nan where Python prints nan), a locale
 * whose decimal point is not '.', or, to the reader, any other text.
 */

#define ROW_BYTES(d) (25 * ((d) + 1) + 51) /* the longest row: 24-byte floats, 20-byte int64s */

static int point_is_dot(void)
{
    const char *dp = localeconv()->decimal_point;
    return dp[0] == '.' && dp[1] == '\0';
}

static char *put_int(char *p, int64_t x)
{
    char digits[20];
    uint64_t u = x < 0 ? 0 - (uint64_t)x : (uint64_t)x;
    int k = 0;
    do {
        digits[k++] = (char)('0' + u % 10);
        u /= 10;
    } while (u);
    if (x < 0)
        *p++ = '-';
    while (k)
        *p++ = digits[--k];
    return p;
}

/* the rows of a log into buf, which holds cap bytes; the number of bytes
 * written, or -1 */
int64_t kac_write_events(const double *t, const int64_t *i, const int64_t *j,
                         const double *sigma, const int8_t *assignment,
                         const uint8_t *fictitious, int64_t rows, int64_t d, char *buf,
                         int64_t cap)
{
    if (!point_is_dot())
        return -1;
    char *p = buf, *end = buf + cap;
    for (int64_t k = 0; k < rows; k++) {
        if (end - p < ROW_BYTES(d) || !isfinite(t[k]))
            return -1;
        p += sprintf(p, "%.17g,", t[k]);
        p = put_int(p, i[k]);
        *p++ = ',';
        p = put_int(p, j[k]);
        *p++ = ',';
        for (const double *s = sigma + k * d; s < sigma + (k + 1) * d; s++) {
            if (!isfinite(*s))
                return -1;
            p += sprintf(p, "%.17g,", *s);
        }
        p = put_int(p, assignment[k]);
        *p++ = ',';
        p = put_int(p, fictitious[k]);
        *p++ = '\n';
    }
    return p - buf;
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* the field at s ends at the separator sep, or, for the last field of a
 * row, at end */
static int field_ends(const char *s, char sep, const char *end)
{
    return *s == sep || (sep == '\n' && s == end);
}

/* the float at s into *x; the byte after its separator, or NULL */
static const char *read_float(const char *s, char sep, const char *end, double *x)
{
    const char *e = s + (*s == '-');
    if (!is_digit(*e))
        return NULL;
    while (is_digit(*e))
        e++;
    if (*e == '.') {
        if (!is_digit(*++e))
            return NULL;
        while (is_digit(*e))
            e++;
    }
    if (*e == 'e') {
        e++;
        if ((*e != '+' && *e != '-') || !is_digit(*++e))
            return NULL;
        while (is_digit(*e))
            e++;
    }
    char *stop;
    if (!field_ends(e, sep, end))
        return NULL;
    *x = strtod(s, &stop);
    return stop == e && isfinite(*x) ? e + 1 : NULL;
}

/* the integer in [lo, hi] at s into *x; the byte after its separator, or
 * NULL */
static const char *read_int(const char *s, char sep, const char *end, int64_t lo, int64_t hi,
                            int64_t *x)
{
    int neg = *s == '-';
    uint64_t u = 0, limit = neg ? 0 - (uint64_t)lo : (uint64_t)hi;
    s += neg;
    if (!is_digit(*s))
        return NULL;
    for (; is_digit(*s); s++) {
        unsigned digit = (unsigned)(*s - '0');
        if (u > (limit - digit) / 10)
            return NULL;
        u = 10 * u + digit;
    }
    if (!field_ends(s, sep, end))
        return NULL;
    *x = neg ? (int64_t)(0 - u) : (int64_t)u;
    return s + 1;
}

/* the len bytes at s, which must be followed by a NUL, into the columns of
 * rows rows; the number of rows read, or -1 */
int64_t kac_read_events(const char *s, int64_t len, int64_t d, int64_t rows, double *t,
                        int64_t *i, int64_t *j, double *sigma, int8_t *assignment,
                        int8_t *fictitious)
{
    if (!point_is_dot())
        return -1;
    const char *end = s + len;
    int64_t k = 0, a, f;
    for (; s < end; k++) {
        if (k == rows)
            return -1;
        if (!(s = read_float(s, ',', end, t + k)) ||
            !(s = read_int(s, ',', end, INT64_MIN, INT64_MAX, i + k)) ||
            !(s = read_int(s, ',', end, INT64_MIN, INT64_MAX, j + k)))
            return -1;
        for (int64_t c = 0; c < d; c++)
            if (!(s = read_float(s, ',', end, sigma + k * d + c)))
                return -1;
        if (!(s = read_int(s, ',', end, INT8_MIN, INT8_MAX, &a)) ||
            !(s = read_int(s, '\n', end, INT8_MIN, INT8_MAX, &f)))
            return -1;
        assignment[k] = (int8_t)a;
        fictitious[k] = (int8_t)f;
    }
    return k;
}
