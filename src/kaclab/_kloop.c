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

#include <math.h>
#include <stdint.h>

typedef int (*refill_fn)(int which); /* 0 uniforms, 1 exponentials, 2 normals */

/* slots of the scalar arrays shared with the caller */
enum { F_T, F_COMP, F_TEND, F_C, F_INFL, F_GAMMA, F_KB, F_MAJ, F_TOTAL, F_COMPENSATOR, F_JUMP,
       F_COST_TOTAL, F_COST, F_COST_T };
enum { K_IU, K_IE, K_IN, K_EVENTS, K_COLL, K_SIZE, K_CAP, K_I, K_J, K_HIT };

enum { DONE = 0, GROW = 1, ERR_MAJORANT = -1, ERR_WEIGHT = -2, ERR_ZERO_TOTAL = -3,
       ERR_REFILL = -4, ERR_INDEX = -5, ERR_LOG = -6 };

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
    int64_t constant;   /* the rows are one value and never change */
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
