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
 * Errors are returned as status codes; the caller raises the Python loop's
 * exception for each.
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
    const double *live; /* 1.0 outside the frozen set, 0.0 in it; NULL: none */
    double *scratch;    /* 6n doubles: the old rows of a pair, dh, distance rows */
    int64_t n, d, f;
    int64_t constant;   /* the rows are one value and never change */
    double c, delta, beta;
    double f0, fc, fnan; /* a table f */
};

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

/* o[b] = |v_a - v_b|, coordinate by coordinate as `engine._distances` */
static inline void distances(const double *restrict V, int64_t n, int64_t d, int64_t a,
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

/* the distance row of a into o */
static void dist_row(const struct rowspec *sp, int64_t a, double *o)
{
    if (sp->d == 3)
        distances(sp->V, sp->n, 3, a, o);
    else
        distances(sp->V, sp->n, sp->d, a, o);
}

/* o[b] = f(K_ab) B_ab from the distance row u[b] = |v_a - v_b|, less
 * old[b] with an old row; with a cost, whose K and B are this spec's, also
 * cost_o[b] = tau(K_ab) B_ab (less cost_old[b]) from the same K and B, by
 * the cost's table */
static inline void map(const struct rowspec *sp, const struct rowspec *cost, int64_t a,
                       const double *restrict u, double *restrict o, double *restrict cost_o,
                       const double *restrict old, const double *restrict cost_old)
{
    const int64_t n = sp->n, f = sp->f;
    const double c = sp->c, delta = sp->delta, beta = sp->beta;
    const double f0 = sp->f0, fc = sp->fc, fnan = sp->fnan;
    const double *restrict live = sp->live;
    const double la = live ? live[a] : 1.0;
    if (cost) { /* the ledger's K - 1 and the cost's table */
        const double g0 = cost->f0, gc = cost->fc, gnan = cost->fnan;
        for (int64_t b = 0; b < n; b++) {
            double ub = u[b];
            double k = c * (1.0 + delta * ub);
            if (live)
                k = k * (la * live[b]);
            double fk = k - 1.0, gk = k == 0.0 ? g0 : k == c ? gc : gnan;
            if (beta != 0.0) {
                double bb = 1.0 + beta * ub;
                fk = fk * bb;
                gk = gk * bb;
            }
            o[b] = old ? fk - old[b] : fk;
            cost_o[b] = old ? gk - cost_old[b] : gk;
        }
        return;
    }
    for (int64_t b = 0; b < n; b++) {
        double ub = u[b];
        double k = c * (1.0 + delta * ub);
        if (live)
            k = k * (la * live[b]);
        double fk;
        if (f == F_K_MINUS_1)
            fk = k - 1.0;
        else
            fk = k == 0.0 ? f0 : k == c ? fc : fnan;
        fk = beta != 0.0 ? fk * (1.0 + beta * ub) : fk;
        o[b] = old ? fk - old[b] : fk;
    }
}

/* the m rows of particles first, ..., first + m - 1 into out, (m, n) in
 * C order, and with a cost (sp then holds the ledger's K - 1 rows) the
 * cost's rows from the same distances into cost_out */
void kac_rows(const struct rowspec *sp, const struct rowspec *cost, int64_t first, int64_t m,
              double *out, double *cost_out)
{
    const int64_t n = sp->n;
    double *dist = sp->scratch + 4 * n;
    for (int64_t r = 0; r < m; r++) {
        dist_row(sp, first + r, dist);
        map(sp, cost, first + r, dist, out + r * n, cost ? cost_out + r * n : 0, 0, 0);
    }
}

/* the distance rows of i and j into dist, (2, n) */
static void pair_dist(const struct rowspec *sp, int64_t i, int64_t j, double *dist)
{
    dist_row(sp, i, dist);
    dist_row(sp, j, dist + sp->n);
}

/* the rows of the pair (i, j) from dist, their distance rows: before the
 * collision into the first part of scratch, after it (post) as dh = new
 * rows - old rows into the second part; with a cost, the cost's rows of
 * the pair into its scratch alike, in the order (i, j) or, when swapped,
 * (j, i) */
static void pair_rows(const struct rowspec *sp, const struct rowspec *cost, int64_t i, int64_t j,
                      int swapped, const double *dist, int post)
{
    const int64_t n = sp->n;
    double *o = sp->scratch + (post ? 2 * n : 0), *old = post ? sp->scratch : 0;
    double *co = 0, *cold = 0;
    if (cost) {
        co = cost->scratch + (post ? 2 * n : 0);
        cold = post ? cost->scratch : 0;
    }
    int64_t ci = swapped ? n : 0, cj = swapped ? 0 : n; /* offsets of i and j in the cost's rows */
    map(sp, cost, i, dist, o, co ? co + ci : 0, old, cold ? cold + ci : 0);
    map(sp, cost, j, dist + n, o + n, co ? co + cj : 0, old ? old + n : 0, cold ? cold + cj : 0);
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
    double *dist = sp->scratch + 4 * sp->n;
    pair_dist(sp, i, j, dist);
    pair_rows(sp, 0, i, j, 0, dist, 0);
}

/* _PairSum.post_collision: dh into the second part of scratch; returns
 * the change of the pair sum */
double kac_pair_update(const struct rowspec *sp, int64_t i, int64_t j)
{
    double *dist = sp->scratch + 4 * sp->n;
    pair_dist(sp, i, j, dist);
    pair_rows(sp, 0, i, j, 0, dist, 1);
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
    double *dist = led ? led->scratch + 4 * n : 0;
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
                if (led->live && !(led->live[i] != 0.0 && led->live[j] != 0.0)) {
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
                if (rows) {
                    pair_dist(led, i, j, dist);
                    pair_rows(led, cost, i, j, ri != i, dist, 0);
                }
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
                    pair_dist(led, i, j, dist);
                    pair_rows(led, cost, i, j, ri != i, dist, 1);
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
