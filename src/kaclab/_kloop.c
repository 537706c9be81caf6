/* The proposal loop of kaclab's engine, compiled, and the rows of its
 * tilt pair sums.
 *
 * kac_run is `_Engine.propose` repeated up to the end of a segment, tracked
 * or not: given a ledger it also keeps the interval's pair sums and settles
 * the compensator and jump terms, and at delta = 0 it integrates the
 * dynamic cost over the spans between events.
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
 * The pair sums of a scheme interval (`engine._TiltPairSum`, `_BSums`) are
 * the ledger's sum (K - 1) B at delta > 0, and at delta = 0 two sums of B,
 * S_live and S_all, from which the ledger's and the cost's follow (TOTALS)
 * with tau(c) from the caller: tau is never computed here.
 * kac_rows evaluates the rows in the order of `metrics._distances` and
 * `TiltingScheme.pair_k`, and sums them block by block; kac_pair_rows and
 * kac_pair_update are `_TiltPairSum.pre_collision` and `post_collision` on
 * them.
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
 * The rows are nearly all of a tracked hard-sphere run, and each element
 * of a row is made once, in registers, straight from the velocities: no
 * distance row and no old row is stored or read back.  A build writes the
 * rows in one pass per row and sums each block of rows in C.  A collision
 * saves the pair's velocities before it (kac_pair_rows, or kac_run
 * itself), and after it one pass per particle a of the pair writes dh =
 * h(new) - h(old) for every b, from |v_a^new - v_b| and |v_a^old - v_b|;
 * at b in {i, j} that pass reads the new v_b, so those four entries are
 * made again from the saved and the new velocities.  A pair's scratch
 * holds dh of its two rows of each sum (4n doubles), then its velocities.
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
enum { F_T, F_COMP, F_TEND, F_C, F_INFL, F_GAMMA, F_KB, F_MAJ, F_S0, F_S1, F_TAU_C,
       F_COMPENSATOR, F_JUMP, F_COST, F_COST_T };
enum { K_IU, K_IE, K_IN, K_EVENTS, K_COLL, K_SIZE, K_CAP, K_I, K_J, K_HIT };

enum { DONE = 0, GROW = 1, ERR_MAJORANT = -1, ERR_WEIGHT = -2, ERR_ZERO_TOTAL = -3,
       ERR_REFILL = -4, ERR_INDEX = -5, ERR_LOG = -6 }; /* _ktools.c goes on from -7 */

/* one scheme interval of `engine._TiltPairSum` or `_BSums`: K = c (1 +
 * delta u) live_a live_b, B = 1 + beta u, u = |v_a - v_b|.  Its rows: at
 * delta > 0 one, (K - 1) B; at delta = 0 two, B live_a live_b and B */
struct rowspec {
    const double *V;    /* (n, d) velocities in C order */
    const double *live; /* 1.0 outside the frozen set, 0.0 in it; all 1.0 when none is */
    double *scratch;    /* 4n + 2d doubles: dh of a pair's two rows of each sum, then
                         * the pair's velocities before the collision */
    int64_t n, d;
    double c, delta, beta;
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

/* h of one pair at distance u with live product l (live_a live_b): at
 * delta > 0, (K - 1) B with K = c (1 + delta u) l and B = 1 unless scaled;
 * at delta = 0 (two), B l, and *g = B.  The one copy of the element
 * arithmetic, in the order of `_TiltPairSum.rows` and `_BSums.rows` */
INLINE double pair_h(const struct rowspec *k, double u, double l, double *g, const int two,
                     const int scaled)
{
    if (two) {
        *g = 1.0 + k->beta * u;
        return *g * l;
    }
    double kk = k->c * (1.0 + k->delta * u);
    kk = kk * l;
    return scaled ? (kk - 1.0) * (1.0 + k->beta * u) : kk - 1.0;
}

/* one pass over the row of a: o[b] = h(a, b), and at delta = 0 o2[b] = B;
 * after a collision (post), with old a's velocity before it, the change
 * h(new) - h(old) instead, each from v_b as it is in V.  No branch in the
 * loop where the shape is constant: live is a row of 1.0 when nothing is
 * frozen (x * (1.0 * 1.0) == x) */
INLINE void row_pass(const struct rowspec *sp, int64_t a, const double *restrict old,
                     double *restrict o, double *restrict o2, const int64_t d, const int two,
                     const int scaled, const int post)
{
    const struct rowspec k = *sp; /* in registers */
    const double *restrict V = k.V, *restrict live = k.live;
    const int64_t n = k.n;
    const double *va = V + a * d, la = live[a];
    for (int64_t b = 0; b < n; b++) {
        const double *vb = V + b * d;
        const double l = la * live[b];
        double g = 0.0, g0 = 0.0;
        double h = pair_h(&k, dist(va, vb, d), l, &g, two, scaled);
        if (post) {
            h -= pair_h(&k, dist(old, vb, d), l, &g0, two, scaled);
            g -= g0;
        }
        o[b] = h;
        if (two)
            o2[b] = g;
    }
}

/* row_pass for the interval's shape: at d = 3 as constants, (K - 1) B with
 * B or without, or the two rows of delta = 0; at any other d the same pass
 * with the shape read at each pair */
INLINE void row(const struct rowspec *sp, int64_t a, const double *old, double *o, double *o2,
                const int post)
{
    const int two = sp->delta == 0.0, scaled = sp->beta != 0.0;
    if (sp->d != 3)
        row_pass(sp, a, old, o, o2, sp->d, two, scaled, post);
    else if (two)
        row_pass(sp, a, old, o, o2, 3, 1, 1, post);
    else if (scaled)
        row_pass(sp, a, old, o, 0, 3, 0, 1, post);
    else
        row_pass(sp, a, old, o, 0, 3, 0, 0, post);
}

/* every row, in blocks of m rows written into out: (m, n) in C order for
 * the first sum, and at delta = 0 the second sum's block after it.  Each
 * block of each sum is summed as numpy sums it (kac_sum over the block)
 * into sums[2 k] and sums[2 k + 1] (0.0 at delta > 0) */
CLONED void kac_rows(const struct rowspec *sp, int64_t m, double *out, double *sums)
{
    const int64_t n = sp->n;
    const int two = sp->delta == 0.0;
    for (int64_t first = 0; first < n; first += m, sums += 2) {
        const int64_t rows = m < n - first ? m : n - first;
        for (int64_t r = 0; r < rows; r++)
            row(sp, first + r, 0, out + r * n, two ? out + (m + r) * n : 0, 0);
        sums[0] = kac_sum(out, rows * n);
        sums[1] = two ? kac_sum(out + m * n, rows * n) : 0.0;
    }
}

/* a collision's change of the rows of the pair (i, j), dh = h(new) -
 * h(old) of each row, into scratch: the rows of i and j of the first sum,
 * then at delta = 0 those of the second, n doubles each, from the pair's
 * velocities before the collision, saved after them by kac_pair_rows.  One
 * pass per particle reads the new v_i and v_j at b in {i, j}, so those
 * four entries are made again from the saved and the new velocities.  The
 * one entry of the pair rows, out of line so that it can be cloned */
static CLONED void collision_rows(const struct rowspec *sp, int64_t i, int64_t j)
{
    const int64_t n = sp->n, d = sp->d;
    const int two = sp->delta == 0.0, scaled = sp->beta != 0.0;
    double *dh = sp->scratch;
    const double *saved = dh + 4 * n;
    for (int p = 0; p < 2; p++) /* p: i or j, a row of the pair */
        row(sp, p ? j : i, saved + p * d, dh + p * n, dh + (2 + p) * n, 1);
    for (int p = 0; p < 4; p++) { /* the entries (a, b), a and b in {i, j} */
        const int pa = p >> 1, pb = p & 1;
        const int64_t a = pa ? j : i, b = pb ? j : i;
        const double l = sp->live[a] * sp->live[b];
        double g = 0.0, g0 = 0.0;
        double h = pair_h(sp, dist(sp->V + a * d, sp->V + b * d, d), l, &g, two, scaled);
        h -= pair_h(sp, dist(saved + pa * d, saved + pb * d, d), l, &g0, two, scaled);
        dh[pa * n + b] = h;
        if (two)
            dh[(2 + pa) * n + b] = g - g0;
    }
}

/* the change of a pair sum from dh, the change of the rows of a and b (2n
 * doubles), as `engine._settle` */
static double settle(const double *dh, int64_t n, int64_t a, int64_t b)
{
    return ((2.0 * kac_sum(dh, 2 * n) - dh[a]) - dh[n + b]) - 2.0 * dh[b];
}

/* _TiltPairSum.pre_collision: the velocities of i and j, after dh in scratch */
void kac_pair_rows(const struct rowspec *sp, int64_t i, int64_t j)
{
    const int64_t d = sp->d;
    double *saved = sp->scratch + 4 * sp->n;
    for (int64_t q = 0; q < d; q++) {
        saved[q] = sp->V[i * d + q];
        saved[d + q] = sp->V[j * d + q];
    }
}

/* _TiltPairSum.post_collision: dh into scratch, and the change of each
 * pair sum into change (the second at delta = 0 only) */
void kac_pair_update(const struct rowspec *sp, int64_t i, int64_t j, double *change)
{
    const int64_t n = sp->n;
    collision_rows(sp, i, j);
    change[0] = settle(sp->scratch, n, i, j);
    if (sp->delta == 0.0)
        change[1] = settle(sp->scratch + 2 * n, n, i, j);
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

/* the ledger's sum (K - 1) B and, at delta = 0, the cost's sum tau(K) B
 * from the interval's pair sums s0 and s1 (S_live and S_all at delta = 0),
 * as `_BSums.total` and `cost` */
#define TOTALS()                                                          \
    do {                                                                  \
        total = two ? (led->c - 1.0) * s0 - (s1 - s0) : s0;               \
        cost_total = tau_c * s0 + (s1 - s0);                              \
    } while (0)

/* led: the ledger's scheme interval (NULL: none), whose pair sums move at
 * the recorded pair, as a replay of the log moves them */
int kac_run(double *f, int64_t *k, int64_t n, int64_t d, int64_t chunk,
            double *V, double *speeds, double *tree, double *weights,
            const uint8_t *frozen, const double *ubuf, const double *ebuf,
            const double *nbuf, refill_fn refill,
            double *ev_t, int64_t *ev_i, int64_t *ev_j, double *ev_sigma,
            int8_t *ev_asg, uint8_t *ev_fict, const struct rowspec *led)
{
    double t = f[F_T], comp = f[F_COMP];
    const double t_end = f[F_TEND], c = f[F_C], infl = f[F_INFL], gamma = f[F_GAMMA];
    double compensator = f[F_COMPENSATOR], jump = f[F_JUMP];
    /* the interval's pair sums, tau(c), the cost so far and the time it
     * reaches; the ledger's and the cost's sums follow from them */
    double s0 = f[F_S0], s1 = f[F_S1], total, cost_total;
    double tau_c = f[F_TAU_C], cost_so_far = f[F_COST], cost_t = f[F_COST_T];
    const double nn = (double)(n * n);
    int64_t iu = k[K_IU], ie = k[K_IE], in = k[K_IN];
    int64_t events = k[K_EVENTS], coll = k[K_COLL], size = k[K_SIZE];
    const int two = led && led->delta == 0.0;
    /* rows that move at a collision: those that read the distance */
    const int rows = led && (led->delta != 0.0 || led->beta != 0.0);
    int64_t hit = k[K_HIT];
    int status = DONE;
    TOTALS();

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
        if (two) { /* the span since the last event, as dynamic_cost's replay */
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
                    kac_pair_rows(led, ri, rj);
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
                    collision_rows(led, ri, rj);
                    s0 += settle(led->scratch, n, ri, rj);
                    if (two)
                        s1 += settle(led->scratch + 2 * n, n, ri, rj);
                    TOTALS();
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
    f[F_S0] = s0;
    f[F_S1] = s1;
    f[F_COMPENSATOR] = compensator;
    f[F_JUMP] = jump;
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
