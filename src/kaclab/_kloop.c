/* The proposal loop of kaclab's engine, compiled.
 *
 * kac_run is `_Engine.propose` repeated up to the end of a segment, for
 * segments with no ledger pair sum.  It works in place on the engine's own
 * arrays (velocities, speeds, Fenwick tree and weights, draw buffers, event
 * columns) and does every operation of the Python loop in its order, so
 * event logs and states are bit-identical to it:
 *   - a dot product is an FMA chain s = fma(x_k, y_k, s), as numpy's BLAS
 *     computes a short `x @ y` (checked against numpy when loaded);
 *   - all other arithmetic is unfused (built with -ffp-contract=off);
 *   - an empty draw buffer is refilled through the callback at exactly the
 *     draw where the Python loop refills it.
 * Errors are returned as status codes; the caller raises the Python loop's
 * exception for each.
 */

#include <math.h>
#include <stdint.h>

typedef int (*refill_fn)(int which); /* 0 uniforms, 1 exponentials, 2 normals */

/* slots of the scalar arrays shared with the caller */
enum { F_T, F_COMP, F_TEND, F_C, F_INFL, F_GAMMA, F_KB, F_MAJ };
enum { K_IU, K_IE, K_IN, K_EVENTS, K_COLL, K_SIZE, K_CAP, K_I, K_J };

enum { DONE = 0, GROW = 1, ERR_MAJORANT = -1, ERR_WEIGHT = -2, ERR_ZERO_TOTAL = -3,
       ERR_REFILL = -4, ERR_INDEX = -5 };

double kac_dot(const double *x, const double *y, int64_t d)
{
    double s = 0.0;
    for (int64_t k = 0; k < d; k++)
        s = fma(x[k], y[k], s);
    return s;
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

int kac_run(double *f, int64_t *k, int64_t n, int64_t d, int64_t chunk,
            double *V, double *speeds, double *tree, double *weights,
            const uint8_t *frozen, const double *ubuf, const double *ebuf,
            const double *nbuf, refill_fn refill,
            double *ev_t, int64_t *ev_i, int64_t *ev_j, double *ev_sigma,
            int8_t *ev_asg, uint8_t *ev_fict)
{
    double t = f[F_T], comp = f[F_COMP];
    const double t_end = f[F_TEND], c = f[F_C], infl = f[F_INFL], gamma = f[F_GAMMA];
    int64_t iu = k[K_IU], ie = k[K_IE], in = k[K_IN];
    int64_t events = k[K_EVENTS], coll = k[K_COLL], size = k[K_SIZE];
    int status = DONE;

    for (;;) {
        if (ev_t && size == k[K_CAP]) {
            status = GROW;
            break;
        }
        double a_sum = gamma > 0.0 ? fen_total(tree, n) : 0.0;
        double rate = c * infl * ((double)n + 2.0 * gamma * a_sum);
        if (rate <= 0.0) {
            t = t_end;
            comp = 0.0;
            break;
        }
        double e, u;
        DRAW(e, ebuf, ie, 1);
        double dt = e / rate;
        if (t + dt >= t_end) {
            t = t_end;
            comp = 0.0;
            break;
        }
        double y = dt - comp, s = t + y; /* Kahan-summed clock */
        comp = (s - t) - y;
        t = s;

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
            if (i != j) {
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
    k[K_IU] = iu;
    k[K_IE] = ie;
    k[K_IN] = in;
    k[K_EVENTS] = events;
    k[K_COLL] = coll;
    k[K_SIZE] = size;
    return status;
}
