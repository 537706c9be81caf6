/* The tools of kaclab that are not part of its engine, compiled: the
 * transport solve behind `metrics`' distances, and the event CSV and the
 * sidecar's initial velocities of `config_io`.
 *
 * They are built as a library of their own, beside the engine's _kloop.c,
 * with the same compile flags, so that an edit here leaves the engine
 * library's bytes, and the addresses of its code, as they are.  Nothing
 * here is cloned, and all arithmetic is unfused (-ffp-contract=off).
 * Errors are returned as status codes; the caller raises for each.
 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* the codes of kac_transport, after those of _kloop.c */
enum { DONE = 0, ERR_MEMORY = -7, ERR_PIVOTS = -8, ERR_ARTIFICIAL = -9 };

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
 * then j, the order of np.nonzero on the dense matrix, after the n1 + n2 + 1
 * abstain arcs.  No n1 x n2 matrix is built.  With no pair closer than the
 * cap there is nothing to solve: *pairs is 0 and the caller has the value,
 * m1 + m2.
 *
 * The start is LEMON's: an artificial root joined to every node by an arc
 * that carries the node's supply, cost 0 from a supply node and ART_COST to
 * a demand node.  Some optimal dual of the network has pi_R = pi_C and every
 * other potential within 1 of them, so at ART_COST = 3 every artificial arc
 * has a positive reduced cost at that dual and no optimum keeps artificial
 * flow; what is left at the end is rounding, and more than ART_TOL of the
 * mass is an error.
 *
 * Pricing sees a prefix of the arcs, the priced arcs (Schmitzer's sparse
 * scheme, JMIV 2016, on the listed pairs): the abstain arcs and the
 * candidate pairs, each atom's NEAR nearest listed partners on either side
 * (ties by arc order), swapped to the front of the pairs.  It is block
 * search (blocks of sqrt(priced arcs)): the most negative reduced cost of
 * the first block that has one below -RC_TOL, an absolute tolerance, since
 * costs are distances of order 1 whatever the weights.  When no priced arc
 * is below -RC_TOL, one pass prices every other pair at the same
 * potentials and swaps each below -RC_TOL into the priced arcs, and the
 * simplex goes on from the tree it has; those pairs have never been in the
 * tree, so no tree arc moves.  A pass that adds nothing is the certificate:
 * every listed arc then has reduced cost at least -RC_TOL, the optimality
 * condition of the whole network.  The leaving arc is LEMON's strongly
 * feasible rule: of the arcs that block, the last met on the cycle walked
 * from the join in the direction of the flow (strict on the source's path,
 * non-strict on the target's).  The tree is parent pointers and child
 * lists; a pivot re-roots the subtree cut off by the leaving arc at the
 * entering arc and recomputes depth and potential on that subtree alone,
 * each potential from its parent's, so no rounding accumulates over pivots.
 */

#define ART_COST 3.0
#define RC_TOL 1e-11
#define ART_TOL 1e-9
#define NEAR 8 /* the candidate partners of an atom */

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

/* offer pair arc e of cost c to an atom's list of its NEAR nearest arcs so
 * far, nearest first (arc numbers in near, costs in cost, *worst the cost
 * of the last once the list is full, INFINITY before); an arc that ties
 * the last stays out, so ties go by arc order */
static void offer(int32_t *near, double *cost, double *worst, int32_t e, double c)
{
    if (!(c < *worst))
        return;
    int32_t at = NEAR - 1;
    for (; at > 0 && !(cost[at - 1] <= c); at--) {
        near[at] = near[at - 1];
        cost[at] = cost[at - 1];
    }
    near[at] = e;
    cost[at] = c;
    *worst = cost[NEAR - 1];
}

/* arcs a and b of the tree trade places; neither may be a tree arc */
static void swap_arcs(struct tree *t, int64_t a, int64_t b)
{
    int32_t s = t->src[a], g = t->tgt[a];
    double c = t->cost[a];
    int8_t l = t->lower[a];
    t->src[a] = t->src[b];
    t->tgt[a] = t->tgt[b];
    t->cost[a] = t->cost[b];
    t->lower[a] = t->lower[b];
    t->src[b] = s;
    t->tgt[b] = g;
    t->cost[b] = c;
    t->lower[b] = l;
}

/* the block size of pricing over n arcs: sqrt(n), at least 10 */
static int64_t block_of(int64_t n)
{
    int64_t b = (int64_t)sqrt((double)n);
    return b < 10 ? 10 : b;
}

/* the candidate pairs to the front of the pair arcs [first, m): each
 * atom's NEAR nearest on either side, marked in lower on the way; the end
 * of the candidates, or -1 where memory runs out */
static int64_t gather_candidates(struct tree *t, int64_t n1, int64_t n2, int64_t first, int64_t m)
{
    int64_t atoms = n1 + n2;
    char *scratch = malloc(atoms * (NEAR * (sizeof(int32_t) + sizeof(double)) + sizeof(double)));
    if (!scratch)
        return -1;
    double *cost = (double *)scratch, *worst = cost + atoms * NEAR;
    int32_t *near = (int32_t *)(worst + atoms);
    for (int64_t r = 0; r < atoms * NEAR; r++) {
        near[r] = -1;
        cost[r] = INFINITY;
    }
    for (int64_t a = 0; a < atoms; a++)
        worst[a] = INFINITY;
    for (int64_t e = first; e < m; e++) {
        int64_t i = t->src[e], j = t->tgt[e];
        double c = t->cost[e];
        offer(near + i * NEAR, cost + i * NEAR, worst + i, (int32_t)e, c);
        offer(near + j * NEAR, cost + j * NEAR, worst + j, (int32_t)e, c);
    }
    memset(t->lower + first, 0, m - first);
    for (int64_t r = 0; r < atoms * NEAR; r++)
        if (near[r] >= 0)
            t->lower[near[r]] = 1;
    free(scratch);
    int64_t end = first;
    for (int64_t e = first; e < m; e++)
        if (t->lower[e])
            swap_arcs(t, e, end++);
    return end;
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
    int64_t nn = n1 + n2 + 2, na = n1 + n2 + 1, m = na + np, arcs = m + nn;
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
    /* the abstain arcs first, then the pairs: every pair is written, and
     * the next overwrites it unless this one counts, so the loop has no
     * branch on the cap; the last pair's spare slot is the first
     * artificial arc's, written below */
    double m1 = 0.0, m2 = 0.0;
    for (int64_t i = 0; i < n1; i++) {
        t.src[i] = (int32_t)i;
        t.tgt[i] = R;
        t.cost[i] = 1.0;
        m1 += w1[i];
    }
    for (int64_t j = 0; j < n2; j++) {
        t.src[n1 + j] = C;
        t.tgt[n1 + j] = (int32_t)(n1 + j);
        t.cost[n1 + j] = 1.0;
        m2 += w2[j];
    }
    t.src[na - 1] = C;
    t.tgt[na - 1] = R;
    t.cost[na - 1] = 0.0;
    for (int64_t i = 0, e = na; i < n1; i++)
        for (int64_t j = 0; j < n2; j++) {
            double dist = pair_cost(p1 + i * k, p2 + j * k, k);
            t.src[e] = (int32_t)i;
            t.tgt[e] = (int32_t)(n1 + j);
            t.cost[e] = dist;
            e += dist < cap;
        }
    int64_t priced = gather_candidates(&t, n1, n2, na, m);
    if (priced < 0) {
        free(block);
        return ERR_MEMORY;
    }
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
    int64_t block_size = block_of(priced), next = 0, count = 0;
    int64_t max_pivots = pivots_per_arc * m;
    int status = DONE;
    for (;;) {
        /* block search over the priced arcs [0, priced): the most negative
         * reduced cost of the first block that has one below -RC_TOL */
        double best = -RC_TOL;
        int64_t in = -1, left = block_size, e = next;
        for (int64_t k = 0; k < priced; k++) {
            double rc = t.lower[e] * (t.cost[e] + t.pi[t.src[e]] - t.pi[t.tgt[e]]);
            if (rc < best) {
                best = rc;
                in = e;
            }
            if (++e == priced)
                e = 0;
            if (--left == 0) {
                if (in >= 0)
                    break;
                left = block_size;
            }
        }
        if (in < 0) {
            /* the certificate: price the pairs never priced, and bring every
             * one below -RC_TOL into the priced arcs (none has been in the
             * tree, so they trade places freely); none, and all is priced */
            int64_t was = priced;
            for (e = priced; e < m; e++)
                if (t.cost[e] + t.pi[t.src[e]] - t.pi[t.tgt[e]] < -RC_TOL)
                    swap_arcs(&t, e, priced++);
            if (priced == was)
                break;
            block_size = block_of(priced);
            continue;
        }
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
 * kac_read_events parses them back.
 *
 * A float is "%.17g" and an integer decimal, the fields of a row are joined
 * by ',' and each row ends in '\n'.  The reader accepts only that:
 * -?digits[.digits][e(+|-)digits] for a float and -?digits in the column's
 * range for an integer, with an optional missing final '\n'.  Both return
 * -1 wherever `config_io` must take its Python path instead: a t or sigma
 * that is not finite (glibc prints -nan where Python prints nan), a locale
 * whose decimal point is not '.', or, to the reader, any other text.
 *
 * The reader scans a float once (scan_float).  Leading zeros are skipped,
 * and the digits after them go into w, the first 19 of them.  A run of
 * digits is read eight bytes at a time wherever eight bytes lie before the
 * end of the text (SWAR: one 64-bit word, built from the bytes in
 * little-endian order, is tested for eight digits and converted by three
 * multiply-and-mask steps) and one byte at a time elsewhere, so no read
 * passes the NUL after the text.  Most floats then take a fast path in
 * integer arithmetic that gives glibc's bytes and doubles exactly; every
 * other float goes through sprintf and strtod, as do all of them on a host
 * without 128-bit integers.  The integers are printed eight digits to a
 * word (put_digits) on every host.  On uniforms in
 * (-1, 1) a float takes about 25 ns to read and 35 ns to print in a C loop
 * on a shared 2-vCPU Xeon; the sidecar's, below, about 30 and 50 ns.
 *   - put_float: x = m 2^-s with m < 2^53 and 2^-19 <= |x| < 2^52, so
 *     10^k <= |x| < 10^(k + 2) for k = floor(log10 2^e2), x's binary
 *     exponent e2 in [-19, 51].  The product m 10^(16 - k) is exact in 128
 *     bits (10^22 < 2^74), and shifting it right by s is its quotient by
 *     2^s; the shifted-out remainder against 2^(s - 1) is the tie or the
 *     side of it, so D, the 17 digits, is rounded half to even, as glibc
 *     rounds the exact value.  A D of 18 digits means |x| >= 10^(k + 1):
 *     k goes up by one and D is made again.  D's digits are one lead digit
 *     and two words of eight (eight_digits, the reader's conversion run
 *     backwards), and the leading zero bits of the words count the trailing
 *     zeros that go; they are then laid out as %g lays them out.  Integers
 *     take the same words.
 *   - to_double, Eisel and Lemire's conversion: a text of w 10^-n with
 *     0 < w < 10^19 and 0 <= n <= 22.  W = w 2^lz lies in [2^63, 2^64), and
 *     the table holds C = 2^(127 + z) / 5^n rounded up, z = ceil(n log2 5),
 *     which lies in [2^127, 2^128) (exact at n = 0).  x is G 2^-(63 + z +
 *     lz + n) for G = W 2^(63 + z) / 5^n, and W C / 2^64 is G or exceeds it
 *     by less than 1.  The first product, A = W C_hi, puts G in
 *     (A - 1, A + 2^64); where the low 9 bits of its high word are all
 *     ones, the second adds W C_lo / 2^64, and A, now the top 128 bits of
 *     W C, puts G in (A - 1, A + 1).  The top 54 bits of A, its high word
 *     shifted by 9 or 10, are x's 53 and a rounding bit, and they are G's:
 *     G 5^n is a multiple of 2^63, as is K 5^n for any multiple K of 2^64,
 *     so G is K or more than 2^63 / 5^22 > 3800 from it (the bound behind
 *     Mushtak and Lemire's proof that no fallback is needed), never in
 *     [K - 1, K); and (A, A + 2^64) holds no multiple of 2^73 unless those
 *     9 bits are all ones.  For the same reason a rounding bit with only
 *     zeros below it in A is an exact midpoint, which rounds to even (after
 *     the first product alone it needs n = 0, where C is exact, as W C_hi
 *     has at most 63 + 2 factors 2 at n >= 1); a midpoint of 54 bits needs
 *     5^n to divide w < 2^64, so n <= 4.  Any other set rounding bit rounds
 *     up.  No product is left in doubt, and x lies in [1e-22, 1e19), a
 *     normal double.
 */

/* the longest row (24-byte floats, 20-byte int64s) and the 7 bytes that
 * word stores may write past it */
#define ROW_BYTES(d) (25 * ((d) + 1) + 58)

static int point_is_dot(void)
{
    const char *dp = localeconv()->decimal_point;
    return dp[0] == '.' && dp[1] == '\0';
}

static int is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/* the eight bytes at p as one word, p[0] its low byte (one load on a
 * little-endian host, written out so that gcc sees it) */
static uint64_t load8(const char *p)
{
    const unsigned char *u = (const unsigned char *)p;
    return (uint64_t)u[0] | (uint64_t)u[1] << 8 | (uint64_t)u[2] << 16 | (uint64_t)u[3] << 24
           | (uint64_t)u[4] << 32 | (uint64_t)u[5] << 40 | (uint64_t)u[6] << 48
           | (uint64_t)u[7] << 56;
}

/* every byte of the word is a digit: none is below '0' or above '9' */
static int all_digits(uint64_t word)
{
    return !(((word + 0x4646464646464646ull) | (word - 0x3030303030303030ull))
             & 0x8080808080808080ull);
}

/* the eight digits of a word, its low byte first, as a number: pairs of
 * digits, then of pairs, then of fours */
static uint64_t digits_value(uint64_t word)
{
    word -= 0x3030303030303030ull;
    word = word * 10 + (word >> 8);
    return ((word & 0x000000ff000000ffull) * 0x000f424000000064ull
            + (word >> 16 & 0x000000ff000000ffull) * 0x0000271000000001ull) >> 32;
}

/* the run of digits at p appended to *w while *sig, the count of digits in
 * the run and before it, is at most 19: eight at a time while they fit in w
 * and eight bytes lie before end, then one at a time; the byte after the
 * run (inline: gcc leaves its two calls out of line otherwise, at about
 * 15% of the reader's time) */
static inline const char *digit_run(const char *p, const char *end, uint64_t *w, int64_t *sig)
{
    uint64_t v = *w;
    int64_t n = *sig;
    for (; n <= 11 && end - p >= 8 && all_digits(load8(p)); p += 8, n += 8)
        v = 100000000 * v + digits_value(load8(p));
    for (; is_digit(*p); p++, n++)
        if (n < 19)
            v = 10 * v + (uint64_t)(*p - '0');
    *w = v;
    *sig = n;
    return p;
}

static const uint64_t POW10[18] = {
    1, 10, 100, 1000, 10000, 100000, 1000000, 10000000, 100000000, 1000000000,
    10000000000, 100000000000, 1000000000000, 10000000000000, 100000000000000,
    1000000000000000, 10000000000000000, 100000000000000000};

#define ZEROS 0x3030303030303030ull /* '0' in every byte */

/* the eight digits of u < 10^8, leading zeros included, as one word whose
 * low byte is the first digit, each byte a digit's value (or ZEROS into it
 * for the text): u split into two halves of four digits, each half into two
 * pairs and each pair into two digits, by multiplies and masks in lanes of
 * 32, 16 and 8 bits */
static uint64_t eight_digits(uint32_t u)
{
    uint64_t four = u / 10000 | (uint64_t)(u % 10000) << 32;
    uint64_t hundreds = (four * 10486 >> 20) & 0x0000007f0000007full;
    uint64_t two = hundreds | (four - 100 * hundreds) << 16;
    uint64_t tens = (two * 103 >> 10) & 0x000f000f000f000full;
    return tens | (two - 10 * tens) << 8;
}

/* the word into p[0..8), its low byte first (gcc merges no byte stores
 * here, so the word is stored whole, its bytes reversed first on a
 * big-endian host) */
static void put8(char *p, uint64_t word)
{
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
    word = __builtin_bswap64(word);
#endif
    memcpy(p, &word, sizeof word);
}

/* the count of the decimal digits of u < 10^17, 1 for 0 */
static int count_digits(uint64_t u)
{
    u |= 1; /* the same count: 10^k - 1 is odd */
    int t = (64 - __builtin_clzll(u)) * 1233 >> 12; /* about log10 of 2^bits */
    return t + (u >= POW10[t]);
}

/* the decimal digits of u into p, as many as it has, and up to 7 bytes
 * after them (the slack of ROW_BYTES); the end of the text */
static char *put_digits(char *p, uint64_t u)
{
    if (u >= 100000000) {
        p = put_digits(p, u / 100000000);
        put8(p, eight_digits((uint32_t)(u % 100000000)) | ZEROS);
        return p + 8;
    }
    int n = count_digits(u);
    put8(p, (eight_digits((uint32_t)u) | ZEROS) >> 8 * (8 - n)); /* the leading zeros go */
    return p + n;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

/* 5^-n as 2^(127 + z) / 5^n rounded up, z = ceil(n log2 5): high and low
 * word, n <= 22 */
static const uint64_t POW5_INV[23][2] = {
    {0x8000000000000000, 0x0000000000000000}, {0xcccccccccccccccc, 0xcccccccccccccccd},
    {0xa3d70a3d70a3d70a, 0x3d70a3d70a3d70a4}, {0x83126e978d4fdf3b, 0x645a1cac083126ea},
    {0xd1b71758e219652b, 0xd3c36113404ea4a9}, {0xa7c5ac471b478423, 0x0fcf80dc33721d54},
    {0x8637bd05af6c69b5, 0xa63f9a49c2c1b110}, {0xd6bf94d5e57a42bc, 0x3d32907604691b4d},
    {0xabcc77118461cefc, 0xfdc20d2b36ba7c3e}, {0x89705f4136b4a597, 0x31680a88f8953031},
    {0xdbe6fecebdedd5be, 0xb573440e5a884d1c}, {0xafebff0bcb24aafe, 0xf78f69a51539d749},
    {0x8cbccc096f5088cb, 0xf93f87b7442e45d4}, {0xe12e13424bb40e13, 0x2865a5f206b06fba},
    {0xb424dc35095cd80f, 0x538484c19ef38c95}, {0x901d7cf73ab0acd9, 0x0f9d37014bf60a11},
    {0xe69594bec44de15b, 0x4c2ebe687989a9b4}, {0xb877aa3236a4b449, 0x09befeb9fad487c3},
    {0x9392ee8e921d5d07, 0x3aff322e62439fd0}, {0xec1e4a7db69561a5, 0x2b31e9e3d06c32e6},
    {0xbce5086492111aea, 0x88f4bb1ca6bcf585}, {0x971da05074da7bee, 0xd3f6fc16ebca5e04},
    {0xf1c90080baf72cb1, 0x5324c68b12dd6339}};

/* 10^n, n <= 22 */
static u128 pow10_128(int n)
{
    return (u128)POW10[n / 2] * POW10[n - n / 2];
}

/* (v + f) / 2^s rounded half to even, 1 <= s <= 127, for some f in [0, 1)
 * that is 0 if and only if sticky is */
static uint64_t shift_round(u128 v, int s, int sticky)
{
    u128 rest = v & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
    uint64_t q = (uint64_t)(v >> s);
    return q + (rest > half || (rest == half && (sticky || (q & 1))));
}

/* w 10^-n correctly rounded, 0 < w < 10^19, n <= 22 */
static double to_double(uint64_t w, int n)
{
    int lz = __builtin_clzll(w), z = (n * 152170 + 65535) >> 16; /* ceil(n log2 5) */
    uint64_t W = w << lz;
    u128 a = (u128)W * POW5_INV[n][0];
    uint64_t hi = (uint64_t)(a >> 64), lo = (uint64_t)a;
    if ((hi & 0x1ff) == 0x1ff) {
        uint64_t add = (uint64_t)(((u128)W * POW5_INV[n][1]) >> 64);
        lo += add;
        hi += lo < add;
    }
    int shift = 9 + (int)(hi >> 63);
    uint64_t m = hi >> shift; /* 53 bits and the rounding bit */
    int midpoint = n <= 4 && lo == 0 && (hi & ((1ull << shift) - 1)) == 0;
    m = (m >> 1) + (m & 1 && (!midpoint || (m & 2)));
    int e = shift + 2 - z - lz - n; /* x = m 2^e */
    if (m >> 53) {
        m >>= 1;
        e++;
    }
    uint64_t bits = (uint64_t)(e + 52 + 1023) << 52 | (m & ((1ull << 52) - 1));
    double x;
    memcpy(&x, &bits, sizeof x);
    return x;
}

/* the 17 digits of D < 10^17 into dig, a lead digit and two words of
 * eight, and zeros into dig[17..24); the count left once the trailing zeros
 * go (a word's last digits are its high bytes) */
static int put17(char *dig, uint64_t D)
{
    uint64_t rest = D % POW10[16];
    uint64_t a = eight_digits((uint32_t)(rest / 100000000));
    uint64_t b = eight_digits((uint32_t)(rest % 100000000));
    dig[0] = (char)('0' + D / POW10[16]);
    put8(dig + 1, a | ZEROS);
    put8(dig + 9, b | ZEROS);
    memset(dig + 17, '0', 7);
    return b ? 17 - __builtin_clzll(b) / 8 : a ? 9 - __builtin_clzll(a) / 8 : 1;
}

/* the n bytes at src into p in words of eight, and so up to 7 bytes past
 * them: bytes that the rest of the row or block overwrites, or the slack
 * of ROW_BYTES; the end of the n bytes */
static char *copy_words(char *p, const char *src, int n)
{
    for (int i = 0; i < n; i += 8)
        memcpy(p + i, src + i, 8);
    return p + n;
}

/* the sign and the n digits of d.ddd 10^K, -6 <= K <= 15, into p, laid out
 * as %g lays them out, or as repr does where repr is set (".0" after a
 * whole number); dig holds 24 bytes, zeros after the n digits.  The end of
 * the text; up to 7 bytes after it are written too. */
static char *put_decimal(char *p, int neg, const char *dig, int n, int K, int repr)
{
    *p = '-';
    p += neg;
    if (K < -4) { /* d.ddde-0K */
        *p++ = dig[0];
        if (n > 1) {
            *p++ = '.';
            p = copy_words(p, dig + 1, n - 1);
        }
        memcpy(p, "e-0", 3);
        p[3] = (char)('0' - K);
        return p + 4;
    }
    if (K < 0) { /* 0.000ddd */
        memcpy(p, "0.000000", 8);
        return copy_words(p + 1 - K, dig, n);
    }
    p = copy_words(p, dig, K + 1); /* ddd[.ddd] */
    if (n > K + 1) {
        *p++ = '.';
        p = copy_words(p, dig + K + 1, n - K - 1);
    } else if (repr) {
        memcpy(p, ".0", 2);
        p += 2;
    }
    return p;
}

/* x as "%.17g" prints it, into p; the end of the text, or NULL where x is
 * outside the fast path's band */
static char *put_float_fast(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int e2 = (int)(bits >> 52 & 0x7ff) - 1023;
    if (e2 < -19 || e2 > 51)
        return NULL;
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    int s = 52 - e2;              /* |x| = m 2^-s */
    int k = (e2 * 78913) >> 18;   /* floor(e2 log10 2) on [-19, 51] (an arithmetic shift) */
    uint64_t D = shift_round((u128)m * pow10_128(16 - k), s, 0);
    if (D >= POW10[17]) {
        k++;
        D = shift_round((u128)m * pow10_128(16 - k), s, 0);
    }
    char dig[24];
    return put_decimal(p, bits >> 63, dig, put17(dig, D), k, 0);
}
#endif

/* x as "%.17g" prints it, into p; the end of the text */
static char *put_float(char *p, double x)
{
#ifdef __SIZEOF_INT128__
    char *fast = put_float_fast(p, x);
    if (fast)
        return fast;
#endif
    return p + sprintf(p, "%.17g", x);
}

static char *put_int(char *p, int64_t x)
{
    *p = '-';
    return put_digits(p + (x < 0), x < 0 ? 0 - (uint64_t)x : (uint64_t)x);
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
        p = put_float(p, t[k]);
        *p++ = ',';
        p = put_int(p, i[k]);
        *p++ = ',';
        p = put_int(p, j[k]);
        *p++ = ',';
        for (const double *s = sigma + k * d; s < sigma + (k + 1) * d; s++) {
            if (!isfinite(*s))
                return -1;
            p = put_float(p, *s);
            *p++ = ',';
        }
        p = put_int(p, assignment[k]);
        *p++ = ',';
        p = put_int(p, fictitious[k]);
        *p++ = '\n';
    }
    return p - buf;
}

/* the field at s ends at the separator sep, or, for the last field of a
 * row, at end */
static int field_ends(const char *s, char sep, const char *end)
{
    return *s == sep || (sep == '\n' && s == end);
}

/* the float at s, -?digits[.digits][e(+|-)digits], into *x; the byte after
 * its text, or NULL.  Its digits after any leading zeros go into w (the
 * first 19 of them; sig counts them all), and n is the count of the digits
 * after the point less the exponent, so the text is w 10^-n. */
static const char *scan_float(const char *s, const char *end, double *x)
{
    const char *p = s + (*s == '-');
    uint64_t w = 0;
    int64_t sig = 0, n = 0, ten_exp = 0;
    if (!is_digit(*p))
        return NULL;
    while (*p == '0')
        p++;
    p = digit_run(p, end, &w, &sig);
    if (*p == '.') {
        const char *point = ++p;
        if (!is_digit(*p))
            return NULL;
        if (!sig)
            while (*p == '0')
                p++;
        p = digit_run(p, end, &w, &sig);
        n = p - point;
    }
    if (*p == 'e') {
        p++;
        if ((*p != '+' && *p != '-') || !is_digit(p[1]))
            return NULL;
        int neg = *p++ == '-';
        for (; is_digit(*p); p++)
            if (ten_exp < 100000) /* beyond it only the fallback can be right */
                ten_exp = 10 * ten_exp + (*p - '0');
        n += neg ? ten_exp : -ten_exp;
    }
#ifdef __SIZEOF_INT128__
    if (w && sig <= 19 && n >= 0 && n <= 22) {
        *x = to_double(w, (int)n);
        *x = *s == '-' ? -*x : *x;
        return p;
    }
#endif
    char *stop;
    *x = strtod(s, &stop);
    return stop == p && isfinite(*x) ? p : NULL;
}

/* the float at s into *x; the byte after its separator, or NULL */
static const char *read_float(const char *s, char sep, const char *end, double *x)
{
    const char *e = scan_float(s, end, x);
    return e && field_ends(e, sep, end) ? e + 1 : NULL;
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

/* ---------------------------------------------------------------------------
 * The "initial_velocities" block of a sidecar (`config_io.write_sidecar`):
 * the rows of an n x d array as `json.dumps(payload, indent=1)` prints them
 * as a value of its top-level dict, each float as float.__repr__ prints it.
 * kac_write_velocities prints the block, and kac_read_velocities parses it
 * back.
 *
 * float.__repr__ prints the shortest decimal that reads back as x, and of
 * those the nearest to x.  put_repr_fast finds it in exact integer
 * arithmetic for x = m 2^-s in put_float_fast's band, binary exponent e2
 * in [-19, 51], and in its 17-digit units 10^(k - 16):
 *   - x is 4m 5^p / 2^t units, p = 16 - k <= 22 and t = s + 2 - p >= 2
 *     (the 2^p of 10^p cancels against 2^(s + 2), so the numerators stay
 *     below 2^107; with 10^p they would pass 2^128 at k = -6).
 *   - A double reads back as x from any text within half a gap above x
 *     and half a gap below it, a quarter gap below at m = 2^52, where the
 *     gap below is half the one above.  In units the ends are
 *     (4m + 2) 5^p / 2^t and (4m - 2 or 1) 5^p / 2^t, and [L, H] the
 *     integers between them.  No end is an integer (its numerator has at
 *     most one factor 2, and t >= 2), so whether the ends count, which
 *     hangs on the parity of m, never matters here.
 *   - The shortest text is a multiple c 10^j of the units in [L, H] with j
 *     as large as it can be; of those c, the nearest to x / 10^j, a tie to
 *     the even c.  Such a c has no trailing zero, or j would be larger.
 *   - Its digits, c 10^(17 - n) for its n digits, go out through put17, and
 *     are laid out as repr lays them out (put_decimal): fixed notation for
 *     a decimal exponent K in [-4, 16), with ".0" on an integer, and
 *     "d.ddde-0K" below 1e-4.  |x| < 2^52 < 10^16 keeps K below 16, and
 *     |x| >= 2^-19 keeps it at -6 or above.
 * Every other double (zero, subnormals, |x| below 2^-19 or at 2^52 and
 * above, non-finite) is left to the caller, one value at a time.
 *
 * The reader takes exactly the writer's layout, rows of equal length, and
 * a float in JSON's grammar with a point or an exponent, as repr prints
 * (an integer would be a Python int to json); scan_float converts it.
 */

#define REPR_ROW_BYTES(d) (28 * (d) + 9) /* 23-byte floats, ",\n   " each, a row's brackets */

#ifdef __SIZEOF_INT128__
static const uint64_t POW5[23] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125, 244140625,
    1220703125, 6103515625, 30517578125, 152587890625, 762939453125, 3814697265625,
    19073486328125, 95367431640625, 476837158203125, 2384185791015625};

/* x as float.__repr__ prints it, into p; the end of the text, or NULL where
 * x is outside the band */
static char *put_repr_fast(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int e2 = (int)(bits >> 52 & 0x7ff) - 1023;
    if (e2 < -19 || e2 > 51)
        return NULL;
    uint64_t m = (bits & ((1ull << 52) - 1)) | 1ull << 52;
    int k = (e2 * 78913) >> 18; /* 10^k <= |x| < 10^(k + 2), as in put_float_fast */
    int t = 52 - e2 + 2 - (16 - k);
    u128 five = POW5[16 - k], mask = ((u128)1 << t) - 1;
    u128 X = (u128)(4 * m) * five, hi = X + 2 * five;
    u128 lo = X - (m == 1ull << 52 ? five : 2 * five);
    uint64_t L = (uint64_t)((lo + mask) >> t), H = (uint64_t)(hi >> t);
    int j = 0;
    for (; (L + 9) / 10 <= H / 10; j++) {
        L = (L + 9) / 10;
        H /= 10;
    }
    uint64_t c = (uint64_t)(X >> t) / POW10[j];
    u128 rest = X - ((u128)(c * POW10[j]) << t), half = (u128)POW10[j] << (t - 1);
    c += rest > half || (rest == half && (c & 1));
    c = c < L ? L : c > H ? H : c;
    char dig[24];
    int n = count_digits(c);
    put17(dig, c * POW10[17 - n]);
    return put_decimal(p, bits >> 63, dig, n, n - 1 + j + k - 16, 1);
}
#endif

/* the "initial_velocities" block of the n x d velocities v, from its '['
 * to its ']', into buf, which holds cap bytes; a value outside the band is
 * written as one NUL byte and flagged in slow (n d bytes) for the caller to
 * print.  The number of bytes written, or -1 (no 128-bit integers, or too
 * small a buffer). */
int64_t kac_write_velocities(const double *v, int64_t n, int64_t d, char *buf, int64_t cap,
                             uint8_t *slow)
{
#ifdef __SIZEOF_INT128__
    if (n < 1 || d < 1 || cap < n * REPR_ROW_BYTES(d) + 4)
        return -1;
    char *p = buf;
    *p++ = '[';
    for (int64_t r = 0; r < n; r++) {
        memcpy(p, ",\n  [" + !r, 5 - !r);
        p += 5 - !r;
        for (int64_t c = 0; c < d; c++) {
            memcpy(p, ",\n   " + !c, 5 - !c);
            p += 5 - !c;
            char *q = put_repr_fast(p, v[r * d + c]);
            slow[r * d + c] = !q;
            if (!q) {
                *p = '\0';
                q = p + 1;
            }
            p = q;
        }
        memcpy(p, "\n  ]", 4);
        p += 4;
    }
    memcpy(p, "\n ]", 3);
    return p + 3 - buf;
#else
    (void)v, (void)n, (void)d, (void)buf, (void)cap, (void)slow;
    return -1;
#endif
}

/* the float at s, as repr prints it in JSON's grammar, into *x; its end,
 * which is ',' or '\n', or NULL */
static const char *read_repr(const char *s, const char *end, double *x)
{
    const char *q = s + (*s == '-');
    if (*q == '0' && is_digit(q[1]))
        return NULL; /* JSON has no leading zeros */
    while (is_digit(*q))
        q++;
    if (*q != '.' && *q != 'e')
        return NULL; /* an integer, which json reads as an int */
    q = scan_float(s, end, x);
    return q && (*q == ',' || *q == '\n') ? q : NULL;
}

/* s holds the literal text lit of n bytes, and end is not before its end */
static int holds(const char *s, const char *end, const char *lit, int64_t n)
{
    return end - s >= n && memcmp(s, lit, n) == 0;
}

/* the "initial_velocities" block that kac_write_velocities writes, from the
 * byte after its '[' (the len bytes at s are followed by a NUL), into v,
 * which holds cap doubles; the number of bytes to the end of its closing
 * ']', with the rows and columns in shape, or -1 where the text is another */
int64_t kac_read_velocities(const char *s, int64_t len, double *v, int64_t cap, int64_t *shape)
{
    if (!point_is_dot())
        return -1;
    const char *start = s, *end = s + len;
    int64_t rows = 0, d = 0, k = 0;
    do {
        if (!holds(s, end, ",\n  [" + !rows, 5 - !rows))
            return -1;
        s += 5 - !rows;
        int64_t c = 0;
        do {
            if (k == cap || !holds(s, end, ",\n   " + !c, 5 - !c))
                return -1;
            s += 5 - !c;
            if (!(s = read_repr(s, end, v + k++)))
                return -1;
            c++;
        } while (*s == ',');
        if ((rows && c != d) || !holds(s, end, "\n  ]", 4))
            return -1;
        d = c;
        s += 4;
        rows++;
    } while (*s == ',');
    if (!holds(s, end, "\n ]", 3))
        return -1;
    shape[0] = rows;
    shape[1] = d;
    return s + 3 - start;
}
