/* RK4 particle advection against per-row blocks of one edge-padded lattice.
 *
 * The contract is in the docstring of diffadvect/advect.py. Every float
 * operation is the one numpy performs in advect._block_step and
 * field.Block.sample_clamped, in the same order, so the results are
 * bit-identical to them when built with -O2 -ffp-contract=off and no
 * fast-math. Each point is divided by the spacing once, and its g-space
 * position is both tested and sampled. Block bounds are int64 rows
 * (origin, core dims) of three.
 */
#include <stdint.h>

/* The values of advect.STATUS_* and the keys of advect._KERNEL_ERRORS. */
enum { STATUS_OOB = 1, STATUS_TERMINATED = 2, STATUS_EXITED = 3 };
enum { LOG_FULL = -1, START_OUTSIDE = -2 };

/* Trilinear sample at g-space g of the lattice with flat node strides sx, sy (z is 1): the cell
 * floor(g), truncated then corrected, is clamped to [origin - 1, origin + core - 1]; z, y, x lerps. */
static void trilinear(const double *lattice, int64_t sx, int64_t sy,
                      const int64_t *origin, const int64_t *core, const double *g, double *out)
{
    const int64_t stride[3] = {sx, sy, 1};
    int64_t node = sx + sy + 1; /* the ghost layer shifts node (i, j, k) by one per axis */
    double f[3];
    for (int a = 0; a < 3; a++) {
        int64_t cell = (int64_t)g[a];
        cell -= (double)cell > g[a];
        int64_t lo = origin[a] - 1, top = origin[a] + core[a] - 1;
        cell = cell < lo ? lo : cell;
        cell = cell > top ? top : cell;
        f[a] = g[a] - (double)cell;
        node += cell * stride[a];
    }
    const double fx = f[0], fy = f[1], fz = f[2];
    const double *c = lattice + 3 * node;
    const int64_t y = 3 * sy, x = 3 * sx;
    for (int d = 0; d < 3; d++, c++) {
        double c00 = (1.0 - fz) * c[0] + fz * c[3];
        double c01 = (1.0 - fz) * c[y] + fz * c[y + 3];
        double c10 = (1.0 - fz) * c[x] + fz * c[x + 3];
        double c11 = (1.0 - fz) * c[x + y] + fz * c[x + y + 3];
        double c0 = (1.0 - fy) * c00 + fy * c01;
        double c1 = (1.0 - fy) * c10 + fy * c11;
        out[d] = (1.0 - fx) * c0 + fx * c1;
    }
}

/* The g-space position of p. */
static void to_g(const double *p, const double *spacing, double *g)
{
    for (int a = 0; a < 3; a++)
        g[a] = p[a] / spacing[a];
}

/* 1 if lo <= g <= hi (closed) or lo <= g < hi (half open) on every axis. */
static int inside(const double *g, const int64_t *lo, const int64_t *hi, int closed)
{
    for (int a = 0; a < 3; a++)
        if (!(g[a] >= (double)lo[a] && (closed ? g[a] <= (double)hi[a] : g[a] < (double)hi[a])))
            return 0;
    return 1;
}

/* The first maximum of (lo0 - g0, g0 - hi0, lo1 - g1, g1 - hi1, lo2 - g2, g2 - hi2). */
static int64_t exit_direction(const double *g, const int64_t *lo, const int64_t *hi)
{
    int64_t best = 0;
    double top = (double)lo[0] - g[0];
    for (int k = 1; k < 6; k++) {
        int a = k / 2;
        double over = (k & 1) ? g[a] - (double)hi[a] : (double)lo[a] - g[a];
        if (over > top) {
            top = over;
            best = k;
        }
    }
    return best;
}

/* Sample n points, each against its own row of bounds. */
void rk4_sample(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                const int64_t *origin, const int64_t *core, const double *points, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double g[3];
        to_g(points + 3 * i, spacing, g);
        trilinear(lattice, sx, sy, origin + 3 * i, core + 3 * i, g, out + 3 * i);
    }
}

/* Advance every row to its event; returns the new cursor, LOG_FULL or START_OUTSIDE. */
int64_t rk4_advance(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                    const int64_t *origin, const int64_t *core, double h,
                    double *pos, int64_t *remaining, int64_t *status, int64_t *exit_dir, int64_t *steps,
                    int64_t *rows, double *vertices, int64_t cursor, int64_t capacity)
{
    const double half = h / 2.0, sixth = h / 6.0;
    for (int64_t i = 0; i < n; i++) {
        const int64_t *o = origin + 3 * i, *c = core + 3 * i;
        const int64_t core_hi[3] = {o[0] + c[0], o[1] + c[1], o[2] + c[2]};
        const int64_t sample_lo[3] = {o[0] - 1, o[1] - 1, o[2] - 1};
        double *p = pos + 3 * i, g[3];
        if (remaining[i] <= 0) {
            status[i] = STATUS_TERMINATED;
            continue;
        }
        to_g(p, spacing, g);
        if (!inside(g, sample_lo, core_hi, 1))
            return START_OUTSIDE;
        for (;;) {
            double k[4][3], s[3], q[3];
            trilinear(lattice, sx, sy, o, c, g, k[0]); /* g holds p's g-space position here */
            int rejected = 0;
            for (int stage = 1; stage < 4 && !rejected; stage++) {
                double scale = stage == 3 ? h : half;
                for (int a = 0; a < 3; a++)
                    s[a] = p[a] + scale * k[stage - 1][a];
                to_g(s, spacing, g);
                if (inside(g, sample_lo, core_hi, 1))
                    trilinear(lattice, sx, sy, o, c, g, k[stage]);
                else
                    rejected = 1;
            }
            if (rejected) {
                status[i] = STATUS_OOB;
                exit_dir[i] = exit_direction(g, sample_lo, core_hi);
                break;
            }
            int in_domain = 1;
            for (int a = 0; a < 3; a++) {
                q[a] = p[a] + sixth * (((k[0][a] + 2.0 * k[1][a]) + 2.0 * k[2][a]) + k[3][a]);
                in_domain &= q[a] >= 0.0 && q[a] <= 1.0;
            }
            if (!in_domain) {
                status[i] = STATUS_EXITED;
                break;
            }
            if (rows) {
                if (cursor >= capacity)
                    return LOG_FULL;
                rows[cursor] = i;
                for (int a = 0; a < 3; a++)
                    vertices[3 * cursor + a] = q[a];
            }
            cursor++;
            for (int a = 0; a < 3; a++)
                p[a] = q[a];
            steps[i]++;
            if (--remaining[i] == 0) {
                status[i] = STATUS_TERMINATED;
                break;
            }
            to_g(p, spacing, g);
            if (!inside(g, o, core_hi, 0)) {
                status[i] = STATUS_OOB;
                exit_dir[i] = exit_direction(g, o, core_hi);
                break;
            }
        }
    }
    return cursor;
}
