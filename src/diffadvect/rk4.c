/* RK4 particle advection against the rank blocks of one edge-padded lattice.
 *
 * The contract is in the docstring of diffadvect/advect.py. Every float
 * operation is the one numpy performs in advect._block_step and
 * field.Block.sample_clamped, in the same order, so the results are
 * bit-identical to them when built with -O3 -ffp-contract=off and no
 * fast-math. A point's x, y and z are one 4-wide vector (v4d), whose spare
 * lane feeds no decision and no output: a vector operation is numpy's
 * per-component one, three times over. It runs over the components, not the
 * lanes below, because a node's (vx, vy, vz) are adjacent: a sample's 8
 * corners are 8 contiguous loads, where 4 points would need 24 scattered
 * ones. A sample's cell and a position's tests stay scalar. Each point is
 * divided by the spacing once, and its g-space position is both tested and
 * sampled. Row i reads its block bounds, int64 (origin, core dims) of three,
 * at 3 * home[i] of one table of rank rows; rk4_advance's is table row rows[i],
 * updated in place. One test, reaches(), decides whether a point lies in its
 * block's reach, the closed sampling extent [origin - 1, origin + core], for
 * rk4_advance's starts and stage points and rk4_reach's containability check.
 *
 * rk4_advance runs on up to `workers` workers, and on no more than one per
 * LANES chunks: the calling thread plus helper threads it starts for the
 * call and joins before it returns. Each worker advances one row of each of
 * its LANES lanes together: every RK4 stage runs for all its live lanes
 * before the next stage, so the lanes' independent dependency chains
 * overlap. A lane claims CHUNK rows at a time from one shared counter, so a
 * lane that finishes early takes more of the work, and runs each row to its
 * event before it takes the next. Each chunk logs its rows' vertices, one
 * run per row, into its own region of the log, which starts at the summed
 * budgets of the rows before the chunk, and each row reports the slot where
 * its run starts, so what the log holds and where does not depend on which
 * lane ran a chunk. A worker's lanes live on its own stack, so no two
 * workers write the same lane state. Helpers block every signal, so signals
 * reach the caller, and inherit the caller's affinity mask, so taskset bounds
 * them; pinning each to a CPU of its own measured no faster. A helper that
 * fails to start leaves its chunks to the other workers. The library holds
 * one build: advect.py adds -mavx where the CPU has AVX, which has no FMA,
 * so nothing rounds unlike numpy; on x86 the build without it is two to
 * three times slower.
 *
 * The log holds float32, each vertex the (float) cast, to nearest as numpy's
 * astype, of its float64 position; every decision stays float64. rk4_export
 * copies curves.bin's payload a batch at a time, piece by piece from the logs.
 *
 * rk4_toroidal rasterizes field.py's toroidal field, whose components span
 * all three axes, in one scalar pass over the nodes of the padded lattice,
 * where numpy would make a dozen full-shape passes. Its operations are those
 * of field.AnalyticField.components, in their order, and are only + - * / and
 * sqrt, which are correctly rounded, so both builds write numpy's bytes.
 */
#include <math.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <string.h>

#define LANES 4         /* rows one worker advances together */
#define CHUNK 16        /* rows a lane claims at a time */
#define MAX_WORKERS 64  /* the most workers one call runs */

/* The values of advect.STATUS_* and the keys of advect._KERNEL_ERRORS. */
enum { STATUS_OOB = 1, STATUS_TERMINATED = 2, STATUS_EXITED = 3 };
enum { LOG_FULL = -1, START_OUTSIDE = -2 };

/* The lane count and chunk size, read by advect.LANES and advect.CHUNK. */
const int64_t rk4_lanes = LANES, rk4_chunk = CHUNK;

/* x, y, z and the spare lane. A vector passes by pointer, or within the always_inline helpers: passed or
 * returned by value, its ABI would depend on -mavx, which gcc warns of (-Wpsabi) in the build without it. */
typedef double v4d __attribute__((vector_size(32)));
#define INLINE static inline __attribute__((always_inline))

/* The three doubles at p as x, y and z, with `spare` in the spare lane; and x, y and z back to p. */
INLINE void load3(const double *p, double spare, v4d *v) { *v = (v4d){p[0], p[1], p[2], spare}; }
INLINE void store3(const v4d *v, double *p) { p[0] = (*v)[0], p[1] = (*v)[1], p[2] = (*v)[2]; }

/* Trilinear sample at g-space g of the lattice with flat node strides sx, sy (z is 1): the cell
 * floor(g), truncated then corrected, is clamped to [origin - 1, origin + core - 1]; z, y, x lerps.
 * Within reach, correction and clamp move the truncation only below 0 and on the extent's top face,
 * so they run in a rarely taken branch, off the dependency chain from g to the loads.
 * The clamp and the table's check origin + core <= shape - 2 (field.Block.kernel_table) keep every
 * corner in the lattice. A corner's 4-wide load takes the next node's x into its spare lane, which is
 * in the lattice too, since the last corner follows every other; the last can be the lattice's last
 * node (in the top cell of a rank whose core ends at the ghost layer), so it loads its 3 components. */
INLINE void trilinear(const double *lattice, int64_t sx, int64_t sy, const int64_t *origin,
                      const int64_t *core, const v4d *g, v4d *out)
{
    const int64_t stride[3] = {sx, sy, 1};
    int64_t node = sx + sy + 1; /* the ghost layer shifts node (i, j, k) by one per axis */
    double f[3];
    for (int a = 0; a < 3; a++) {
        int64_t cell = (int64_t)(*g)[a], lo = origin[a] - 1, top = origin[a] + core[a] - 1;
        double t = (double)cell;
        if (__builtin_expect(t > (*g)[a] || cell < lo || cell > top, 0)) {
            cell -= t > (*g)[a];
            cell = cell < lo ? lo : cell;
            cell = cell > top ? top : cell;
            t = (double)cell;
        }
        f[a] = (*g)[a] - t;
        node += cell * stride[a];
    }
    const double fx = f[0], fy = f[1], fz = f[2];
    const double *c = lattice + 3 * node;
    const int64_t y = 3 * sy, x = 3 * sx;
    v4d n000, n001, n010, n011, n100, n101, n110, n111; /* unaligned loads of 4 doubles, bar the last */
    memcpy(&n000, c, 32), memcpy(&n001, c + 3, 32), memcpy(&n010, c + y, 32), memcpy(&n011, c + y + 3, 32);
    memcpy(&n100, c + x, 32), memcpy(&n101, c + x + 3, 32), memcpy(&n110, c + x + y, 32);
    load3(c + x + y + 3, 0.0, &n111);
    v4d c00 = (1.0 - fz) * n000 + fz * n001;
    v4d c01 = (1.0 - fz) * n010 + fz * n011;
    v4d c10 = (1.0 - fz) * n100 + fz * n101;
    v4d c11 = (1.0 - fz) * n110 + fz * n111;
    v4d c0 = (1.0 - fy) * c00 + fy * c01;
    v4d c1 = (1.0 - fy) * c10 + fy * c11;
    *out = (1.0 - fx) * c0 + fx * c1;
}

/* 1 if lo <= g <= hi (closed) or lo <= g < hi (half open) on every axis. */
INLINE int inside(const v4d *g, const int64_t *lo, const int64_t *hi, int closed)
{
    for (int a = 0; a < 3; a++)
        if (!((*g)[a] >= (double)lo[a] && (closed ? (*g)[a] <= (double)hi[a] : (*g)[a] < (double)hi[a])))
            return 0;
    return 1;
}

/* The first maximum of the overshoots (lo0 - g0, g0 - hi0, lo1 - g1, ...) over the faces that g is
 * outside of: strictly below lo, or on or above hi. A point on a lower face is inside it, so it never
 * ties with the upper face it crossed. */
static int64_t exit_direction(const v4d *g, const int64_t *lo, const int64_t *hi)
{
    int64_t best = -1;
    double top = -1.0; /* every outside face overshoots by >= 0 */
    for (int k = 0; k < 6; k++) {
        int a = k / 2;
        double over = (k & 1) ? (*g)[a] - (double)hi[a] : (double)lo[a] - (*g)[a];
        int outside = (k & 1) ? (*g)[a] >= (double)hi[a] : (*g)[a] < (double)lo[a];
        if (outside && over > top) {
            top = over;
            best = k;
        }
    }
    return best;
}

/* The closed sampling extent [lo, hi] = [origin - 1, origin + core] of row `home` of the bounds table. */
static inline void extent(const int64_t *origin, const int64_t *core, int64_t home, int64_t *lo, int64_t *hi)
{
    for (int a = 0; a < 3; a++) {
        lo[a] = origin[3 * home + a] - 1;
        hi[a] = origin[3 * home + a] + core[3 * home + a];
    }
}

/* 1 if p, whose g-space position p / spacing it writes to g, lies in the closed extent [lo, hi]. The
 * spacing holds 1.0 in its spare lane. */
INLINE int reaches(const v4d *p, const v4d *spacing, const int64_t *lo, const int64_t *hi, v4d *g)
{
    *g = *p / *spacing;
    return inside(g, lo, hi, 1);
}

/* The first of n points outside its home's reach, or -1. The arguments before points are rk4_sample's,
 * so one bounds tuple feeds both; the lattice and its strides are not read. */
int64_t rk4_reach(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                  const int64_t *origin, const int64_t *core, const int64_t *home, const double *points)
{
    (void)lattice, (void)sx, (void)sy;
    v4d step, p, g;
    load3(spacing, 1.0, &step);
    for (int64_t i = 0; i < n; i++) {
        int64_t lo[3], hi[3];
        extent(origin, core, home[i], lo, hi);
        load3(points + 3 * i, 0.0, &p);
        if (!reaches(&p, &step, lo, hi, &g))
            return i;
    }
    return -1;
}

/* Sample n points, each against its home's row of bounds, with the workers' sampler. */
void rk4_sample(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                const int64_t *origin, const int64_t *core, const int64_t *home, const double *points, double *out)
{
    v4d step, p, g, v;
    load3(spacing, 1.0, &step);
    for (int64_t i = 0; i < n; i++) {
        load3(points + 3 * i, 0.0, &p);
        g = p / step;
        trilinear(lattice, sx, sy, origin + 3 * home[i], core + 3 * home[i], &g, &v);
        store3(&v, out + 3 * i);
    }
}

/* Copy n pieces of vertices, one after the other into out: piece i is the count[i] vertices, 3 floats
 * each, at address addr[i]. */
void rk4_export(int64_t n, const int64_t *addr, const int64_t *count, float *out)
{
    for (int64_t i = 0; i < n; i++) {
        memcpy(out, (const float *)(intptr_t)addr[i], 12 * count[i]);
        out += 3 * count[i];
    }
}

/* Fill the interior nodes of the padded (rx + 2, ry + 2, rz + 2, 3) lattice with the toroidal field of ring
 * radius r0 and poloidal strength kappa, node (i, j, k) at (i, j, k) * spacing; returns their max|v|, which is
 * NaN or infinite where a value is. Each clamp max(., eps) lets a NaN through, as np.maximum does. The terms
 * of a y-row are computed once. */
double rk4_toroidal(int64_t rx, int64_t ry, int64_t rz, const double *spacing, double r0, double kappa, double eps,
                    double *lattice)
{
    const int64_t sy = 3 * (rz + 2), sx = sy * (ry + 2);
    double vmax = 0.0, hz = spacing[2];
    int nans = 0;
    for (int64_t i = 0; i < rx; i++) {
        const double dx = (double)i * spacing[0] - 0.5;
        for (int64_t j = 0; j < ry; j++) {
            const double dy = (double)j * spacing[1] - 0.5, r = sqrt(dx * dx + dy * dy), rho = r < eps ? eps : r;
            const double ring = rho - r0, tx = -dy / rho, ty = dx / rho;
            double *v = lattice + (i + 1) * sx + (j + 1) * sy + 3;
            for (int64_t k = 0; k < rz; k++, v += 3) {
                const double dz = (double)k * hz - 0.5, d = sqrt(ring * ring + dz * dz), rs = d < eps ? eps : d;
                v[0] = -dz * dx / rho * kappa / rs + tx;
                v[1] = -dz * dy / rho * kappa / rs + ty;
                v[2] = kappa * ring / rs;
                for (int a = 0; a < 3; a++)
                    vmax = fabs(v[a]) > vmax ? fabs(v[a]) : vmax, nans |= v[a] != v[a];
            }
        }
    }
    return nans ? NAN : vmax;
}

/* One call's arguments, which every worker reads from its own copy, and the shared chunk counter. */
typedef struct {
    v4d spacing; /* 1.0 in the spare lane */
    int64_t n, chunks, sx, sy;
    const double *lattice;
    const int64_t *origin, *core, *home, *rows;
    double h, *pos;
    float *vertices;
    int64_t *remaining, *status, *exit_dir, *steps, *start;
    int64_t *claimed, *logged; /* the next unclaimed chunk; the vertices the finished chunks logged */
} Call;

/* The chunk counter and the logged count, on a cache line of their own. */
typedef struct {
    _Alignas(64) int64_t next, logged;
} Counter;

/* One lane: its chunk, the row it advances, the end of the chunk's rows, its next log slot, the
 * vertices its finished chunks logged and the row's state. */
typedef struct {
    int64_t chunk, row, end, slot, logged, taken; /* taken: the row's accepted steps so far */
    const int64_t *origin, *core;
    int64_t core_hi[3], sample_lo[3];
    v4d p, g, k[4];                /* g: p's g-space position, or the rejected stage point's */
    int rejected;
} Lane;

/* Move the lane to its next row with a positive budget, recording each row's start slot, marking the
 * rows it skips terminated and claiming the next chunk once its chunk is spent; returns 0 once no
 * chunk is left. */
static int next_row(Lane *lane, const Call *c)
{
    for (;;) {
        for (; lane->row < lane->end; lane->row++) {
            int64_t i = lane->row, r = c->rows[i];
            c->start[i] = lane->slot;
            if (c->remaining[r] <= 0) {
                c->status[i] = STATUS_TERMINATED;
                continue;
            }
            lane->origin = c->origin + 3 * c->home[r];
            lane->core = c->core + 3 * c->home[r];
            extent(c->origin, c->core, c->home[r], lane->sample_lo, lane->core_hi);
            load3(c->pos + 3 * r, 0.0, &lane->p);
            lane->g = lane->p / c->spacing;
            lane->taken = 0;
            return 1;
        }
        if (lane->chunk >= 0)
            lane->logged += lane->slot - c->start[lane->chunk * CHUNK];
        lane->chunk = __atomic_fetch_add(c->claimed, 1, __ATOMIC_RELAXED);
        if (lane->chunk >= c->chunks)
            return 0;
        lane->row = lane->chunk * CHUNK;
        lane->end = lane->row + CHUNK < c->n ? lane->row + CHUNK : c->n;
        lane->slot = c->start[lane->row]; /* the chunk's base, set before any lane runs */
    }
}

/* One worker: its LANES lanes advance one row each, stage by stage, until no chunk is left. */
static void work(const Call *c)
{
    const double h = c->h, half = h / 2.0, sixth = h / 6.0;
    const double *lattice = c->lattice;
    const int64_t sx = c->sx, sy = c->sy;
    Lane lanes[LANES];
    int live[LANES];
    for (int l = 0; l < LANES; l++) {
        lanes[l].chunk = -1;
        lanes[l].row = lanes[l].end = lanes[l].logged = 0;
        live[l] = next_row(&lanes[l], c);
    }
    for (;;) {
        int any = 0;
        for (int l = 0; l < LANES; l++) {
            if (!live[l])
                continue;
            Lane *lane = &lanes[l];
            any = 1;
            trilinear(lattice, sx, sy, lane->origin, lane->core, &lane->g, &lane->k[0]);
            lane->rejected = 0;
        }
        if (!any)
            break;
        for (int stage = 1; stage < 4; stage++) {
            double scale = stage == 3 ? h : half;
            for (int l = 0; l < LANES; l++) {
                Lane *lane = &lanes[l];
                if (!live[l] || lane->rejected)
                    continue;
                v4d s = lane->p + scale * lane->k[stage - 1];
                if (reaches(&s, &c->spacing, lane->sample_lo, lane->core_hi, &lane->g))
                    trilinear(lattice, sx, sy, lane->origin, lane->core, &lane->g, &lane->k[stage]);
                else
                    lane->rejected = 1;
            }
        }
        for (int l = 0; l < LANES; l++) {
            Lane *lane = &lanes[l];
            if (!live[l])
                continue;
            int64_t i = lane->row, r = c->rows[i], event = 0;
            if (lane->rejected) {
                event = STATUS_OOB;
                c->exit_dir[i] = exit_direction(&lane->g, lane->sample_lo, lane->core_hi);
            } else {
                v4d q = lane->p + sixth * (((lane->k[0] + 2.0 * lane->k[1]) + 2.0 * lane->k[2]) + lane->k[3]);
                int in_domain = 1;
                for (int a = 0; a < 3; a++)
                    in_domain &= q[a] >= 0.0 && q[a] <= 1.0;
                if (!in_domain) { /* before the core test: the one way out of the domain */
                    event = STATUS_EXITED;
                } else {
                    for (int a = 0; c->vertices && a < 3; a++)
                        c->vertices[3 * lane->slot + a] = (float)q[a];
                    lane->slot++;
                    lane->p = q;
                    if (++lane->taken == c->remaining[r]) {
                        event = STATUS_TERMINATED;
                    } else {
                        lane->g = lane->p / c->spacing;
                        if (!inside(&lane->g, lane->origin, lane->core_hi, 0)) {
                            event = STATUS_OOB;
                            c->exit_dir[i] = exit_direction(&lane->g, lane->origin, lane->core_hi);
                        }
                    }
                }
            }
            if (event) {
                c->status[i] = event;
                store3(&lane->p, c->pos + 3 * r);
                c->steps[i] += lane->taken;
                c->remaining[r] -= lane->taken;
                lane->row++;
                live[l] = next_row(lane, c);
            }
        }
    }
    int64_t logged = 0;
    for (int l = 0; l < LANES; l++)
        logged += lanes[l].logged;
    __atomic_fetch_add(c->logged, logged, __ATOMIC_RELAXED);
}

static void *helper(void *shared)
{
    Call c = *(const Call *)shared; /* read once: the caller's stack line is never read again */
    work(&c);
    return NULL;
}

/* Start up to count helpers of the call, each with every signal blocked and the caller's affinity mask;
 * returns how many started. */
static int start_helpers(const Call *c, int count, pthread_t *helpers)
{
    int started = 0;
    if (count < 1)
        return 0;
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old); /* the helpers inherit the mask */
    for (int k = 0; k < count; k++)
        started += pthread_create(&helpers[started], NULL, helper, (void *)c) == 0;
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    return started;
}

/* Advance table row rows[i], for each i < n, to its event on up to `workers` workers (no row may repeat);
 * returns the vertices logged, LOG_FULL or START_OUTSIDE. Chunk c (i in [c * CHUNK, (c + 1) * CHUNK)) logs
 * into vertices from the summed budgets of the rows before it, and start[i] is the slot where row rows[i]'s
 * run begins; with vertices NULL nothing is logged and the slots are only counted. */
int64_t rk4_advance(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                    const int64_t *origin, const int64_t *core, const int64_t *home, double h, const int64_t *rows,
                    double *pos, int64_t *remaining, int64_t *status, int64_t *exit_dir, int64_t *steps,
                    float *vertices, int64_t capacity, int64_t *start, int64_t workers)
{
    int64_t budget = 0, chunks = (n + CHUNK - 1) / CHUNK;
    v4d step, p, g;
    load3(spacing, 1.0, &step);
    for (int64_t i = 0; i < n; i++) {
        int64_t r = rows[i], lo[3], hi[3];
        if (i % CHUNK == 0)
            start[i] = budget; /* the chunk's base */
        if (remaining[r] <= 0)
            continue;
        extent(origin, core, home[r], lo, hi);
        load3(pos + 3 * r, 0.0, &p);
        if (!reaches(&p, &step, lo, hi, &g))
            return START_OUTSIDE;
        budget += remaining[r];
    }
    if (vertices && budget > capacity)
        return LOG_FULL;

    Counter counter = {0, 0};
    const Call call = {step, n, chunks, sx, sy, lattice, origin, core, home, rows, h, pos, vertices,
                       remaining, status, exit_dir, steps, start, &counter.next, &counter.logged};
    /* a helper costs tens of microseconds to start and wake, so each worker's lanes get a chunk apiece */
    workers = workers < chunks / LANES ? workers : chunks / LANES;
    workers = workers < MAX_WORKERS ? workers : MAX_WORKERS;
    pthread_t helpers[MAX_WORKERS];
    int started = start_helpers(&call, (int)workers - 1, helpers);
    work(&call);
    for (int k = 0; k < started; k++)
        pthread_join(helpers[k], NULL);
    return counter.logged;
}
