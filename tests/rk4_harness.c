/* Drives rk4_advance, rk4_reach, rk4_sample, rk4_export, rk4_toroidal, rk4_place and rk4_pad of
 * diffadvect/rk4.c, for sanitizer builds.
 *
 * Build it together with rk4.c, with -mavx where the kernel is built with it, e.g.
 *     gcc -g -O1 -pthread -mavx -fsanitize=thread -fno-sanitize-recover=all \
 *         tests/rk4_harness.c src/diffadvect/rk4.c -o harness -lm && ./harness
 * and again with -fsanitize=address,undefined. For row counts around the CHUNK and LANES * CHUNK
 * boundaries, and for one world whose rows start in the last rank's top cell, where a sample's last
 * corner is the lattice's last node (so a load past the lattice's end fails under ASAN), it checks,
 * against one worker with curves on, which advances a table of just the world's rows, in order:
 *   - that 1 to 4 workers, with curves on and off, give the same outcome, starts, count and log when they
 *     advance the rows through a permuted index into a table with a gap row before and after each row,
 *     whose gap rows stay as they were;
 *   - that each logged vertex is the (float) cast of its float64 position, replayed one step per call;
 *   - that rk4_reach finds no start outside its reach, then the one row moved outside it;
 *   - that a start outside its reach, or a log one vertex short, is refused with nothing written.
 * It also exports pieces of a log, out of log order, a batch at a time into buffers of exactly the
 * batch's size, for batch sizes that cut pieces at both ends of a batch and around a one-vertex piece,
 * and checks that each float is copied from its slot of the log; and that n = 0 reads and writes
 * nothing. It samples one point on every face of each rank's closed extent, and the centre and top
 * corner of the last rank's top cell, whose last corner is the lattice's last node, and checks each
 * against the node, or the mean of the cell's 8 corners, that it should be. It fills padded lattices
 * of exact size, some with a 2-node axis, with rk4_toroidal, and checks that it wrote each interior
 * node and no ghost node, its max|v|, one node against the formula and that a NaN comes back. It fills
 * padded lattices of exact size, some with a 2-node axis, with rk4_place in slabs of 1 and of 3 x-planes,
 * from components of exact size read through zero, negative and unaligned strides, pads them with
 * rk4_pad, and checks every interior and ghost node bit for bit.
 * Every allocation is freed, so LeakSanitizer reports only a leak of the kernel's own. Exits 0 when
 * every check holds, else 1 after printing each world's first failed check.
 */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

int64_t rk4_advance(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                    const int64_t *origin, const int64_t *core, const int64_t *home, double h, const int64_t *rows,
                    double *pos, int64_t *remaining, int64_t *status, int64_t *exit_dir, int64_t *steps,
                    float *vertices, int64_t capacity, int64_t *start, int64_t workers);
int64_t rk4_reach(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                  const int64_t *origin, const int64_t *core, const int64_t *home, const double *points);
void rk4_sample(int64_t n, const double *lattice, int64_t sx, int64_t sy, const double *spacing,
                const int64_t *origin, const int64_t *core, const int64_t *home, const double *points, double *out);
void rk4_export(int64_t n, const int64_t *addr, const int64_t *count, float *out);
double rk4_toroidal(int64_t rx, int64_t ry, int64_t rz, const double *spacing, double r0, double kappa, double eps,
                    double *lattice);
void rk4_place(int64_t x0, int64_t n, int64_t ry, int64_t rz, const int64_t *table, double *lattice);
void rk4_pad(int64_t rx, int64_t ry, int64_t rz, double *lattice);
extern const int64_t rk4_lanes, rk4_chunk;

#define RES 24     /* lattice nodes per axis, before the ghost layer */
#define SPLIT 12   /* core nodes per axis of each of the 2 x 2 x 2 ranks */
#define RANKS 8
#define H 0.005    /* 2 * H * max|v| stays below the spacing, as the simulator requires */

static const int64_t SX = (RES + 2) * (RES + 2), SY = RES + 2;
static double lattice[(RES + 2) * (RES + 2) * (RES + 2) * 3], spacing[3];
static int64_t origin[3 * RANKS], core[3 * RANKS];
static uint64_t rng = 88172645463325252ull;

static double uniform(void) /* xorshift64, in [0, 1) */
{
    rng ^= rng << 13, rng ^= rng >> 7, rng ^= rng << 17;
    return (double)(rng >> 11) / 9007199254740992.0;
}

/* One world of n rows and what the kernel writes for it; intact is 0 if it wrote to a gap row. */
typedef struct {
    int64_t n, capacity, logged, intact;
    int64_t *home, *remaining, *status, *exit_dir, *steps, *start;
    double *pos;
    float *vertices;
} World;

static void *fill(size_t count, size_t size, int byte)
{
    void *p = malloc(count ? count * size : 1);
    if (!p) {
        fprintf(stderr, "out of memory\n");
        exit(1);
    }
    memset(p, byte, count * size);
    return p;
}

/* 1 if each of the `bytes` bytes at p is 0xa5, the fill of a gap row. */
static int filled(const void *p, size_t bytes)
{
    for (size_t k = 0; k < bytes; k++)
        if (((const unsigned char *)p)[k] != 0xa5)
            return 0;
    return 1;
}

static void release(World *w)
{
    free(w->home), free(w->remaining), free(w->status), free(w->exit_dir), free(w->steps), free(w->start);
    free(w->pos), free(w->vertices);
}

/* A copy of seed whose kernel outputs are reset, advanced on `workers` workers; logs when `log`. With
 * `gapped`, row i is row rows[i] = 2 * perm[i] + 1 of a table of 2n + 1 rows, for a random permutation
 * perm, whose even rows are gaps the kernel must not touch; else the table is the world's rows. The rows'
 * positions and budgets are gathered back into the copy. */
static World advanced(const World *seed, int64_t workers, int log, int gapped)
{
    int64_t n = seed->n, size = gapped ? 2 * n + 1 : n;
    World w = {n, seed->capacity, 0, 1, fill(n, 8, 0), fill(n, 8, 0), fill(n, 8, 0), fill(n, 8, 0xff),
               fill(n, 8, 0), fill(n, 8, 0xff), fill(3 * n, 8, 0), log ? fill(3 * seed->capacity, 4, 0) : NULL};
    int64_t *rows = fill(n, 8, 0), *home = fill(size, 8, 0xa5), *remaining = fill(size, 8, 0xa5);
    double *pos = fill(3 * size, 8, 0xa5);
    for (int64_t i = 0; i < n; i++) { /* Fisher-Yates over perm, kept in rows */
        int64_t j = (int64_t)(uniform() * (i + 1));
        rows[i] = rows[j], rows[j] = i;
    }
    for (int64_t i = 0; i < n; i++) {
        rows[i] = gapped ? 2 * rows[i] + 1 : i;
        w.home[i] = home[rows[i]] = seed->home[i], remaining[rows[i]] = seed->remaining[i];
        memcpy(pos + 3 * rows[i], seed->pos + 3 * i, 24);
    }
    w.logged = rk4_advance(n, lattice, SX, SY, spacing, origin, core, home, H, rows, pos, remaining, w.status,
                           w.exit_dir, w.steps, w.vertices, w.capacity, w.start, workers);
    for (int64_t i = 0; i < n; i++) {
        w.remaining[i] = remaining[rows[i]];
        memcpy(w.pos + 3 * i, pos + 3 * rows[i], 24);
    }
    for (int64_t k = 0; gapped && k < size; k += 2) /* the gap rows, each byte still the fill */
        w.intact &= filled(pos + 3 * k, 24) && filled(home + k, 8) && filled(remaining + k, 8);
    free(rows), free(home), free(remaining), free(pos);
    return w;
}

static int same(const World *a, const World *b)
{
    int64_t n = a->n;
    return a->logged == b->logged && !memcmp(a->pos, b->pos, 3 * n * 8)
        && !memcmp(a->remaining, b->remaining, n * 8) && !memcmp(a->status, b->status, n * 8)
        && !memcmp(a->exit_dir, b->exit_dir, n * 8) && !memcmp(a->steps, b->steps, n * 8)
        && !memcmp(a->start, b->start, n * 8)
        && (!a->vertices || !b->vertices || !memcmp(a->vertices, b->vertices, 3 * a->capacity * 4));
}

/* 1 if the kernel left w's rows, and its table's gap rows, as they are in seed. */
static int untouched(const World *w, const World *seed)
{
    return w->intact && !memcmp(w->pos, seed->pos, 3 * w->n * 8) && !memcmp(w->remaining, seed->remaining, w->n * 8);
}

#define CHECK(cond, ...) do { if (!(cond)) { fprintf(stderr, __VA_ARGS__); fputc('\n', stderr); \
                                             failed = 1; goto done; } } while (0)

/* Every check for one world of n rows, which start in their home's core, or with `corner` in the last
 * rank's top cell; returns 0 when all hold. */
static int run(int64_t n, int corner)
{
    int failed = 0;
    World seed = {n, 0, 0, 1, fill(n, 8, 0), fill(n, 8, 0), NULL, NULL, NULL, NULL, fill(3 * n, 8, 0), NULL};
    World ref = {0}, other = {0};
    for (int64_t i = 0; i < n; i++) {
        seed.home[i] = corner ? RANKS - 1 : (int64_t)(uniform() * RANKS);
        seed.remaining[i] = i % 7 == 3 ? 0 : (int64_t)(uniform() * 60); /* some rows take no step */
        seed.capacity += seed.remaining[i] > 0 ? seed.remaining[i] : 0;
        for (int a = 0; a < 3; a++) /* in the core, and inside the domain; or in the top cell */
            seed.pos[3 * i + a] = (corner ? RES - 1 + uniform()
                                          : origin[3 * seed.home[i] + a] + uniform() * (SPLIT - 1)) * spacing[a];
    }
    int64_t reach = rk4_reach(n, lattice, SX, SY, spacing, origin, core, seed.home, seed.pos);
    CHECK(reach == -1, "n=%ld: rk4_reach found row %ld outside its reach", (long)n, (long)reach);

    ref = advanced(&seed, 1, 1, 0);
    int64_t steps = 0;
    for (int64_t i = 0; i < n; i++)
        steps += ref.steps[i];
    CHECK(ref.logged == steps, "n=%ld: logged %ld vertices for %ld steps", (long)n, (long)ref.logged, (long)steps);
    for (int64_t i = 0; i < n; i++) { /* step j of a call is step j of as many one-step calls from its start */
        double p[3] = {seed.pos[3 * i], seed.pos[3 * i + 1], seed.pos[3 * i + 2]};
        for (int64_t j = 0; j < ref.steps[i]; j++) {
            int64_t row = 0, one = 1, status, dir, taken = 0, start;
            rk4_advance(1, lattice, SX, SY, spacing, origin, core, seed.home + i, H, &row, p, &one, &status, &dir,
                        &taken, NULL, 0, &start, 1);
            const float *v = ref.vertices + 3 * (ref.start[i] + j);
            CHECK(taken == 1 && v[0] == (float)p[0] && v[1] == (float)p[1] && v[2] == (float)p[2],
                  "n=%ld: row %ld's vertex %ld is not the float cast of its position", (long)n, (long)i, (long)j);
        }
    }
    for (int64_t workers = 1; workers <= 4; workers++)
        for (int log = 0; log <= 1; log++) {
            other = advanced(&seed, workers, log, 1);
            CHECK(same(&ref, &other) && other.intact, "n=%ld: %ld workers, log %d, through a permuted, gapped index, "
                  "differ from one worker or wrote a gap row", (long)n, (long)workers, log);
            release(&other), memset(&other, 0, sizeof other);
        }

    if (n) {
        int64_t row = n / 2, lo = origin[3 * seed.home[row]] - 1;
        seed.capacity += 5 - (seed.remaining[row] > 0 ? seed.remaining[row] : 0);
        seed.remaining[row] = 5;
        seed.pos[3 * row] = (lo - 0.5) * spacing[0]; /* half a cell below its sampling extent */
        reach = rk4_reach(n, lattice, SX, SY, spacing, origin, core, seed.home, seed.pos);
        CHECK(reach == row, "n=%ld: rk4_reach returned %ld, not row %ld", (long)n, (long)reach, (long)row);
        other = advanced(&seed, 2, 1, 1);
        CHECK(other.logged == -2 && untouched(&other, &seed), "n=%ld: a start outside its reach returned %ld or "
              "moved a row", (long)n, (long)other.logged);
        release(&other), memset(&other, 0, sizeof other);
        seed.pos[3 * row] = origin[3 * seed.home[row]] * spacing[0];
        seed.capacity -= 1;
        other = advanced(&seed, 2, 1, 1);
        CHECK(other.logged == -1 && untouched(&other, &seed), "n=%ld: a log one vertex short returned %ld or "
              "moved a row", (long)n, (long)other.logged);
    }
done:
    release(&seed), release(&ref), release(&other);
    return failed;
}

/* Export a payload of pieces of one log, `batch` vertices at a time, as advect.export_curves cuts them;
 * returns 0 when every float is the one at its slot of the log. */
static int exported(int64_t batch)
{
    enum { VERTICES = 32, PIECES = 6 };
    /* each piece's (log slot, vertices), in payload order */
    static const int64_t piece[PIECES][2] = {{20, 5}, {7, 1}, {0, 7}, {8, 12}, {25, 1}, {26, 6}};
    int failed = 0;
    float *log = fill(3 * VERTICES, 4, 0), want[3 * VERTICES], *out = NULL;
    for (int64_t j = 0; j < 3 * VERTICES; j++)
        log[j] = (float)(2.0 * uniform() - 1.0);
    for (int p = 0, k = 0; p < PIECES; p++)
        for (int64_t j = 0; j < 3 * piece[p][1]; j++)
            want[k++] = log[3 * piece[p][0] + j];
    for (int64_t lo = 0; lo < VERTICES; lo += batch) { /* the payload's [lo, hi) */
        int64_t hi = lo + batch < VERTICES ? lo + batch : VERTICES, n = 0, addr[PIECES], count[PIECES];
        for (int64_t p = 0, at = 0; p < PIECES; at += piece[p++][1]) { /* piece p is the payload's [at, end) */
            int64_t end = at + piece[p][1], a = at > lo ? at : lo, b = end < hi ? end : hi;
            if (a < b) {
                addr[n] = (int64_t)(intptr_t)(log + 3 * (piece[p][0] + a - at));
                count[n++] = b - a;
            }
        }
        out = fill(3 * (hi - lo), 4, 0xff);
        rk4_export(n, addr, count, out);
        CHECK(!memcmp(out, want + 3 * lo, 3 * (hi - lo) * 4), "export: batch %ld of %ld vertices differs from the "
              "log's floats", (long)(lo / batch), (long)batch);
        free(out), out = NULL;
    }
    float untouched = -1.0f;
    rk4_export(0, NULL, NULL, &untouched);
    CHECK(untouched == -1.0f, "export: n = 0 wrote a float");
done:
    free(log), free(out);
    return failed;
}

/* Node (i, j, k), with the ghost layer at -1 and RES. */
static const double *node(int64_t i, int64_t j, int64_t k)
{
    return lattice + 3 * ((i + 1) * SX + (j + 1) * SY + k + 1);
}

/* Sample one point on each face of each rank's closed extent [origin - 1, origin + core], at the middle of
 * its other two axes, and the centre and top corner of the last rank's top cell; returns 0 when each is
 * within 1e-12 of its node, or of the mean of the cell's 8 corners (p / spacing is not always exact). */
static int sampled(void)
{
    enum { POINTS = 6 * RANKS + 2 };
    int failed = 0;
    int64_t home[POINTS];
    double points[3 * POINTS], out[3 * POINTS], want[3 * POINTS] = {0};
    for (int r = 0; r < RANKS; r++)
        for (int f = 0; f < 6; f++) {
            int64_t i = 6 * r + f, g[3];
            for (int a = 0; a < 3; a++)
                g[a] = origin[3 * r + a] + core[3 * r + a] / 2;
            g[f / 2] = f & 1 ? origin[3 * r + f / 2] + core[3 * r + f / 2] : origin[3 * r + f / 2] - 1;
            home[i] = r;
            for (int a = 0; a < 3; a++) {
                points[3 * i + a] = g[a] * spacing[a];
                want[3 * i + a] = node(g[0], g[1], g[2])[a];
            }
        }
    for (int a = 0; a < 3; a++) { /* the top cell [RES - 1, RES] of the last rank, whose core ends at RES */
        points[3 * (POINTS - 2) + a] = (RES - 0.5) * spacing[a];
        points[3 * (POINTS - 1) + a] = RES * spacing[a];
        want[3 * (POINTS - 1) + a] = node(RES, RES, RES)[a]; /* the lattice's last node */
        for (int c = 0; c < 8; c++)
            want[3 * (POINTS - 2) + a] += node(RES - 1 + (c >> 2), RES - 1 + (c >> 1 & 1), RES - 1 + (c & 1))[a] / 8;
    }
    home[POINTS - 2] = home[POINTS - 1] = RANKS - 1;
    CHECK(origin[3 * (RANKS - 1)] + core[3 * (RANKS - 1)] == RES, "sample: the last rank's core ends before RES");
    rk4_sample(POINTS, lattice, SX, SY, spacing, origin, core, home, points, out);
    for (int64_t i = 0; i < 3 * POINTS; i++)
        CHECK(fabs(out[i] - want[i]) <= 1e-12, "sample: point %ld, component %ld is %.17g, not %.17g",
              (long)(i / 3), (long)(i % 3), out[i], want[i]);
done:
    return failed;
}

/* Fill a heap lattice of exactly (rx + 2)(ry + 2)(rz + 2) nodes, each byte first the fill of a gap row, with the
 * toroidal field; returns 0 when the pass wrote every interior node, left every ghost node as it was and returned
 * the interior's max|v|, node (rx / 2, ry / 2, rz - 1) is within 1e-12 of the formula recomputed here, and a NaN
 * kappa returns NaN. */
static int toroidal(int64_t rx, int64_t ry, int64_t rz)
{
    const double r0 = 0.25, kappa = 0.5, eps = 1e-6, h[3] = {1.0 / (rx - 1), 1.0 / (ry - 1), 1.0 / (rz - 1)};
    const int64_t sy = rz + 2, sx = (ry + 2) * sy, n = (rx + 2) * sx;
    int failed = 0;
    double *lat = fill(3 * n, 8, 0xa5), vmax = 0.0, got = rk4_toroidal(rx, ry, rz, h, r0, kappa, eps, lat);
    for (int64_t node = 0; node < n; node++) {
        int64_t i = node / sx, j = node / sy % (ry + 2), k = node % sy;
        int ghost = i == 0 || i == rx + 1 || j == 0 || j == ry + 1 || k == 0 || k == rz + 1;
        CHECK(filled(lat + 3 * node, 24) == ghost, "toroidal %ldx%ldx%ld: node (%ld, %ld, %ld) of the padded "
              "lattice was %s", (long)rx, (long)ry, (long)rz, (long)i, (long)j, (long)k,
              ghost ? "written" : "not written");
        for (int a = 0; !ghost && a < 3; a++)
            vmax = fabs(lat[3 * node + a]) > vmax ? fabs(lat[3 * node + a]) : vmax;
    }
    CHECK(got == vmax, "toroidal %ldx%ldx%ld: returned max|v| %.17g, not %.17g", (long)rx, (long)ry, (long)rz,
          got, vmax);
    int64_t i = rx / 2, j = ry / 2, k = rz - 1;
    double dx = i * h[0] - 0.5, dy = j * h[1] - 0.5, dz = k * h[2] - 0.5;
    double rho = fmax(sqrt(dx * dx + dy * dy), eps), rs = fmax(sqrt((rho - r0) * (rho - r0) + dz * dz), eps);
    double want[3] = {-dy / rho + kappa * (-dz * dx / rho) / rs, dx / rho + kappa * (-dz * dy / rho) / rs,
                      kappa * (rho - r0) / rs};
    for (int a = 0; a < 3; a++)
        CHECK(fabs(lat[3 * ((i + 1) * sx + (j + 1) * sy + k + 1) + a] - want[a]) <= 1e-12, "toroidal %ldx%ldx%ld: "
              "node (%ld, %ld, %ld), component %d is not the formula's", (long)rx, (long)ry, (long)rz, (long)i,
              (long)j, (long)k, a);
    CHECK(isnan(rk4_toroidal(rx, ry, rz, h, r0, NAN, eps, lat)), "toroidal %ldx%ldx%ld: a NaN kappa did not "
          "return NaN", (long)rx, (long)ry, (long)rz);
done:
    free(lat);
    return failed;
}

/* Component a of the placed() lattices at node (i, j, k): component 1 does not depend on i, nor 2 on j or k. */
static double component(int a, int64_t i, int64_t j, int64_t k)
{
    return a == 0 ? 100.0 * i + 10.0 * j + k + 0.25 : a == 1 ? -(10.0 * j + k) - 0.5 : 1000.0 * i + 0.125;
}

/* Fill a heap lattice of exactly (rx + 2)(ry + 2)(rz + 2) nodes, each byte first the fill of a gap row, with
 * rk4_place in slabs of `planes` x-planes, the last maybe fewer, then pad it with rk4_pad; returns 0 when every
 * node holds the components of its nearest interior node, bit for bit. Each component lies in an allocation of
 * exact size: 0 is a contiguous (rx, ry, rz) array, 1 a (y, z) plane broadcast along x (stride 0) and stored
 * with z reversed (a negative stride), and 2 an x vector broadcast along y and z, one byte off 8-byte alignment. */
static int placed(int64_t rx, int64_t ry, int64_t rz, int64_t planes)
{
    const int64_t sy = rz + 2, sx = (ry + 2) * sy, n = (rx + 2) * sx;
    int failed = 0;
    double *lat = fill(3 * n, 8, 0xa5), *whole = fill(rx * ry * rz, 8, 0), *plane = fill(ry * rz, 8, 0);
    char *vector = fill(8 * rx + 1, 1, 0);
    for (int64_t i = 0; i < rx; i++) {
        double v = component(2, i, 0, 0);
        memcpy(vector + 1 + 8 * i, &v, 8);
        for (int64_t j = 0; j < ry; j++)
            for (int64_t k = 0; k < rz; k++) {
                whole[(i * ry + j) * rz + k] = component(0, i, j, k);
                plane[j * rz + rz - 1 - k] = component(1, i, j, k);
            }
    }
    for (int64_t x0 = 0; x0 < rx; x0 += planes) {
        const int64_t table[12] = {(intptr_t)(whole + x0 * ry * rz), 8 * ry * rz, 8 * rz, 8,
                                   (intptr_t)(plane + rz - 1), 0, 8 * rz, -8,
                                   (intptr_t)(vector + 1 + 8 * x0), 8, 0, 0};
        rk4_place(x0, planes < rx - x0 ? planes : rx - x0, ry, rz, table, lat);
    }
    rk4_pad(rx, ry, rz, lat);
    for (int64_t node = 0; node < n; node++) {
        int64_t i = node / sx, j = node / sy % (ry + 2), k = node % sy;
        int64_t ci = i < 1 ? 0 : i > rx ? rx - 1 : i - 1, cj = j < 1 ? 0 : j > ry ? ry - 1 : j - 1;
        int64_t ck = k < 1 ? 0 : k > rz ? rz - 1 : k - 1;
        for (int a = 0; a < 3; a++) {
            double want = component(a, ci, cj, ck);
            CHECK(!memcmp(lat + 3 * node + a, &want, 8), "place %ldx%ldx%ld in %ld-plane slabs: node (%ld, %ld, "
                  "%ld) of the padded lattice, component %d, is %.17g, not %.17g", (long)rx, (long)ry, (long)rz,
                  (long)planes, (long)i, (long)j, (long)k, a, lat[3 * node + a], want);
        }
    }
done:
    free(lat), free(whole), free(plane), free(vector);
    return failed;
}

int main(void)
{
    for (int a = 0; a < 3; a++)
        spacing[a] = 1.0 / (RES - 1);
    for (int r = 0; r < RANKS; r++)
        for (int a = 0; a < 3; a++) {
            origin[3 * r + a] = (r >> a & 1) * SPLIT;
            core[3 * r + a] = SPLIT;
        }
    for (int i = 0; i < RES + 2; i++) /* an ABC flow, with the ghost layer a copy of the edge nodes */
        for (int j = 0; j < RES + 2; j++)
            for (int k = 0; k < RES + 2; k++) {
                double x = (i < 1 ? 0 : i > RES ? RES - 1 : i - 1) * spacing[0];
                double y = (j < 1 ? 0 : j > RES ? RES - 1 : j - 1) * spacing[1];
                double z = (k < 1 ? 0 : k > RES ? RES - 1 : k - 1) * spacing[2];
                double *v = lattice + 3 * (i * SX + j * SY + k), t = 2.0 * M_PI;
                v[0] = sin(t * z) + 0.8 * cos(t * y);
                v[1] = 0.9 * sin(t * x) + cos(t * z);
                v[2] = 0.8 * sin(t * y) + 0.9 * cos(t * x);
            }
    const int64_t bases[] = {0, rk4_chunk, rk4_lanes * rk4_chunk, 2 * rk4_lanes * rk4_chunk,
                             4 * rk4_lanes * rk4_chunk};
    int failed = 0;
    for (size_t b = 0; b < sizeof bases / sizeof bases[0]; b++)
        for (int64_t d = -1; d <= 1; d++)
            if (bases[b] + d >= 0)
                failed |= run(bases[b] + d, 0);
    const int64_t batches[] = {1, 3, 5, 32, 40};
    for (size_t b = 0; b < sizeof batches / sizeof batches[0]; b++)
        failed |= exported(batches[b]);
    failed |= sampled();
    const int64_t shapes[][3] = {{5, 3, 2}, {2, 4, 3}, {7, 5, 9}}; /* (5, 3, 2) and (7, 5, 9) have an axis node */
    for (size_t s = 0; s < sizeof shapes / sizeof shapes[0]; s++)
        failed |= toroidal(shapes[s][0], shapes[s][1], shapes[s][2]);
    const int64_t lattices[][3] = {{5, 3, 2}, {2, 4, 3}, {7, 5, 9}, {2, 2, 2}};
    for (size_t s = 0; s < sizeof lattices / sizeof lattices[0]; s++)
        for (int64_t planes = 1; planes <= 3; planes += 2)
            failed |= placed(lattices[s][0], lattices[s][1], lattices[s][2], planes);
    return failed | run(2 * rk4_lanes * rk4_chunk + 7, 1);
}
