/* Paper Listing 5 with the array reached by name instead of by argument,
 * split over two statements: `f` reads the global `g` the loop writes, a
 * flow dependence no argument shows. Listing 5's per-assignment rule
 * lets it through, but the nest is no SCoP: the pragma stays on the
 * literal loop, the verdict is Unknown and `--race-check` catches it:
 *
 *   purec examples/analysis/global_feedback.c --run --race-check   (exit 1)
 */
int g[2000];
int h[2000];

pure int f(int i) { return g[i - 1] + 1; }

int main() {
    g[0] = 0;
#pragma omp parallel for
    for (int i = 1; i < 2000; i++) {
        h[i] = f(i); // expect: RaceUnprovable
        g[i] = h[i];
    }
    return g[1999] % 100;
}
