/* Three programs the verifier used to accept. Each was "verified pure",
 * its loop got `#pragma omp parallel for`, and the run printed different
 * numbers from one execution to the next with --race-check passing.
 * `purec check` exits 1; the chain refuses to compile the file. */
int g;
int table[64];

/* 1. A block-scoped declaration stops shadowing where its block ends:
 *    the second `g` is the global. */
pure int shadowed(int n) {
    {
        int g = 1;
        n = n + g;
    }
    g = g + n; // expect: PureGlobalWrite
    return g;
}

/* 2. A static local is state shared by every caller (and a data race in
 *    the emitted C, where the function is called from a parallel loop). */
pure int counter(int x) {
    static int n = 0; // expect: PureStaticLocal
    n = n + 1;
    return x + n;
}

/* 3. Paper Listing 5 with the array reached by name instead of by
 *    argument: `prev` reads the global the loop writes. */
pure int prev(int i) { return table[i - 1] + 1; }

int main() {
    int out[64];
    for (int i = 0; i < 64; i++) out[i] = shadowed(i) + counter(i);
    table[0] = 0;
    for (int i = 1; i < 64; i++) table[i] = prev(i); // expect: PureParamWrittenInLoop
    return out[63] + table[63];
}
