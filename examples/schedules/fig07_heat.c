// Golden schedule snapshot for the paper's Figure 7 shape: Jacobi-style
// heat diffusion with the stencil kernel extracted into a pure
// function. Compiled by tests/schedule_golden.rs with default chain
// options; `expect:` lines are matched in order against the region
// lines of the schedule dump.

float **cur, **nxt;

pure float stencil_avg(pure float* up, pure float* row, pure float* down, int j) {
    return 0.25f * (up[j] + down[j] + row[j - 1] + row[j + 1]);
}

int main() {
    cur = (float**) malloc(16 * sizeof(float*));
    nxt = (float**) malloc(16 * sizeof(float*));
    // Allocation nest: rejected (malloc calls), inner init nest kept.
    // expect: skipped
    for (int i = 0; i < 16; i++) {
        cur[i] = (float*) malloc(16 * sizeof(float));
        nxt[i] = (float*) malloc(16 * sizeof(float));
        // expect: depth=1 band=1 parallel
        for (int j = 0; j < 16; j++) {
            cur[i][j] = 0.0f;
            nxt[i][j] = 0.0f;
        }
    }
    cur[8][0] = 100.0f;
    // The time loop is no SCoP: its stencil call reads cur, which its
    // copy sweep writes, and the model cannot see inside the call. Both
    // sweeps are SCoPs of their own, clean 2-d parallel bands: the
    // stencil writes nxt from cur, the copy writes cur back.
    for (int t = 0; t < 2; t++) {
        // expect: depth=2 band=2 parallel
        for (int i = 1; i < 15; i++)
            for (int j = 1; j < 15; j++)
                nxt[i][j] = stencil_avg((pure float*)cur[i - 1], (pure float*)cur[i], (pure float*)cur[i + 1], j);
        // expect: depth=2 band=2 parallel
        for (int i = 1; i < 15; i++)
            for (int j = 1; j < 15; j++)
                cur[i][j] = nxt[i][j];
        cur[8][0] = 100.0f;
    }
    float total = 0.0f;
    // Accumulation into a scalar: a 2-d band whose innermost dependence
    // keeps it sequential.
    // expect: depth=2 band=1 sequential
    for (int i = 0; i < 16; i++)
        for (int j = 0; j < 16; j++)
            total += cur[i][j];
    printf("heat=%.3f\n", total);
    return 0;
}
