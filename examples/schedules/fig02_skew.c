// Golden schedule snapshot for the paper's Figure 2: a stencil whose
// dependence distances are (1,0) and (1,-1). The negative component
// makes rectangular tiling of the original (i, j) space invalid (the
// backward arrow of Fig. 2, left); after the shear t2 = i + j every
// distance is non-negative and the 2-d band tiles (Fig. 2, right).
// Compiled by tests/schedule_golden.rs with the option line below;
//
//   purec examples/schedules/fig02_skew.c --tile 32 --dump-schedule
//
// prints the skewed, tiled nest and the region lines matched here.
// options: tile=32

float **a;

int main() {
    a = (float**) malloc(64 * sizeof(float*));
    // Allocation nest: rejected (malloc call), inner init nest kept.
    // expect: skipped
    for (int i = 0; i < 64; i++) {
        a[i] = (float*) malloc(64 * sizeof(float));
        // expect: depth=1 band=1 parallel tiled
        for (int j = 0; j < 64; j++)
            a[i][j] = (float)(i + j);
    }
    // The Fig. 2 kernel: the second hyperplane is the shear [1,1]. Both
    // tile loops stay sequential (a dependence crosses from one tile to
    // the next along each), and the inner point loop runs in parallel.
    // expect: depth=2 schedule=[[1,0] [1,1]] band=2 tiled skewed
    for (int i = 1; i < 64; i++)
        for (int j = 1; j < 63; j++)
            a[i][j] = a[i - 1][j] + a[i - 1][j + 1];
    printf("a=%.1f\n", a[63][1]);
    return 0;
}
