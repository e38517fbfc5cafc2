/* The idiom malloc/free are in the pure registry for (ablation A1,
 * --no-alloc-pure): a pure function that owns per-call scratch memory,
 * called from a parallel loop. Frees issued inside a region are
 * reclaimed at its join, so the footprint is one region's scratch, not
 * the run's:
 *
 *   purec examples/scratch_pure.c --run --threads 4
 */
pure int work(int k) {
    int* s = (int*) malloc(32 * sizeof(int));
    for (int j = 0; j < 32; j++) s[j] = (k + j) % 7;
    int acc = 0;
    for (int j = 0; j < 32; j++) acc += s[j];
    free(s);
    return acc;
}

int main() {
    int n = 20000;
    int* out = (int*) malloc(n * sizeof(int));
    int total = 0;
    for (int r = 0; r < 10; r++) {
#pragma omp parallel for schedule(dynamic, 16)
        for (int i = 0; i < n; i++) out[i] = work(i + r);
        for (int i = 0; i < n; i++) total = (total + out[i]) % 1000003;
    }
    printf("total=%d\n", total);
    return total % 101;
}
