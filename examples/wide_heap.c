// Heap cells that hold what a NaN-boxed word cannot carry inline: ints
// past +-2^47, pointers whose index is past 2^23, and -0.0 (a float that
// fits, kept bit for bit). A parallel region writes them into three
// shared arrays, one cell per iteration; the sequential tail reads them
// back after the join.
//
//   purec examples/wide_heap.c --run [--threads 4] [--engine resolved]
int main() {
    int n = 256;
    int* wide = (int*) malloc(n * sizeof(int));
    int** far = (int**) malloc(n * sizeof(int*));
    double* zero = (double*) malloc(n * sizeof(double));
    int* base = (int*) malloc(sizeof(int));
#pragma omp parallel for
    for (int i = 0; i < n; i++) {
        wide[i] = (i - 128) * 140737488355328 - i;
        far[i] = base + 16777216 + i;
        zero[i] = -0.0;
    }
    int mix = 0;
    int offsets = 0;
    int negative_zeros = 0;
    for (int i = 0; i < n; i++) {
        mix = mix * 31 + wide[i];
        offsets = offsets + (far[i] - base - 16777216);
        if (1.0 / zero[i] < 0.0) negative_zeros = negative_zeros + 1;
    }
    printf("wide[0]=%d wide[255]=%d mix=%d\n", wide[0], wide[255], mix);
    printf("offsets=%d negative_zeros=%d\n", offsets, negative_zeros);
    free(base);
    free(zero);
    free(far);
    free(wide);
    return offsets % 251;
}
