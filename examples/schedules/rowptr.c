// Golden schedule snapshot for a pointer table updated inside a loop:
// iteration i installs the row pointer a[i] and reads an element through
// a[i - 1], the row iteration i - 1 installed. The store has one
// subscript and the read two; the dependence test compares their common
// prefix, so the loop carries a flow dependence of distance 1 and must
// stay sequential. (Before that comparison existed the nest was emitted
// under `omp parallel for` and printed a different sum per thread count;
// tests/poly_differential.rs runs this file with N = 200000.)

#define N 64

float **a, **rows;
float *x;

int main() {
    a = (float**) malloc(N * sizeof(float*));
    rows = (float**) malloc(N * sizeof(float*));
    x = (float*) malloc(N * sizeof(float));
    // expect: depth=1 band=1 parallel
    for (int i = 0; i < N; i++) {
        rows[i] = (float*) malloc(4 * sizeof(float));
        rows[i][0] = i;
        x[i] = 0.0f;
    }
    // expect: depth=1 band=1 parallel
    for (int i = 0; i < N; i++)
        a[i] = rows[0];
    // expect: depth=1 band=1 sequential
    for (int i = 1; i < N; i++) {
        a[i] = rows[i];
        x[i] = a[i - 1][0];
    }
    float s = 0.0f;
    // expect: depth=1 band=1 sequential
    for (int i = 0; i < N; i++)
        s += x[i];
    printf("%d\n", (int)(s / 1000.0f));
    return 0;
}
