/* A pointer table updated inside the loop that reads through it:
 * iteration i installs the row a[i] and reads a[i - 1][0], the row the
 * previous iteration installed. The store has one subscript and the read
 * two; they are compared on the common prefix, so the user's pragma is a
 * definite race. `purec check` exits 1. */
float **a, **rows;
float *x;

int main() {
    int n = 64;
    int i;
    a = (float**) malloc(n * sizeof(float*));
    rows = (float**) malloc(n * sizeof(float*));
    x = (float*) malloc(n * sizeof(float));
    for (i = 0; i < n; i++) {
        rows[i] = (float*) malloc(4 * sizeof(float));
        rows[i][0] = i;
        a[i] = rows[0];
        x[i] = 0.0f;
    }
#pragma omp parallel for
    for (i = 1; i < n; i++) { // expect: RaceLoopCarried
        a[i] = rows[i];
        x[i] = a[i - 1][0];
    }
    return (int) x[n - 1];
}
