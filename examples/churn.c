/* 50 000 balanced malloc(256)/free pairs whose live set is one block:
 * the heap must give each block back, so this runs to its own exit code
 * (25000 % 101 = 53) under a cap far below the 12.8 MB it cycles
 * through:
 *
 *   purec examples/churn.c --run --max-memory 100000
 */
int main() {
    int live = 0;
    for (int k = 0; k < 50000; k++) {
        int* p = (int*) malloc(256);
        p[0] = k;
        live = live + (p[0] & 1);
        free(p);
    }
    return live % 101;
}
