/* Iterating pointers beside their indexed twin: the same squares written
 * through `b[i] = sq(a[i])` and through `*q++ = sq(*p)` with the walk's
 * end tested by `<`, `<=` and `!=`. Every form prints the same digest on
 * every engine and under GCC. The walks stay sequential — polycc takes
 * only an integer for a loop iterator — and `purec check` has nothing to
 * say about them. */
#include <stdio.h>
#include <stdlib.h>

pure int sq(int x) { return x * x; }

pure int digest(pure int* v, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) s += v[i] * (i % 7 + 1);
    return s;
}

int main() {
    int n = 1000;
    int* a = (int*) malloc(n * sizeof(int));
    int* b = (int*) malloc(n * sizeof(int));
    int* p;
    int* q;
    for (int i = 0; i < n; i++) a[i] = i % 17 - 8;

    for (int i = 0; i < n; i++) b[i] = sq(a[i]);
    printf("indexed %d\n", digest((pure int*) b, n));

    for (int i = 0; i < n; i++) b[i] = 0;
    q = b;
    for (p = a; p < a + n; p++) *q++ = sq(*p);
    printf("lt      %d\n", digest((pure int*) b, n));

    for (int i = 0; i < n; i++) b[i] = 0;
    q = b;
    for (p = a; p <= a + n - 1; p++) *q++ = sq(*p);
    printf("le      %d\n", digest((pure int*) b, n));

    for (int i = 0; i < n; i++) b[i] = 0;
    q = b;
    for (p = a; p != a + n; p++) *q++ = sq(*p);
    printf("ne      %d\n", digest((pure int*) b, n));

    free(a);
    free(b);
    return 0;
}
