/* One function per cell of the effect lattice (cinterp::effects): class
 * const ⊂ pure ⊂ impure, cost leaf | heavy.
 *
 *   purec examples/effects.c --run --threads 4 --stats
 *
 * prints the const and heavy sets next to `spawn sites`;
 * tests/golden/effects.txt pins every cell. */
int scale = 3;
int* table;

/* const, leaf: scalar arithmetic and a math builtin. */
pure int twice(int x) { return 2 * x + abs(x); }

/* const, heavy: it loops. */
pure int tri(int n) {
    int s = 0;
    for (int i = 0; i <= n; i++) s += i;
    return s;
}

/* const, heavy: it recurses. */
pure int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}

/* const, heavy: mutual recursion keeps both (greatest fixpoint). */
pure int is_odd(int n);
pure int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
pure int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }

/* const, heavy by inheritance: a wrapper of a heavy callee. */
pure int wrap(int n) { return tri(n + 1) + twice(n); }

/* pure, not const: reads a global. */
pure int scaled(int x) { return x * scale; }

/* pure, not const: reads through a pointer parameter. */
pure int first(pure int* p) { return p[0]; }

/* pure, not const: owns scratch memory. */
pure int scratch(int k) {
    int* s = (int*) malloc(4 * sizeof(int));
    s[0] = k;
    int v = s[0];
    free(s);
    return v;
}

/* pure, not const: a local array is memory. */
pure int local_array(int k) {
    int a[4];
    a[0] = k;
    return a[0];
}

/* pure, not const: its callee is not const. */
pure int via_scaled(int x) { return scaled(x) + 1; }

/* impure: writes a global. */
int bump(int by) {
    scale = scale + by;
    return scale;
}

int main() {
    table = (int*) malloc(8 * sizeof(int));
    for (int i = 0; i < 8; i++) table[i] = twice(i) + scaled(i);
    int a = fib(12);
    int b = tri(10);
    int c = wrap(4) + is_even(10);
    int d = first((pure int*) table) + scratch(5) + local_array(6) + via_scaled(2);
    bump(1);
    printf("%d %d %d %d %d\n", a, b, c, d, scale);
    return (a + b + c + d) % 100;
}
