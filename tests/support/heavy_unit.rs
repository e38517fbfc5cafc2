// Shared by `tests/chain_integration.rs` and the unit tests of
// `crates/polyhedral/src/deps.rs` through `include!` (purebench, which owns
// the real generator, is not a dependency of either).

/// `groups` kernel groups in the shape of purebench's `compile_heavy`
/// unit: an init nest, then a nest around a pure call, an inline product
/// nest under `omp parallel for` or the Fig. 2 stencil, in turn, then a
/// summation nest.
fn heavy_unit(groups: usize) -> String {
    let mut src = String::from("#define HN 12\n");
    for g in 0..groups {
        let nest = [
            "for (int i = 0; i < HN; i++)\n for (int j = 0; j < HN; j++)\n\
             G_b[i][j] = G_mix(G_a[i][j], G_a[j][i]);",
            "#pragma omp parallel for\n\
             for (int i = 0; i < HN; i++)\n for (int j = 0; j < HN; j++)\n\
             for (int k = 0; k < HN; k++)\n G_b[i][j] += G_a[i][k] * G_a[k][j];",
            "for (int i = 1; i < HN; i++)\n for (int j = 0; j < HN - 1; j++)\n\
             G_a[i][j] = G_a[i - 1][j] + G_a[i - 1][j + 1];",
        ][g % 3];
        let group = format!(
            "float **G_a, **G_b;\n\
             pure float G_mix(float x, float y) {{ return x * 2 + 3 * y; }}\n\
             void G_init() {{\n\
             G_a = (float**) malloc(HN * sizeof(float*));\n\
             G_b = (float**) malloc(HN * sizeof(float*));\n\
             for (int i = 0; i < HN; i++) {{\n\
             G_a[i] = (float*) malloc(HN * sizeof(float));\n\
             G_b[i] = (float*) malloc(HN * sizeof(float));\n\
             for (int j = 0; j < HN; j++) {{\n\
             G_a[i][j] = (float)((i * 2 + j * 3 + {g}) % 7);\n G_b[i][j] = 0.0f;\n}}\n}}\n}}\n\
             int G_kernel() {{\n{nest}\n float s = 0.0f;\n\
             for (int i = 0; i < HN; i++)\n for (int j = 0; j < HN; j++)\n s += G_b[i][j];\n\
             return (int) s;\n}}\n"
        );
        src.push_str(&group.replace("G_", &format!("g{g}_")));
    }
    src
}
