// Shared by `tests/analysis_golden.rs` and `tests/effects_golden.rs`
// through `include!`.

/// Every `.c` file under `examples/`, recursively, as `(path relative to
/// examples/, source)`, sorted by path.
fn example_programs() -> Vec<(String, String)> {
    fn collect(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                collect(&path, out);
            } else if path.extension().is_some_and(|x| x == "c") {
                out.push(path);
            }
        }
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut files = Vec::new();
    collect(&root, &mut files);
    files.sort();
    files
        .iter()
        .map(|p| {
            let name = p.strip_prefix(&root).expect("under examples/");
            let src = std::fs::read_to_string(p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (name.to_string_lossy().into_owned(), src)
        })
        .collect()
}
