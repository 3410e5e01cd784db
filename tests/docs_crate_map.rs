//! DESIGN.md's crate map must name every workspace crate, and only those,
//! with the package name its `Cargo.toml` declares.

use std::collections::BTreeMap;
use std::path::Path;

/// `directory -> package name` pairs from the fenced block under
/// `## Crate map`: every line that starts with `crates/`.
fn documented() -> BTreeMap<String, String> {
    let design = std::fs::read_to_string("DESIGN.md").expect("DESIGN.md");
    let section = design.split("## Crate map").nth(1).expect("DESIGN.md has a crate map");
    let block = section.split("```").nth(1).expect("crate map is a fenced block");
    block
        .lines()
        .filter(|l| l.starts_with("crates/"))
        .map(|l| {
            let mut words = l.split_whitespace();
            let dir = words.next().unwrap().to_owned();
            let package = words.next().expect("crate map line names a package").to_owned();
            (dir, package)
        })
        .collect()
}

/// `directory -> package name` for every `crates/*/Cargo.toml`.
fn actual() -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("crates").expect("crates/") {
        let dir = entry.unwrap().path();
        let manifest = dir.join("Cargo.toml");
        if !manifest.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&manifest).unwrap();
        let name = text
            .lines()
            .find_map(|l| l.strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"')
            .to_owned();
        let rel = Path::new("crates").join(dir.file_name().unwrap());
        out.insert(rel.to_string_lossy().into_owned(), name);
    }
    out
}

#[test]
fn design_crate_map_matches_the_workspace() {
    assert_eq!(documented(), actual(), "DESIGN.md `## Crate map` vs crates/*/Cargo.toml");
}
