//! DESIGN.md's crate map must name every workspace crate, and only those,
//! with the package name its `Cargo.toml` declares; README's knob table
//! must name every `JSN_*` variable the experiment harness reads.

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

/// The variables README's `### Environment knobs` table names, in order:
/// the first backticked cell of every table row.
fn documented_knobs() -> Vec<String> {
    let readme = std::fs::read_to_string("README.md").expect("README.md");
    let section = readme.split("### Environment knobs").nth(1).expect("README has a knob table");
    let section = section.split("\n#").next().unwrap();
    section
        .lines()
        .filter_map(|l| l.strip_prefix("| `"))
        .map(|l| l.split('`').next().unwrap().to_owned())
        .collect()
}

#[test]
fn readme_knob_table_matches_env_knobs() {
    let knobs: Vec<String> =
        mnm_experiments::metrics::ENV_KNOBS.iter().map(|(name, _)| (*name).to_owned()).collect();
    assert_eq!(documented_knobs(), knobs, "README `### Environment knobs` vs metrics::ENV_KNOBS");
}
