//! Keeps DESIGN.md honest where a table can be checked against the tree.
//! §7 and `sslint::rules::RULES` in lockstep: every rule the auditor knows
//! must be documented in the catalogue table, and the table must not
//! advertise rules the auditor no longer has. §2's inventory: a row per
//! directory under `crates/`, and no row for a directory that is gone.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The text of the `## ` section whose heading starts with `heading`.
fn design_section(heading: &str) -> String {
    let text = std::fs::read_to_string(repo_root().join("DESIGN.md")).expect("read DESIGN.md");
    let start = text
        .find(heading)
        .unwrap_or_else(|| panic!("DESIGN.md has a section `{heading}`"));
    let rest = &text[start..];
    let end = rest[3..].find("\n## ").map(|i| i + 3).unwrap_or(rest.len());
    rest[..end].to_string()
}

#[test]
fn design_section_2_has_a_row_per_crate_and_no_row_without_a_directory() {
    let section = design_section("## 2. System inventory");
    // Inventory rows are `| `<directory>` … | <contents> |`.
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
        .collect();
    assert!(rows.len() > 10, "§2's table went missing: {rows:?}");
    for row in &rows {
        assert!(
            repo_root().join(row).is_dir(),
            "DESIGN.md §2 has a row for `{row}`, which is not a directory"
        );
    }
    for entry in std::fs::read_dir(repo_root().join("crates")).expect("list crates/") {
        let entry = entry.expect("directory entry");
        if entry.path().is_dir() {
            let dir = format!("crates/{}", entry.file_name().to_string_lossy());
            assert!(
                rows.contains(&dir.as_str()),
                "`{dir}` has no row in DESIGN.md §2"
            );
        }
    }
}

#[test]
fn every_rule_is_documented_in_design_section_7() {
    let section = design_section("## 7. Static analysis");
    for rule in sslint::rules::RULES {
        assert!(
            section.contains(&format!("`{rule}`")),
            "rule `{rule}` is missing from DESIGN.md §7's catalogue"
        );
    }
}

#[test]
fn design_section_7_documents_no_unknown_rules() {
    let section = design_section("## 7. Static analysis");
    // Catalogue rows are `| <group> | `<rule-id>` | …`; collect the
    // second cell of each table row and check it against the registry.
    for line in section.lines() {
        let mut cells = line.split('|').map(str::trim);
        let Some("") = cells.next() else { continue };
        let Some(group) = cells.next() else { continue };
        let Some(id_cell) = cells.next() else {
            continue;
        };
        if !id_cell.starts_with('`') || group.starts_with("---") || group == "Group" {
            continue;
        }
        let id = id_cell.trim_matches('`');
        assert!(
            sslint::rules::RULES.contains(&id),
            "DESIGN.md §7 documents `{id}`, which the auditor does not implement"
        );
    }
}
