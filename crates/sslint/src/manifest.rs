//! A minimal `Cargo.toml` reader for the hermeticity, layering and
//! lint-inheritance rules.
//!
//! Understands exactly the manifest shapes this workspace uses: `[section]`
//! headers, `key = value` lines, and one-line inline tables. That is all
//! the hermeticity audit needs — if a future manifest grows multi-line
//! tables the unparsed lines surface as findings, not silent passes.

/// One dependency entry from a `[dependencies]`-like section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEntry {
    /// The dependency key (the in-tree crate's dependency name).
    pub name: String,
    /// Raw value text after `=`.
    pub value: String,
    /// 1-based line in the manifest.
    pub line: u32,
    /// Which section the entry came from (e.g. `dependencies`,
    /// `dev-dependencies`, `workspace.dependencies`).
    pub section: String,
}

impl DepEntry {
    /// Whether the dependency resolves strictly in-tree: a `path = "…"`
    /// entry or a `workspace = true` reference (the workspace table itself
    /// being path-only is checked on the root manifest).
    pub fn is_in_tree(&self) -> bool {
        let v = &self.value;
        v.contains("path =")
            || v.contains("path=")
            || v.contains("workspace = true")
            || v.contains("workspace=true")
    }
}

/// The parsed pieces of one manifest the lint rules look at.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `package.name`, if present.
    pub package_name: Option<String>,
    /// Entries of every `*dependencies*` section.
    pub deps: Vec<DepEntry>,
    /// Whether the manifest declares a `[workspace]` table.
    pub is_workspace_root: bool,
    /// Whether a `[lints]` table says `workspace = true`.
    pub inherits_lints: bool,
}

/// Parses the manifest text. Never fails: unrecognized lines are ignored
/// (they cannot *add* dependencies in the shapes this workspace uses).
pub fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            if let Some(name) = rest.strip_suffix(']') {
                section = name.trim().to_string();
                if section == "workspace" {
                    m.is_workspace_root = true;
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        if section == "package" && key == "name" {
            m.package_name = Some(value.trim_matches('"').to_string());
        }
        if section == "lints" && key == "workspace" && value == "true" {
            m.inherits_lints = true;
        }
        if section.contains("dependencies") {
            m.deps.push(DepEntry {
                name: key.trim_matches('"').to_string(),
                value: value.to_string(),
                line: (idx + 1) as u32,
                section: section.clone(),
            });
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_dep_shapes() {
        let text = r#"
[package]
name = "demo"

[dependencies]
util = { workspace = true }
local = { path = "../local" }
external = "1.0"
table-ext = { version = "0.3", features = ["x"] }

[dev-dependencies]
helper = { path = "../helper" }

[lints]
workspace = true
"#;
        let m = parse(text);
        assert_eq!(m.package_name.as_deref(), Some("demo"));
        assert!(!m.is_workspace_root);
        assert!(m.inherits_lints);
        assert_eq!(m.deps.len(), 5);
        let by_name = |n: &str| m.deps.iter().find(|d| d.name == n).unwrap();
        assert!(by_name("util").is_in_tree());
        assert!(by_name("local").is_in_tree());
        assert!(!by_name("external").is_in_tree());
        assert!(!by_name("table-ext").is_in_tree());
        assert_eq!(by_name("helper").section, "dev-dependencies");
    }

    #[test]
    fn workspace_root_detected() {
        let m = parse("[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.dependencies]\nutil = { path = \"crates/util\" }\n");
        assert!(m.is_workspace_root);
        assert!(!m.inherits_lints);
        assert_eq!(m.deps.len(), 1);
        assert!(m.deps[0].is_in_tree());
    }
}
